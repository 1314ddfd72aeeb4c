//===- engine/ArenaLayout.h - Arena storage layout policy -------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CacheArena's physical storage policy. Logically the arena is
/// always the same object — pixelCount x CacheLayout::totalBytes() typed
/// slots — but the bytes can be arranged three ways:
///
///   PixelMajor   one contiguous stride per pixel (the seed layout, and
///                the canonical on-disk form of a snapshot's ARENA
///                section);
///   SlotMajor    full struct-of-arrays: each slot is one pixels-length
///                column, so the batched tier's per-slot lane loops walk
///                unit-stride memory;
///   TileBlocked  slot-major within fixed-size pixel blocks, so one
///                block's working set fits L2/LLC while lane loops keep
///                unit stride inside the block.
///
/// Orthogonally, PackCold moves low-reuse slots (CacheSlot::ReuseWeight
/// < 1, i.e. terms the reader touches only under conditionals) behind
/// the hot slots of each block, shrinking the hot stride the streaming
/// reader actually pays for.
///
/// The helpers here also detect last-level-cache capacity (sysfs, with
/// an override) for the Section 4.3 measured-bytes limiter, and encode
/// the engine's `auto` policy: which layout each execution tier wants.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_ENGINE_ARENALAYOUT_H
#define DATASPEC_ENGINE_ARENALAYOUT_H

#include "engine/ExecTier.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace dspec {

/// Physical arrangement of the arena's bytes.
enum class ArenaLayout : uint8_t {
  PixelMajor = 0,
  SlotMajor = 1,
  TileBlocked = 2,
};

/// One arena's full storage policy.
struct ArenaLayoutConfig {
  ArenaLayout Layout = ArenaLayout::PixelMajor;
  /// TileBlocked only: pixels per block. 0 picks a default sized so one
  /// block's full stride stays comfortably inside L2 (and a multiple of
  /// the engine's tile size, keeping the batched tier block-aligned).
  unsigned TilePixels = 0;
  /// Pack slots with ReuseWeight < 1 behind the hot slots of each block.
  bool PackCold = false;

  friend bool operator==(const ArenaLayoutConfig &A,
                         const ArenaLayoutConfig &B) {
    return A.Layout == B.Layout && A.TilePixels == B.TilePixels &&
           A.PackCold == B.PackCold;
  }
  friend bool operator!=(const ArenaLayoutConfig &A,
                         const ArenaLayoutConfig &B) {
    return !(A == B);
  }
};

/// Stable lowercase name ("pixel-major" / "slot-major" / "tile-blocked").
const char *arenaLayoutName(ArenaLayout Layout);

/// Parses a layout name as printed by arenaLayoutName. Returns nullopt on
/// anything else — including "auto", which callers resolve themselves via
/// chooseArenaLayout because it depends on the execution tier.
std::optional<ArenaLayout> parseArenaLayout(const std::string &Name);

/// Last-level cache capacity in bytes: the largest unified cache under
/// /sys/devices/system/cpu/cpu0/cache/, or \p Fallback when sysfs is
/// unavailable (containers, non-Linux). Never zero.
uint64_t detectLlcBytes(uint64_t Fallback = 32ull << 20);

/// The engine's `--arena-layout auto` *cold-start prior* for \p Tier
/// with work tiles of \p EngineTilePixels:
///  - Batched wants TileBlocked with PackCold: unit-stride lane loops and
///    a hot stride below the pixel stride.
///  - Switch/Threaded want PixelMajor: per-pixel execution already walks
///    one stride at a time, and identity keeps views map-free.
/// Where reader frames can actually be timed, prefer the measured policy
/// (arenaLayoutCandidates + pickArenaLayout) over this prior — layout
/// wins are memory-hierarchy effects that a static rule cannot rank.
ArenaLayoutConfig chooseArenaLayout(ExecTier Tier, unsigned EngineTilePixels);

/// The candidate set the measured `auto` policy sweeps: pixel-major plus
/// the packed slot-major/tile-blocked arrangements. Every tier accepts
/// every layout, so the set is the same for each \p Tier.
std::vector<ArenaLayoutConfig> arenaLayoutCandidates(ExecTier Tier,
                                                     unsigned EngineTilePixels);

/// Measured `auto`: calls \p Measure (reader seconds per frame — lower
/// is better) on every candidate and returns the winner. Ties and
/// wins within 2% break toward the earliest candidate, so pixel-major
/// (list it first) keeps identity addressing unless a layout actually
/// pays for its map.
ArenaLayoutConfig
pickArenaLayout(const std::vector<ArenaLayoutConfig> &Candidates,
                const std::function<double(const ArenaLayoutConfig &)> &Measure);

} // namespace dspec

#endif // DATASPEC_ENGINE_ARENALAYOUT_H
