//===- engine/RenderEngine.h - Batched multi-threaded renderer --*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batched render engine: executes a compiled chunk over every pixel
/// of a RenderGrid in tile-sized work items on a small thread pool, one
/// VM per worker. Three pass kinds mirror the paper's phases:
///
///   loaderPass    runs the cache loader once per fixed-input change,
///                 filling the grid's packed CacheArena (and optionally a
///                 framebuffer — the loader also computes the result);
///   readerPass    runs the cache reader once per parameter edit against
///                 the loaded arena;
///   plainPass     runs the unspecialized original (the baseline).
///
/// Determinism: a pixel's output depends only on its own inputs and its
/// own cache stride, every pixel is computed exactly once, and workers
/// write to disjoint framebuffer/arena regions — so the framebuffer is
/// bit-identical for every thread count and tile size. (Per-VM effects
/// like dsc_trace logs land on whichever worker ran the pixel; the
/// gallery shaders use none.)
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_ENGINE_RENDERENGINE_H
#define DATASPEC_ENGINE_RENDERENGINE_H

#include "engine/CacheArena.h"
#include "engine/ExecTier.h"
#include "engine/RenderContext.h"
#include "engine/ThreadPool.h"
#include "snapshot/Snapshot.h"
#include "vm/VM.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace dspec {

/// Runs chunks over pixel grids. Reusable across shaders and frames; the
/// pool and per-worker VMs are created once.
class RenderEngine {
public:
  /// Number of standard per-pixel parameters every renderable fragment
  /// takes before its controls: (uv, P, N, I) from the PixelInput.
  static constexpr unsigned NumPixelParams = 4;

  /// \p Threads workers (0 = one per hardware thread); pixels are handed
  /// out in tiles of \p TilePixels.
  explicit RenderEngine(unsigned Threads = 1, unsigned TilePixels = 128);

  unsigned threadCount() const { return Pool->workerCount(); }
  unsigned tilePixels() const { return TileSize; }

  /// Selects how passes execute chunks. The default is Batched — the
  /// fast tier — which degrades gracefully: branchy chunks execute
  /// batched under per-lane masks (uniform branches run in lockstep;
  /// divergent maskable diamonds run both arms masked), and everything
  /// else runs per-pixel on the switch interpreter: a tile whose control
  /// flow diverges at an unmaskable branch or traps, and for the whole
  /// pass an effectful chunk, a chunk that fails decoding, or an arena
  /// that is not batch-compatible. Both tiers produce bit-identical
  /// framebuffers (tests/TestExecTiers.cpp pins this over the whole
  /// gallery); the knob exists for A/B measurement (`bench_exec_tier`,
  /// `dspec serve --exec-tier`).
  void setExecTier(ExecTier NewTier) { Tier = NewTier; }
  ExecTier execTier() const { return Tier; }

  /// Physical arena layout loaderPass builds (engine/ArenaLayout.h). The
  /// default is the identity pixel-major arrangement — bit-for-bit the
  /// seed behavior. Readers accept an arena in *any* layout (views carry
  /// the address map); this knob only governs what a loader pass on this
  /// engine produces. `auto` policy: pass chooseArenaLayout(tier,
  /// tilePixels()).
  void setArenaLayout(const ArenaLayoutConfig &Cfg) { ArenaCfg = Cfg; }
  const ArenaLayoutConfig &arenaLayout() const { return ArenaCfg; }

  /// Execution statistics of the last completed pass; the batch figures
  /// cover runBatch attempts only (zero under the switch tier), so the
  /// exec-tier bench can report a divergence column.
  struct PassExecStats {
    uint64_t BatchTiles = 0;  ///< tiles fully retired by runBatch
    uint64_t BailedTiles = 0; ///< tiles that diverged and re-ran per-pixel
    uint64_t BatchDispatchLanes = 0; ///< sum over tiles: dispatches x lanes
    uint64_t BatchActiveLanes = 0;   ///< sum: active-lane instructions
    /// Average active-lane fraction per dispatched batch instruction
    /// (1.0 = no masking ever engaged).
    double activeFraction() const {
      return BatchDispatchLanes
                 ? static_cast<double>(BatchActiveLanes) /
                       static_cast<double>(BatchDispatchLanes)
                 : 1.0;
    }
  };
  const PassExecStats &lastPassStats() const { return LastStats; }

  /// Runs the loader over every pixel, filling \p Arena (which is reshaped
  /// to the grid and the chunk's layout extent if it does not match).
  /// Returns false on any trap; lastTrap() has the message.
  bool loaderPass(const Chunk &Loader, const CacheLayout &Layout,
                  const RenderGrid &Grid, const std::vector<float> &Controls,
                  CacheArena &Arena, Framebuffer *Out = nullptr);

  /// Runs the reader over every pixel against a loaded \p Arena. An
  /// arena of another pixel count, or with a stride shorter than the
  /// reader's cache, fails the pass before any pixel runs; so does an
  /// \p Out of another size than the grid, in every pass.
  bool readerPass(const Chunk &Reader, const RenderGrid &Grid,
                  const std::vector<float> &Controls, const CacheArena &Arena,
                  Framebuffer *Out = nullptr);

  /// Runs an unspecialized fragment over every pixel.
  bool plainPass(const Chunk &Original, const RenderGrid &Grid,
                 const std::vector<float> &Controls,
                 Framebuffer *Out = nullptr);

  /// Trap message of the last failing pass (first trapping pixel in pixel
  /// order, so failures are deterministic too).
  const std::string &lastTrap() const { return LastTrap; }

  //===--------------------------------------------------------------------===//
  // Warm start: persist a loader pass, resume in a fresh process.
  //===--------------------------------------------------------------------===//

  /// One restored property-specialized variant: its own reader (and
  /// loader, for provenance), layout, and loader-filled arena over the
  /// warm start's grid.
  struct WarmVariant {
    VariantKey Key;
    std::string Label;
    Chunk Loader;
    Chunk Reader;
    CacheLayout Layout;
    CacheArena Arena;
  };

  /// Everything fromSnapshot restores: the specialization unit plus the
  /// loader-filled arena, with the grid rebuilt procedurally from the
  /// snapshot's dimensions. readerPass(Warm.Reader, Warm.Grid, Controls,
  /// Warm.Arena) then serves frames without ever running the loader.
  /// Version-2 snapshots additionally populate Variants, all warm.
  struct WarmStart {
    SnapshotMeta Meta;
    Chunk Loader;
    Chunk Reader;
    CacheLayout Layout;
    RenderGrid Grid;
    CacheArena Arena;
    /// Property-specialized variants (empty for version-1 snapshots).
    std::vector<WarmVariant> Variants;

    WarmStart(unsigned Width, unsigned Height) : Grid(Width, Height) {}

    /// Index into Variants of the most specific variant admissible for
    /// \p Controls, or nullopt when only the generic unit applies.
    std::optional<size_t>
    selectVariant(const std::vector<float> &Controls) const;
  };

  /// Writes \p Path: the specialization unit (\p Loader, \p Reader,
  /// \p Layout, provenance in \p Meta) and the loader-filled \p Arena.
  /// Call after a successful loaderPass over a grid whose dimensions are
  /// recorded in \p Meta. Returns false with \p Error set on
  /// inconsistent state or I/O failure.
  static bool saveSnapshot(const std::string &Path, const SnapshotMeta &Meta,
                           const Chunk &Loader, const Chunk &Reader,
                           const CacheLayout &Layout, const CacheArena &Arena,
                           std::string *Error = nullptr);

  /// As above, but also persists a property-specialized variant set (each
  /// with its own loader-filled arena over the same grid). With a
  /// non-empty \p Variants the file is written at format version 2.
  static bool saveSnapshot(const std::string &Path, const SnapshotMeta &Meta,
                           const Chunk &Loader, const Chunk &Reader,
                           const CacheLayout &Layout, const CacheArena &Arena,
                           const std::vector<SnapshotVariant> &Variants,
                           std::string *Error = nullptr);

  /// Validates and loads \p Path (header/version checks, per-section
  /// CRCs, bytecode verification — a truncated or corrupt file yields a
  /// diagnostic, never a crash) and rebuilds the grid and arena. Reader
  /// passes over the result are bit-identical to an in-process
  /// loader+reader run at any thread count.
  static std::optional<WarmStart> fromSnapshot(const std::string &Path,
                                               std::string *Error = nullptr);

private:
  /// Exactly one of \p MutArena / \p ROArena may be non-null: loader
  /// passes get a writable arena, reader passes a read-only one (cache
  /// stores trap in every tier — no const_cast anywhere on the path).
  bool runPass(const Chunk &Code, const RenderGrid &Grid,
               const std::vector<float> &Controls, CacheArena *MutArena,
               const CacheArena *ROArena, Framebuffer *Out);

  // Held by pointer so the engine stays movable (the pool owns mutexes
  // and worker threads, which pin it in place).
  std::unique_ptr<ThreadPool> Pool;
  std::vector<VM> Machines; // one per worker
  unsigned TileSize;
  ExecTier Tier = ExecTier::Batched;
  ArenaLayoutConfig ArenaCfg;
  std::string LastTrap;
  PassExecStats LastStats;
};

} // namespace dspec

#endif // DATASPEC_ENGINE_RENDERENGINE_H
