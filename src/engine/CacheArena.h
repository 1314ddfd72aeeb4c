//===- engine/CacheArena.h - Packed per-pixel cache storage -----*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One contiguous, cacheline-aligned allocation holding every pixel's
/// packed specialization cache for a full render grid. Logically the
/// arena is always pixelCount x CacheLayout::totalBytes() canonical
/// bytes — what bytecode offsets address and what a snapshot's ARENA
/// section stores verbatim — but the *physical* arrangement follows an
/// ArenaLayoutConfig (engine/ArenaLayout.h):
///
///   PixelMajor          pixel strides back to back (identity: physical
///                       == canonical, views carry no map, zero
///                       overhead against the seed);
///   SlotMajor           one pixels-length column per slot (unit-stride
///                       batched lane loops);
///   TileBlocked         slot columns within fixed-size pixel blocks;
///   (+ PackCold)        within each block, slots whose ReuseWeight
///                       marks them cold move behind the hot columns,
///                       shrinking the stride streaming readers pay.
///
/// Non-identity layouts are described by a per-4-byte-word affine map
/// (ArenaSlotAddr): canonical word w of the pixel at (block B, lane L)
/// lives at Base(w) + B*Block(w) + L*LaneW(w). CacheView resolves the
/// map on scalar paths; the batched interpreter resolves one entry per
/// slot access and walks the column with unit stride.
///
/// The arena copies the layout it was built from, so views and decoding
/// stay valid regardless of where the owning specialization moves.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_ENGINE_CACHEARENA_H
#define DATASPEC_ENGINE_CACHEARENA_H

#include "engine/ArenaLayout.h"
#include "specialize/CacheLayout.h"
#include "support/AlignedBuffer.h"
#include "vm/CacheView.h"

#include <vector>

namespace dspec {

/// Packed cache storage for a whole pixel grid.
class CacheArena {
public:
  /// Tail slack past the last mapped block so a hostile wide load at the
  /// end of the last column stays inside the allocation (mapped layouts
  /// only; dense bounds checks need none).
  static constexpr size_t kTailSlackBytes = 64;

  CacheArena() = default;

  CacheArena(unsigned PixelCount, const CacheLayout &CacheShape,
             const ArenaLayoutConfig &Cfg = ArenaLayoutConfig()) {
    reset(PixelCount, CacheShape, Cfg);
  }

  /// (Re)shapes the arena: one canonical stride of CacheShape.totalBytes()
  /// per pixel, zero-initialized, physically arranged per \p Cfg.
  void reset(unsigned PixelCount, const CacheLayout &CacheShape,
             const ArenaLayoutConfig &Cfg = ArenaLayoutConfig());

  /// Reshapes the arena and fills it from canonical pixel-major \p Bytes
  /// — the snapshot warm-start path (re-blocking into \p Cfg's physical
  /// arrangement as it copies). \p Size must be exactly PixelCount x
  /// CacheShape.totalBytes(); returns false (leaving the arena empty)
  /// otherwise.
  bool restore(unsigned PixelCount, const CacheLayout &CacheShape,
               const unsigned char *Bytes, size_t Size,
               const ArenaLayoutConfig &Cfg = ArenaLayoutConfig());

  /// Move-restore: adopts \p Bytes without a copy when \p Cfg is the
  /// identity layout (the common warm-start case), re-blocks otherwise.
  bool restore(unsigned PixelCount, const CacheLayout &CacheShape,
               ArenaBuffer &&Bytes,
               const ArenaLayoutConfig &Cfg = ArenaLayoutConfig());

  unsigned pixelCount() const { return Pixels; }
  /// Canonical (logical) bytes per pixel.
  unsigned strideBytes() const { return Stride; }
  /// Canonical bytes total: pixelCount x strideBytes.
  size_t totalBytes() const {
    return static_cast<size_t>(Pixels) * Stride;
  }
  /// Bytes actually allocated (padding blocks + tail slack included) —
  /// the figure /statsz charges per unit.
  size_t physicalBytes() const { return Storage.size(); }
  const CacheLayout &layout() const { return Shape; }
  const ArenaLayoutConfig &layoutConfig() const { return Config; }

  /// Bytes per pixel a streaming reader touches unconditionally: the
  /// hot-slot stride under PackCold, the full stride otherwise. The
  /// Section 4.3 measured bound is hotStrideBytes() x pixelCount().
  unsigned hotStrideBytes() const {
    return Config.PackCold ? Shape.hotBytes() : Stride;
  }

  /// True when views are map-free (physical == canonical), so a pass can
  /// address pixel I at raw() + I * strideBytes().
  bool denseViews() const { return Map.empty(); }
  /// Pixels per physical block (1 for dense/pixel-major arrangements).
  unsigned blockPixels() const { return BlockPx; }
  /// Per-word affine address table, or null when dense.
  const ArenaSlotAddr *map() const {
    return Map.empty() ? nullptr : Map.data();
  }

  /// True when the batched tier's strided row loops can address this
  /// arena with work tiles of \p TilePixels: dense, per-pixel blocks, a
  /// single block covering the grid, or blocks a multiple of the tile
  /// (so no tile straddles a block boundary).
  bool batchCompatible(unsigned TilePixels) const {
    return Map.empty() || BlockPx == 1 || BlockPx >= Pixels ||
           (TilePixels != 0 && BlockPx % TilePixels == 0);
  }

  /// The physical buffer. Dense arenas: canonical pixel-major bytes, and
  /// lane L of a tile starting at pixel P accesses
  /// raw() + (P + L) * strideBytes(). Mapped arenas: address through
  /// map()/view() only.
  const unsigned char *raw() const { return Storage.data(); }
  unsigned char *raw() { return Storage.data(); }

  /// The packed cache of one pixel. The const overload yields a
  /// read-only view: loads work, stores trap in every execution tier —
  /// loader-less passes cannot silently write.
  CacheView view(unsigned Pixel) {
    if (Map.empty())
      return CacheView(Storage.data() + static_cast<size_t>(Pixel) * Stride,
                       Stride);
    return CacheView::mapped(Storage.data(), Stride, Map.data(),
                             Pixel / BlockPx, Pixel % BlockPx);
  }
  CacheView view(unsigned Pixel) const {
    const unsigned char *Base = Storage.data();
    if (Map.empty())
      return CacheView(Base + static_cast<size_t>(Pixel) * Stride, Stride);
    return CacheView::mapped(Base, Stride, Map.data(), Pixel / BlockPx,
                             Pixel % BlockPx);
  }

  /// The canonical pixel-major image of the arena (what snapshots
  /// persist): a straight copy when dense, a gather when mapped.
  ArenaBuffer canonicalBytes() const;

  /// Decodes one pixel's cache into boxed values, slot by slot (test and
  /// debugging aid; the render path never boxes).
  std::vector<Value> decode(unsigned Pixel) const {
    std::vector<Value> Out;
    Out.reserve(Shape.slotCount());
    CacheView View = view(Pixel);
    for (const CacheSlot &Slot : Shape.slots())
      Out.push_back(View.load(Slot.Offset, Slot.SlotType.kind()));
    return Out;
  }

private:
  /// Derives Map/BlockPx from Shape + Config and returns the physical
  /// allocation size. Empty map = identity.
  size_t buildMap();

  ArenaBuffer Storage;
  CacheLayout Shape;
  ArenaLayoutConfig Config;
  std::vector<ArenaSlotAddr> Map;
  unsigned Pixels = 0;
  unsigned Stride = 0;
  unsigned BlockPx = 1;
};

} // namespace dspec

#endif // DATASPEC_ENGINE_CACHEARENA_H
