//===- engine/CacheArena.h - Packed per-pixel cache storage -----*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One contiguous, cacheline-aligned allocation holding every pixel's
/// packed specialization cache for a full render grid: pixelCount x
/// CacheLayout::totalBytes() bytes, pixel-major. Pixel P's cache is the
/// stride at raw() + P * strideBytes(), with its typed slots at the
/// CacheLayout's offsets — what bytecode cache instructions address and
/// what a snapshot's ARENA section stores verbatim.
///
/// The arena copies the layout it was built from, so views and decoding
/// stay valid regardless of where the owning specialization moves.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_ENGINE_CACHEARENA_H
#define DATASPEC_ENGINE_CACHEARENA_H

#include "specialize/CacheLayout.h"
#include "support/AlignedBuffer.h"
#include "vm/CacheView.h"

#include <cstdint>
#include <vector>

namespace dspec {

/// Packed cache storage for a whole pixel grid.
class CacheArena {
public:
  CacheArena() = default;

  CacheArena(unsigned PixelCount, const CacheLayout &CacheShape) {
    reset(PixelCount, CacheShape);
  }

  /// (Re)shapes the arena: one stride of CacheShape.totalBytes() per
  /// pixel, zero-initialized.
  void reset(unsigned PixelCount, const CacheLayout &CacheShape);

  /// Reshapes the arena around \p Bytes without a copy — the snapshot
  /// and spill warm-start path. \p Bytes must hold exactly PixelCount x
  /// CacheShape.totalBytes(); returns false (leaving the arena empty)
  /// otherwise.
  bool restore(unsigned PixelCount, const CacheLayout &CacheShape,
               ArenaBuffer &&Bytes);

  unsigned pixelCount() const { return Pixels; }
  /// Bytes per pixel.
  unsigned strideBytes() const { return Stride; }
  /// Bytes total: pixelCount x strideBytes.
  size_t totalBytes() const {
    return static_cast<size_t>(Pixels) * Stride;
  }
  const CacheLayout &layout() const { return Shape; }

  /// The buffer: lane L of a tile starting at pixel P accesses
  /// raw() + (P + L) * strideBytes().
  const unsigned char *raw() const { return Storage.data(); }
  unsigned char *raw() { return Storage.data(); }

  /// The packed cache of one pixel. The const overload yields a
  /// read-only view: loads work, stores trap in every execution tier —
  /// loader-less passes cannot silently write.
  CacheView view(unsigned Pixel) {
    return CacheView(Storage.data() + static_cast<size_t>(Pixel) * Stride,
                     Stride);
  }
  CacheView view(unsigned Pixel) const {
    return CacheView(Storage.data() + static_cast<size_t>(Pixel) * Stride,
                     Stride);
  }

  /// A copy of the buffer (what snapshots and spill files persist).
  ArenaBuffer canonicalBytes() const { return Storage; }

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
  ArenaBuffer Storage;
  CacheLayout Shape;
  unsigned Pixels = 0;
  unsigned Stride = 0;
};

} // namespace dspec

#endif // DATASPEC_ENGINE_CACHEARENA_H
