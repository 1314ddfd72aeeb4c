//===- specialize/CacheLayout.h - Cache slot layout -------------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The layout of one specialization's cache: an ordered list of typed
/// slots with byte offsets. The byte total is the paper's Figure 8
/// metric ("single-pixel cache sizes"). All dsc types are 4-byte aligned,
/// so slots pack densely.
///
/// Offsets are sequential dense packing in slot order: exactly what
/// bytecode cache instructions address, and each pixel's stride in a
/// CacheArena and in a snapshot's ARENA section.
///
/// Each slot also carries a reuse weight stamped by the specializer from
/// the Section 4.3 cost model: the structural execution weight
/// (LoopMultiplier^loopDepth / CondDivisor^condDepth) of the cached
/// term. Weight >= 1 means the reader touches the slot at least once per
/// pixel (hot); weight < 1 means it sits under a conditional and is
/// touched on some pixels only (cold). The measured-bytes limiter
/// charges hot slots only, and --explain reports the census. A negative
/// weight means "unknown, assume hot" (layouts built by hand or loaded
/// from a version-1 snapshot).
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_SPECIALIZE_CACHELAYOUT_H
#define DATASPEC_SPECIALIZE_CACHELAYOUT_H

#include "lang/Type.h"

#include <vector>

namespace dspec {

/// One cache slot.
struct CacheSlot {
  unsigned Index;
  Type SlotType;
  unsigned Offset;
  /// Structural reuse weight of the cached term (see file comment).
  /// Negative = unknown (treated as hot).
  float ReuseWeight = -1.0f;

  /// Cold = provably executed less than once per reader invocation.
  bool isCold() const { return ReuseWeight >= 0.0f && ReuseWeight < 1.0f; }
};

/// Ordered slot list for one specialization.
class CacheLayout {
public:
  /// Appends a slot of type \p T; returns its index.
  unsigned addSlot(Type T) {
    unsigned Index = static_cast<unsigned>(Slots.size());
    Slots.push_back({Index, T, NextOffset, -1.0f});
    NextOffset += T.sizeInBytes();
    return Index;
  }

  const std::vector<CacheSlot> &slots() const { return Slots; }
  unsigned slotCount() const { return static_cast<unsigned>(Slots.size()); }

  /// Slot descriptor by index.
  const CacheSlot &slot(unsigned Index) const { return Slots[Index]; }

  /// Stamps slot \p Index's reuse weight (DataSpecializer, LayoutSerde).
  void setReuseWeight(unsigned Index, float Weight) {
    Slots[Index].ReuseWeight = Weight;
  }

  /// Total cache bytes per specialization instance.
  unsigned totalBytes() const { return NextOffset; }

  /// Bytes per pixel the hot (unconditionally touched) slots occupy —
  /// what the Section 4.3 measured-bytes limiter charges against the
  /// LLC. Unknown-weight slots count as hot.
  unsigned hotBytes() const {
    unsigned Bytes = 0;
    for (const CacheSlot &S : Slots)
      if (!S.isCold())
        Bytes += S.SlotType.sizeInBytes();
    return Bytes;
  }

private:
  std::vector<CacheSlot> Slots;
  unsigned NextOffset = 0;
};

} // namespace dspec

#endif // DATASPEC_SPECIALIZE_CACHELAYOUT_H
