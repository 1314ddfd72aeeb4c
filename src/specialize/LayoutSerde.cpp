//===- specialize/LayoutSerde.cpp - CacheLayout binary serde -----------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "specialize/LayoutSerde.h"

#include <cmath>

using namespace dspec;

void dspec::serializeLayout(ByteWriter &Writer, const CacheLayout &Layout) {
  Writer.writeU32(Layout.slotCount());
  for (const CacheSlot &Slot : Layout.slots()) {
    Writer.writeU8(static_cast<uint8_t>(Slot.SlotType.kind()));
    Writer.writeU32(Slot.Offset);
  }
  Writer.writeU32(Layout.totalBytes());

  // Version 2 tail: per-slot reuse weights behind a presence flag. The
  // flag (rather than "if bytes remain") keeps the encoding usable
  // mid-stream, with other payloads after it.
  bool HasWeights = false;
  for (const CacheSlot &Slot : Layout.slots())
    if (Slot.ReuseWeight >= 0.0f) {
      HasWeights = true;
      break;
    }
  Writer.writeU8(HasWeights ? 1 : 0);
  if (HasWeights)
    for (const CacheSlot &Slot : Layout.slots())
      Writer.writeF32(Slot.ReuseWeight);
}

bool dspec::deserializeLayout(ByteReader &Reader, CacheLayout &Out,
                              std::string &Error, uint32_t Version) {
  Out = CacheLayout();
  uint32_t SlotCount = Reader.readU32();
  // Each slot costs 5 encoded bytes; a count past the remaining data is
  // corrupt, and this also bounds the rebuild loop.
  if (Reader.ok() &&
      static_cast<uint64_t>(SlotCount) * 5 > Reader.remaining())
    Reader.fail("slot count " + std::to_string(SlotCount) +
                " exceeds the remaining data");

  for (uint32_t I = 0; I < SlotCount && Reader.ok(); ++I) {
    uint8_t RawKind = Reader.readU8();
    uint32_t StoredOffset = Reader.readU32();
    if (!Reader.ok())
      break;
    if (RawKind == static_cast<uint8_t>(TypeKind::TK_Void) ||
        RawKind > static_cast<uint8_t>(TypeKind::TK_Vec4)) {
      Reader.fail("slot " + std::to_string(I) + " has invalid type tag " +
                  std::to_string(RawKind));
      break;
    }
    Type SlotType(static_cast<TypeKind>(RawKind));
    unsigned Index = Out.addSlot(SlotType);
    if (Out.slot(Index).Offset != StoredOffset) {
      Reader.fail("slot " + std::to_string(I) + " offset " +
                  std::to_string(StoredOffset) +
                  " does not match the packing rule (expected " +
                  std::to_string(Out.slot(Index).Offset) + ")");
      break;
    }
  }

  uint32_t StoredTotal = Reader.readU32();
  if (Reader.ok() && StoredTotal != Out.totalBytes())
    Reader.fail("layout total " + std::to_string(StoredTotal) +
                " does not match the slots (expected " +
                std::to_string(Out.totalBytes()) + ")");

  if (Version >= 2 && Reader.ok()) {
    uint8_t HasWeights = Reader.readU8();
    if (Reader.ok() && HasWeights > 1)
      Reader.fail("invalid reuse-weight presence flag " +
                  std::to_string(HasWeights));
    if (Reader.ok() && HasWeights == 1) {
      for (uint32_t I = 0; I < SlotCount && Reader.ok(); ++I) {
        float Weight = Reader.readF32();
        if (!Reader.ok())
          break;
        if (!std::isfinite(Weight)) {
          Reader.fail("slot " + std::to_string(I) +
                      " has a non-finite reuse weight");
          break;
        }
        // Negative encodes "unknown" — the slot stays hot by default.
        if (Weight >= 0.0f)
          Out.setReuseWeight(I, Weight);
      }
    }
  }

  if (!Reader.ok()) {
    Error = "malformed cache layout: " + Reader.error();
    return false;
  }
  return true;
}
