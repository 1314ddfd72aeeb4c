//===- vm/CacheView.h - Packed cache buffer view ----------------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A non-owning view over one specialization instance's packed cache: a
/// raw byte buffer whose typed slots live at the byte offsets computed by
/// the specializer's CacheLayout. This is the runtime realization of the
/// paper's Figure 8 byte counts — a float slot really is 4 bytes, a vec3
/// slot 12 — instead of an array of tagged boxes. Cache instructions
/// carry (offset, type), so loads and stores are single bounds-checked
/// memcpys with no tag dispatch on the hot path.
///
/// A view built from a const buffer (the reader-pass path) is read-only:
/// it has no store pointer, and every execution tier traps a cache store
/// against it instead of silently writing through a loader-less pass.
/// readOnly() is the tiers' test.
///
/// Views are cheap value objects. The bytes they point at are typically
/// one pixel's stride inside a CacheArena (see engine/CacheArena.h), but
/// any buffer of at least the layout's totalBytes() works.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_VM_CACHEVIEW_H
#define DATASPEC_VM_CACHEVIEW_H

#include "vm/Value.h"

#include <cstdint>
#include <cstring>

namespace dspec {

/// A typed window onto one packed cache instance.
class CacheView {
public:
  CacheView() = default;
  /// Writable view (loader path / plain buffers).
  CacheView(unsigned char *Data, unsigned SizeBytes)
      : Bytes(Data), Mut(Data), Size(SizeBytes) {}
  /// Read-only view: loads succeed, stores have no target — the
  /// interpreters trap them via readOnly(). This is the constructor
  /// CacheArena's const accessor uses instead of a const_cast.
  CacheView(const unsigned char *Data, unsigned SizeBytes)
      : Bytes(Data), Size(SizeBytes) {}

  bool valid() const { return Bytes != nullptr || Size == 0; }
  /// True when stores must trap: the view was built over const bytes.
  bool readOnly() const { return Mut == nullptr && Bytes != nullptr; }
  unsigned sizeInBytes() const { return Size; }
  const unsigned char *data() const { return Bytes; }
  /// Store-side base pointer; null on read-only views.
  unsigned char *mutableData() const { return Mut; }

  /// True iff a slot of \p Kind at byte \p Offset lies inside the buffer.
  bool inBounds(unsigned Offset, TypeKind Kind) const {
    unsigned Width = Type(Kind).sizeInBytes();
    return Offset + Width <= Size && Width != 0;
  }

  /// Builds a Value of \p Kind from the raw slot bytes at \p Slot.
  /// Exactly CacheView::load with the addressing hoisted out — the
  /// batched interpreter's strided row loops use it directly.
  static Value loadRaw(const unsigned char *Slot, TypeKind Kind) {
    Value Out;
    Out.Kind = Kind;
    switch (Kind) {
    case TypeKind::TK_Bool:
    case TypeKind::TK_Int:
      std::memcpy(&Out.I, Slot, sizeof(int32_t));
      break;
    case TypeKind::TK_Float:
      std::memcpy(&Out.F[0], Slot, sizeof(float));
      break;
    case TypeKind::TK_Vec2:
      std::memcpy(Out.F, Slot, 2 * sizeof(float));
      break;
    case TypeKind::TK_Vec3:
      std::memcpy(Out.F, Slot, 3 * sizeof(float));
      break;
    case TypeKind::TK_Vec4:
      std::memcpy(Out.F, Slot, 4 * sizeof(float));
      break;
    case TypeKind::TK_Void:
      break;
    }
    return Out;
  }

  /// Writes \p V's payload bytes to \p Slot (the store-side counterpart
  /// of loadRaw).
  static void storeRaw(unsigned char *Slot, const Value &V) {
    switch (V.Kind) {
    case TypeKind::TK_Bool:
    case TypeKind::TK_Int:
      std::memcpy(Slot, &V.I, sizeof(int32_t));
      break;
    case TypeKind::TK_Float:
      std::memcpy(Slot, &V.F[0], sizeof(float));
      break;
    case TypeKind::TK_Vec2:
      std::memcpy(Slot, V.F, 2 * sizeof(float));
      break;
    case TypeKind::TK_Vec3:
      std::memcpy(Slot, V.F, 3 * sizeof(float));
      break;
    case TypeKind::TK_Vec4:
      std::memcpy(Slot, V.F, 4 * sizeof(float));
      break;
    case TypeKind::TK_Void:
      break;
    }
  }

  /// Reads the slot of \p Kind at byte \p Offset. The caller must have
  /// bounds-checked via inBounds.
  Value load(unsigned Offset, TypeKind Kind) const {
    return loadRaw(Bytes + Offset, Kind);
  }

  /// Writes \p V into the slot at byte \p Offset. \p V's runtime kind
  /// selects the byte width; the caller must have bounds-checked via
  /// inBounds, verified the kind matches the layout's slot type, and
  /// rejected read-only views (readOnly()) with its tier's trap.
  void store(unsigned Offset, const Value &V) {
    if (!Mut)
      return; // defense in depth: the tiers trap before reaching here
    storeRaw(Mut + Offset, V);
  }

private:
  const unsigned char *Bytes = nullptr; ///< load base
  unsigned char *Mut = nullptr;         ///< store base; null = read-only
  unsigned Size = 0;                    ///< stride in bytes
};

} // namespace dspec

#endif // DATASPEC_VM_CACHEVIEW_H
