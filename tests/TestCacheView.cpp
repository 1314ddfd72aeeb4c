//===- tests/TestCacheView.cpp - Packed cache view tests ---------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The packed cache contract: typed load/store round-trips for every
/// TypeKind at CacheLayout-computed offsets, inBounds edge cases, and
/// the VM's trap paths for cache accesses outside the layout — the
/// checks that make executing a deserialized (snapshot) chunk safe.
///
//===----------------------------------------------------------------------===//

#include "specialize/CacheLayout.h"
#include "vm/CacheView.h"
#include "vm/VM.h"

#include "gtest/gtest.h"

#include <cstring>
#include <limits>

using namespace dspec;

namespace {

bool bitIdentical(const Value &A, const Value &B) {
  return A.Kind == B.Kind && A.I == B.I &&
         std::memcmp(A.F, B.F, sizeof(A.F)) == 0;
}

TEST(CacheView, RoundTripsEveryKind) {
  // One slot of every storable kind, densely packed in layout order.
  const std::vector<Value> Samples = {
      Value::makeBool(true),
      Value::makeInt(-123456789),
      Value::makeFloat(3.25f),
      Value::makeVec2(1.5f, -2.5f),
      Value::makeVec3(0.125f, -0.25f, 1e9f),
      Value::makeVec4(-1.0f, 0.0f, 7.75f, -1e-9f),
  };
  CacheLayout Layout;
  for (const Value &V : Samples)
    Layout.addSlot(Type(V.Kind));
  EXPECT_EQ(Layout.totalBytes(), 4u + 4 + 4 + 8 + 12 + 16);

  std::vector<unsigned char> Buffer(Layout.totalBytes(), 0);
  CacheView View(Buffer.data(), static_cast<unsigned>(Buffer.size()));
  ASSERT_TRUE(View.valid());

  for (size_t I = 0; I < Samples.size(); ++I) {
    const CacheSlot &Slot = Layout.slot(static_cast<unsigned>(I));
    ASSERT_TRUE(View.inBounds(Slot.Offset, Slot.SlotType.kind()));
    View.store(Slot.Offset, Samples[I]);
  }
  // Read everything back only after all writes: a round-trip also
  // proves neighbouring slots were not clobbered.
  for (size_t I = 0; I < Samples.size(); ++I) {
    const CacheSlot &Slot = Layout.slot(static_cast<unsigned>(I));
    Value Loaded = View.load(Slot.Offset, Slot.SlotType.kind());
    if (Samples[I].Kind == TypeKind::TK_Bool ||
        Samples[I].Kind == TypeKind::TK_Int)
      EXPECT_EQ(Loaded.I, Samples[I].I) << "slot " << I;
    else
      EXPECT_EQ(std::memcmp(Loaded.F, Samples[I].F, sizeof(Loaded.F[0]) *
                                                        4),
                0)
          << "slot " << I;
    EXPECT_EQ(Loaded.Kind, Samples[I].Kind);
  }
}

TEST(CacheView, FloatBitsSurviveExactly) {
  // NaNs, infinities, and signed zero must round-trip bit-for-bit: the
  // snapshot's determinism guarantee rests on it.
  const float Specials[] = {0.0f, -0.0f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min()};
  unsigned char Buffer[4];
  CacheView View(Buffer, sizeof(Buffer));
  for (float F : Specials) {
    View.store(0, Value::makeFloat(F));
    Value Loaded = View.load(0, TypeKind::TK_Float);
    uint32_t Want, Got;
    std::memcpy(&Want, &F, 4);
    std::memcpy(&Got, &Loaded.F[0], 4);
    EXPECT_EQ(Got, Want);
  }
}

TEST(CacheView, InBoundsEdges) {
  unsigned char Buffer[12] = {};
  CacheView View(Buffer, sizeof(Buffer));
  // Exact fits at the end of the buffer.
  EXPECT_TRUE(View.inBounds(8, TypeKind::TK_Float));
  EXPECT_TRUE(View.inBounds(0, TypeKind::TK_Vec3));
  EXPECT_TRUE(View.inBounds(4, TypeKind::TK_Vec2));
  // One byte past.
  EXPECT_FALSE(View.inBounds(9, TypeKind::TK_Float));
  EXPECT_FALSE(View.inBounds(1, TypeKind::TK_Vec3));
  EXPECT_FALSE(View.inBounds(0, TypeKind::TK_Vec4));
  EXPECT_FALSE(View.inBounds(12, TypeKind::TK_Float));
  // Void has no width and is never a valid slot.
  EXPECT_FALSE(View.inBounds(0, TypeKind::TK_Void));

  CacheView Empty(static_cast<unsigned char *>(nullptr), 0);
  EXPECT_TRUE(Empty.valid());
  EXPECT_FALSE(Empty.inBounds(0, TypeKind::TK_Float));
  EXPECT_FALSE(CacheView().inBounds(0, TypeKind::TK_Bool));
}

//===----------------------------------------------------------------------===//
// VM trap paths for out-of-layout cache accesses
//===----------------------------------------------------------------------===//

/// A chunk that stores constant #0 to (offset, kind), loads it back, and
/// returns it.
Chunk storeLoadChunk(Value Constant, unsigned Offset, TypeKind Kind,
                     unsigned CacheBytes) {
  Chunk C;
  C.Name = "cachetest";
  C.Constants.push_back(Constant);
  C.Code.push_back({OpCode::OC_Const, 0, 0, 0});
  C.Code.push_back({OpCode::OC_CacheStore, 0, static_cast<int32_t>(Offset),
                    static_cast<int32_t>(Kind)});
  C.Code.push_back({OpCode::OC_Pop, 0, 0, 0});
  C.Code.push_back({OpCode::OC_CacheLoad, 0, static_cast<int32_t>(Offset),
                    static_cast<int32_t>(Kind)});
  C.Code.push_back({OpCode::OC_Return, 0, 0, 0});
  C.ReturnType = Type(Kind);
  C.CacheSlotCount = 1;
  C.CacheBytes = CacheBytes;
  return C;
}

TEST(CacheViewVM, PackedStoreLoadRoundTrip) {
  Chunk C = storeLoadChunk(Value::makeVec3(1, -2, 3), 4, TypeKind::TK_Vec3,
                           16);
  unsigned char Buffer[16] = {};
  VM Machine;
  auto R = Machine.run(C, {}, CacheView(Buffer, sizeof(Buffer)));
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_TRUE(bitIdentical(R.Result, Value::makeVec3(1, -2, 3)));
}

TEST(CacheViewVM, StorePastTheViewTraps) {
  // The chunk claims 16 cache bytes but the caller's view is smaller:
  // every access must be bounds-checked against the *view*, not trusted
  // metadata — exactly the situation a hostile snapshot could set up.
  Chunk C = storeLoadChunk(Value::makeVec3(1, 2, 3), 8, TypeKind::TK_Vec3,
                           16);
  unsigned char Buffer[12] = {};
  VM Machine;
  auto R = Machine.run(C, {}, CacheView(Buffer, sizeof(Buffer)));
  ASSERT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapMessage.find("cache store past the layout"),
            std::string::npos)
      << R.TrapMessage;

  // A view with no bytes at all: the missing cache is reported first, in
  // the batched tier's words.
  R = Machine.run(C, {}, CacheView());
  ASSERT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapMessage.find("cache write without cache storage"),
            std::string::npos)
      << R.TrapMessage;
}

TEST(CacheViewVM, LoadPastTheViewTraps) {
  Chunk C;
  C.Name = "oobload";
  C.Code.push_back({OpCode::OC_CacheLoad, 0, 8,
                    static_cast<int32_t>(TypeKind::TK_Vec2)});
  C.Code.push_back({OpCode::OC_Return, 0, 0, 0});
  C.ReturnType = Type(TypeKind::TK_Vec2);
  C.CacheSlotCount = 1;
  C.CacheBytes = 16;
  unsigned char Buffer[12] = {};
  VM Machine;
  auto R = Machine.run(C, {}, CacheView(Buffer, sizeof(Buffer)));
  ASSERT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapMessage.find("cache read past the layout"),
            std::string::npos)
      << R.TrapMessage;

  R = Machine.run(C, {}, CacheView());
  ASSERT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapMessage.find("cache read without a loaded cache"),
            std::string::npos)
      << R.TrapMessage;
}

TEST(CacheViewVM, StoreKindMismatchTraps) {
  // Slot says vec3, the stored value is a float: the packed path must
  // refuse rather than write a partial slot.
  Chunk C = storeLoadChunk(Value::makeFloat(1.0f), 0, TypeKind::TK_Vec3, 12);
  unsigned char Buffer[12] = {};
  VM Machine;
  auto R = Machine.run(C, {}, CacheView(Buffer, sizeof(Buffer)));
  ASSERT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapMessage.find("type mismatch"), std::string::npos)
      << R.TrapMessage;
}

} // namespace
