//===- tests/TestSpeculation.cpp - Section 7.1 speculation tests --------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the AllowSpeculation option (the Section 7.1 "speculation in
/// the loader" extension): with Rule 3 weakened, independent terms under
/// dependent guards may be cached, provided the loader can hoist their
/// evaluation before the guarded region. Equivalence must hold both when
/// the load-time guard value matches the read-time value and when it does
/// not (the case strict Rule 3 exists to protect).
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "engine/CacheArena.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

using namespace dspec;

namespace {

const char *GuardedSource = R"(
float f(float a, float b, float v) {
  float r = 1.0;
  if (v > 0.0) {
    r = pow(a, b) + sqrt(a);
  }
  return r;
})";

TEST(Speculation, StrictModeCachesNothingUnderDependentGuard) {
  auto Unit = parseUnit(GuardedSource);
  auto Spec = specializeAndCompile(*Unit, "f", {"v"});
  ASSERT_TRUE(Spec.has_value());
  EXPECT_EQ(Spec->Spec.Layout.slotCount(), 0u);
}

TEST(Speculation, SpeculativeModeCachesAndHoists) {
  auto Unit = parseUnit(GuardedSource);
  SpecializerOptions Options;
  Options.AllowSpeculation = true;
  auto Spec = specializeAndCompile(*Unit, "f", {"v"}, Options);
  ASSERT_TRUE(Spec.has_value());
  EXPECT_GE(Spec->Spec.Layout.slotCount(), 1u);
  // The loader evaluates the store before the dependent guard so the
  // cache is valid regardless of the load-time value of v.
  std::string Loader = Spec->loaderSource();
  size_t StorePos = Loader.find("cache->slot0 = ");
  size_t GuardPos = Loader.find("if (v > 0.0)");
  ASSERT_NE(StorePos, std::string::npos) << Loader;
  ASSERT_NE(GuardPos, std::string::npos) << Loader;
  EXPECT_LT(StorePos, GuardPos) << Loader;
  // The reader reads the slot instead of recomputing pow.
  EXPECT_EQ(Spec->readerSource().find("pow"), std::string::npos)
      << Spec->readerSource();
}

TEST(Speculation, EquivalentEvenWhenGuardFlips) {
  // Load with v <= 0 (the loader's guard skips the branch), then read with
  // v > 0 (the reader needs the branch): only the hoisted store makes this
  // correct.
  auto Unit = parseUnit(GuardedSource);
  SpecializerOptions Options;
  Options.AllowSpeculation = true;
  auto Spec = specializeAndCompile(*Unit, "f", {"v"}, Options);
  ASSERT_TRUE(Spec.has_value());

  VM Machine;
  CacheArena Slots(1, Spec->Spec.Layout);
  auto Args = [](float V) {
    return std::vector<Value>{Value::makeFloat(2.0f), Value::makeFloat(3.0f),
                              Value::makeFloat(V)};
  };
  auto Load = Machine.run(Spec->LoaderChunk, Args(-1.0f), Slots.view(0));
  ASSERT_TRUE(Load.ok()) << Load.TrapMessage;
  for (float V : {-2.0f, 0.5f, 4.0f}) {
    auto Read = Machine.run(Spec->ReaderChunk, Args(V), Slots.view(0));
    auto Orig = Machine.run(Spec->OriginalChunk, Args(V));
    ASSERT_TRUE(Read.ok()) << Read.TrapMessage;
    EXPECT_TRUE(Read.Result.equals(Orig.Result))
        << "v=" << V << ": " << Read.Result.str() << " vs "
        << Orig.Result.str();
  }
}

TEST(Speculation, UnhoistableTermsStayDynamic) {
  // The candidate references t, defined *inside* the dependent region, so
  // it cannot be hoisted and must remain dynamic even with speculation.
  auto Unit = parseUnit(R"(
float f(float a, float v) {
  float r = 0.0;
  if (v > 0.0) {
    float t = a + v;
    r = pow(t, 2.0) + sqrt(a);
  }
  return r;
})");
  SpecializerOptions Options;
  Options.AllowSpeculation = true;
  auto Spec = specializeAndCompile(*Unit, "f", {"v"}, Options);
  ASSERT_TRUE(Spec.has_value());
  // pow(t, ...) depends on v anyway; sqrt(a) is hoistable and cacheable.
  std::string Reader = Spec->readerSource();
  EXPECT_NE(Reader.find("pow"), std::string::npos) << Reader;
  EXPECT_EQ(Reader.find("sqrt"), std::string::npos) << Reader;

  VM Machine;
  CacheArena Slots(1, Spec->Spec.Layout);
  std::vector<Value> LoadArgs = {Value::makeFloat(2.0f),
                                 Value::makeFloat(-1.0f)};
  ASSERT_TRUE(Machine.run(Spec->LoaderChunk, LoadArgs, Slots.view(0)).ok());
  for (float V : {-1.0f, 1.0f, 3.0f}) {
    std::vector<Value> Args = {Value::makeFloat(2.0f), Value::makeFloat(V)};
    auto Read = Machine.run(Spec->ReaderChunk, Args, Slots.view(0));
    auto Orig = Machine.run(Spec->OriginalChunk, Args);
    ASSERT_TRUE(Read.ok()) << Read.TrapMessage;
    EXPECT_TRUE(Read.Result.equals(Orig.Result)) << "v=" << V;
  }
}

TEST(Speculation, NestedDependentGuardsHoistToOutermost) {
  auto Unit = parseUnit(R"(
float f(float a, float v) {
  float r = 0.0;
  if (v > 0.0) {
    if (v > 1.0) {
      r = sqrt(a) * pow(a, 3.0);
    }
  }
  return r;
})");
  SpecializerOptions Options;
  Options.AllowSpeculation = true;
  auto Spec = specializeAndCompile(*Unit, "f", {"v"}, Options);
  ASSERT_TRUE(Spec.has_value());
  std::string Loader = Spec->loaderSource();
  size_t StorePos = Loader.find("cache->slot0");
  size_t OuterGuard = Loader.find("if (v > 0.0)");
  ASSERT_NE(StorePos, std::string::npos) << Loader;
  EXPECT_LT(StorePos, OuterGuard) << Loader;

  VM Machine;
  CacheArena Slots(1, Spec->Spec.Layout);
  std::vector<Value> LoadArgs = {Value::makeFloat(4.0f),
                                 Value::makeFloat(0.0f)};
  ASSERT_TRUE(Machine.run(Spec->LoaderChunk, LoadArgs, Slots.view(0)).ok());
  std::vector<Value> ReadArgs = {Value::makeFloat(4.0f),
                                 Value::makeFloat(2.0f)};
  auto Read = Machine.run(Spec->ReaderChunk, ReadArgs, Slots.view(0));
  auto Orig = Machine.run(Spec->OriginalChunk, ReadArgs);
  ASSERT_TRUE(Read.ok()) << Read.TrapMessage;
  EXPECT_TRUE(Read.Result.equals(Orig.Result));
}

TEST(Speculation, IndependentGuardsUnaffected) {
  // Speculation only changes behavior under *dependent* guards.
  auto Unit = parseUnit(R"(
float f(float a, float p, float v) {
  float r = 0.0;
  if (p > 0.0) {
    r = pow(a, 2.0);
  }
  return r * v;
})");
  SpecializerOptions Strict;
  SpecializerOptions Loose;
  Loose.AllowSpeculation = true;
  auto UnitB = parseUnit(R"(
float f(float a, float p, float v) {
  float r = 0.0;
  if (p > 0.0) {
    r = pow(a, 2.0);
  }
  return r * v;
})");
  auto SpecStrict = specializeAndCompile(*Unit, "f", {"v"}, Strict);
  auto SpecLoose = specializeAndCompile(*UnitB, "f", {"v"}, Loose);
  ASSERT_TRUE(SpecStrict.has_value());
  ASSERT_TRUE(SpecLoose.has_value());
  EXPECT_EQ(SpecStrict->Spec.Layout.slotCount(),
            SpecLoose->Spec.Layout.slotCount());
}

TEST(Speculation, SpecializerStampsColdSlots) {
  // The invariant term under the dynamic conditional is speculatively
  // cached and read on only some pixels, so the specializer stamps it
  // with a sub-unit reuse weight: a cold slot.
  auto Unit = parseUnit(R"(
vec3 coldshader(vec2 uv, vec3 P, vec3 N, vec3 I,
                float freq, float gain, float v) {
  float base = v * (uv.x + uv.y);
  float extra = 0.0;
  if (v > 0.5) {
    extra = pow(freq, gain) * sin(freq * uv.x) + cos(gain * uv.y);
  }
  return clamp(vec3(base + extra, base * 0.5, extra), 0.0, 1.0);
})");
  ASSERT_TRUE(Unit->ok()) << Unit->Diags.str();
  SpecializerOptions Options;
  Options.AllowSpeculation = true;
  auto Spec = specializeAndCompile(*Unit, "coldshader", {"v"}, Options);
  ASSERT_TRUE(Spec.has_value());

  const CacheLayout &Layout = Spec->Spec.Layout;
  unsigned ColdSlots = 0;
  for (const CacheSlot &Slot : Layout.slots()) {
    EXPECT_GE(Slot.ReuseWeight, 0.0f) << "slot " << Slot.Index;
    if (Slot.isCold())
      ++ColdSlots;
  }
  EXPECT_GT(ColdSlots, 0u);
  EXPECT_LT(Layout.hotBytes(), Layout.totalBytes());
}

} // namespace
