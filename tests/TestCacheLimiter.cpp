//===- tests/TestCacheLimiter.cpp - Section 4.3 limiter tests -----------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "engine/CacheArena.h"
#include "shading/ShaderLab.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

using namespace dspec;

namespace {

// Each local feeds the varying part separately, so the frontier holds
// three independent slots (caching the maximal combined term is
// impossible: every combination involves v).
const char *ThreeSlotSource = R"(
float f(float a, float b, float c, float v) {
  float cheap = a + a + a + a;
  float medium = sin(b) * cos(b);
  float costly = pow(a, b) * pow(b, c) + sqrt(a * b * c);
  return (cheap + v) * (medium + v) * (costly + v);
})";

TEST(CacheLimiter, UnlimitedKeepsAll) {
  auto Unit = parseUnit(ThreeSlotSource);
  auto Spec = specializeAndCompile(*Unit, "f", {"v"});
  ASSERT_TRUE(Spec.has_value());
  EXPECT_EQ(Spec->Spec.Layout.slotCount(), 3u);
  EXPECT_EQ(Spec->Spec.Layout.totalBytes(), 12u);
  // Three 4-byte slots, all hot: no loop or conditional around them.
  EXPECT_EQ(Spec->Spec.Layout.hotBytes(), 12u);
  EXPECT_EQ(Spec->Spec.Stats.LimiterVictims, 0u);
}

TEST(CacheLimiter, EvictsCheapestFirst) {
  auto Unit = parseUnit(ThreeSlotSource);
  SpecializerOptions Options;
  Options.CacheByteLimit = 8;
  auto Spec = specializeAndCompile(*Unit, "f", {"v"}, Options);
  ASSERT_TRUE(Spec.has_value());
  EXPECT_LE(Spec->Spec.Layout.totalBytes(), 8u);
  std::string Reader = Spec->readerSource();
  // The cheap sum is recomputed; the expensive pow/sqrt mix stays cached.
  EXPECT_NE(Reader.find("a + a + a + a"), std::string::npos) << Reader;
  EXPECT_EQ(Reader.find("pow"), std::string::npos) << Reader;
}

TEST(CacheLimiter, ZeroBudgetEmptiesCache) {
  auto Unit = parseUnit(ThreeSlotSource);
  SpecializerOptions Options;
  Options.CacheByteLimit = 0;
  auto Spec = specializeAndCompile(*Unit, "f", {"v"}, Options);
  ASSERT_TRUE(Spec.has_value());
  EXPECT_EQ(Spec->Spec.Layout.totalBytes(), 0u);
  EXPECT_GT(Spec->Spec.Stats.LimiterVictims, 0u);
  // The reader recomputes everything: it contains the costly call again.
  EXPECT_NE(Spec->readerSource().find("pow"), std::string::npos);
}

TEST(CacheLimiter, EquivalenceAtEveryBudget) {
  // Property: limiting never changes results, only performance.
  auto Reference = parseUnit(ThreeSlotSource);
  auto Baseline = compileFunction(*Reference, "f");
  VM Machine;
  std::vector<Value> Args = {Value::makeFloat(1.3f), Value::makeFloat(2.1f),
                             Value::makeFloat(0.7f), Value::makeFloat(5.0f)};
  auto Expected = Machine.run(*Baseline, Args);
  ASSERT_TRUE(Expected.ok());

  for (unsigned Budget = 0; Budget <= 16; Budget += 4) {
    auto Unit = parseUnit(ThreeSlotSource);
    SpecializerOptions Options;
    Options.CacheByteLimit = Budget;
    auto Spec = specializeAndCompile(*Unit, "f", {"v"}, Options);
    ASSERT_TRUE(Spec.has_value());
    EXPECT_LE(Spec->Spec.Layout.totalBytes(), Budget);
    CacheArena Slots(1, Spec->Spec.Layout);
    auto Load = Machine.run(Spec->LoaderChunk, Args, Slots.view(0));
    auto Read = Machine.run(Spec->ReaderChunk, Args, Slots.view(0));
    ASSERT_TRUE(Load.ok()) << Load.TrapMessage;
    ASSERT_TRUE(Read.ok()) << Read.TrapMessage;
    EXPECT_TRUE(Load.Result.equals(Expected.Result)) << "budget " << Budget;
    EXPECT_TRUE(Read.Result.equals(Expected.Result)) << "budget " << Budget;
  }
}

TEST(CacheLimiter, ReaderWorkGrowsAsBudgetShrinks) {
  VM Machine;
  std::vector<Value> Args = {Value::makeFloat(1.3f), Value::makeFloat(2.1f),
                             Value::makeFloat(0.7f), Value::makeFloat(5.0f)};
  uint64_t LastInstructions = 0;
  for (unsigned Budget : {12u, 8u, 4u, 0u}) {
    auto Unit = parseUnit(ThreeSlotSource);
    SpecializerOptions Options;
    Options.CacheByteLimit = Budget;
    auto Spec = specializeAndCompile(*Unit, "f", {"v"}, Options);
    ASSERT_TRUE(Spec.has_value());
    CacheArena Slots(1, Spec->Spec.Layout);
    Machine.run(Spec->LoaderChunk, Args, Slots.view(0));
    auto Read = Machine.run(Spec->ReaderChunk, Args, Slots.view(0));
    ASSERT_TRUE(Read.ok());
    EXPECT_GE(Read.InstructionsExecuted, LastInstructions)
        << "budget " << Budget;
    LastInstructions = Read.InstructionsExecuted;
  }
}

TEST(CacheLimiter, BudgetLargerThanNaturalIsNoop) {
  auto Unit = parseUnit(ThreeSlotSource);
  SpecializerOptions Options;
  Options.CacheByteLimit = 1000;
  auto Spec = specializeAndCompile(*Unit, "f", {"v"}, Options);
  ASSERT_TRUE(Spec.has_value());
  EXPECT_EQ(Spec->Spec.Layout.slotCount(), 3u);
  EXPECT_EQ(Spec->Spec.Stats.LimiterVictims, 0u);
}

TEST(CacheLimiter, VectorSlotsEvictable) {
  auto Unit = parseUnit(R"(
vec3 f(vec3 a, float v) {
  vec3 n = normalize(a);
  vec3 r = reflect(n, vec3(0.0, 1.0, 0.0));
  return (n + r) * v;
})");
  SpecializerOptions Options;
  Options.CacheByteLimit = 12; // room for one vec3, not two
  auto Spec = specializeAndCompile(*Unit, "f", {"v"}, Options);
  ASSERT_TRUE(Spec.has_value());
  EXPECT_LE(Spec->Spec.Layout.totalBytes(), 12u);
}

TEST(CacheLimiter, WeightBySizePrefersFatSlots) {
  // Two candidates: a 12-byte vec3 of moderate cost and a 4-byte float of
  // slightly lower cost. Unweighted eviction removes the float (lowest
  // cost); size-weighted eviction prefers reclaiming the vec3.
  const char *Source = R"(
vec3 f(vec3 a, float b, float v) {
  vec3 n = normalize(a) + cross(a, vec3(0.0, 1.0, 0.0));
  float s = sin(b) * cos(b) + sqrt(b);
  return n * s * v;
})";
  auto UnitA = parseUnit(Source);
  SpecializerOptions Plain;
  Plain.CacheByteLimit = 12;
  auto SpecPlain = specializeAndCompile(*UnitA, "f", {"v"}, Plain);
  ASSERT_TRUE(SpecPlain.has_value());

  auto UnitB = parseUnit(Source);
  SpecializerOptions Weighted = Plain;
  Weighted.WeightVictimBySize = true;
  auto SpecWeighted = specializeAndCompile(*UnitB, "f", {"v"}, Weighted);
  ASSERT_TRUE(SpecWeighted.has_value());

  EXPECT_LE(SpecWeighted->Spec.Layout.totalBytes(), 12u);
  EXPECT_LE(SpecPlain->Spec.Layout.totalBytes(), 12u);
}

TEST(CacheLimiter, GalleryShaderShrinksMonotonically) {
  // Property over a real shader: actual bytes never exceed the budget and
  // shrink monotonically with it.
  ShaderLab Lab(4, 4);
  const ShaderInfo *Info = findShader("rings");
  unsigned Last = ~0u;
  for (int Budget = 40; Budget >= 0; Budget -= 8) {
    SpecializerOptions Options;
    Options.CacheByteLimit = static_cast<unsigned>(Budget);
    auto Spec = Lab.specializePartition(*Info, 8, Options); // lightx
    ASSERT_TRUE(Spec.has_value()) << Lab.lastError();
    unsigned Bytes = Spec->compiled().Spec.Layout.totalBytes();
    EXPECT_LE(Bytes, static_cast<unsigned>(Budget));
    EXPECT_LE(Bytes, Last);
    Last = Bytes;
  }
}

class LimiterEquivalenceOnRings : public ::testing::TestWithParam<unsigned> {
};

TEST_P(LimiterEquivalenceOnRings, ReaderStillMatchesOriginal) {
  unsigned Budget = GetParam();
  ShaderLab Lab(5, 3);
  const ShaderInfo *Info = findShader("rings");
  SpecializerOptions Options;
  Options.CacheByteLimit = Budget;
  auto Spec = Lab.specializePartition(*Info, 3 /* ringscale */, Options);
  ASSERT_TRUE(Spec.has_value()) << Lab.lastError();

  RenderEngine &Engine = Lab.engine();
  auto Controls = ShaderLab::defaultControls(*Info);
  ASSERT_TRUE(Spec->load(Engine, Lab.grid(), Controls));
  Controls[3] = 9.5f; // drag ringscale
  Framebuffer FromReader(5, 3), Reference(5, 3);
  ASSERT_TRUE(Spec->readFrame(Engine, Lab.grid(), Controls, &FromReader));
  ASSERT_TRUE(
      Spec->originalFrame(Engine, Lab.grid(), Controls, &Reference));
  for (unsigned Y = 0; Y < 3; ++Y)
    for (unsigned X = 0; X < 5; ++X)
      EXPECT_TRUE(FromReader.at(X, Y).equals(Reference.at(X, Y)))
          << "budget " << Budget << " pixel " << X << "," << Y;
}

INSTANTIATE_TEST_SUITE_P(Budgets, LimiterEquivalenceOnRings,
                         ::testing::Values(0u, 4u, 8u, 12u, 16u, 20u, 24u,
                                           28u, 32u, 36u, 40u));

} // namespace
