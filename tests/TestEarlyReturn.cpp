//===- tests/TestEarlyReturn.cpp - Early-return control dependence ------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regression tests for early-return control dependence: statements after
/// a construct that may return execute only when none of its returns
/// fired, so they are control dependent on the predicates guarding those
/// returns. Caching an "independent" term after a *varying*-guarded early
/// return would leave the slot unfilled whenever the loader took the
/// early exit — the original bug these tests pin down.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "engine/CacheArena.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

using namespace dspec;

namespace {

const char *EarlyReturnSource = R"(
float f(float a, float v) {
  if (v > 0.0) {
    return 0.5;
  }
  return pow(a, 3.0) * 2.0;
})";

TEST(EarlyReturn, NoCachingAfterDependentReturn) {
  auto Unit = parseUnit(EarlyReturnSource);
  auto Spec = specializeAndCompile(*Unit, "f", {"v"});
  ASSERT_TRUE(Spec.has_value());
  // The tail is control dependent on v; strict Rule 3 forbids caching it.
  EXPECT_EQ(Spec->Spec.Layout.slotCount(), 0u);
  EXPECT_NE(Spec->readerSource().find("pow"), std::string::npos);
}

TEST(EarlyReturn, LoaderTakingEarlyExitStaysSound) {
  auto Unit = parseUnit(EarlyReturnSource);
  auto Spec = specializeAndCompile(*Unit, "f", {"v"});
  ASSERT_TRUE(Spec.has_value());
  VM Machine;
  CacheArena Slots(1, Spec->Spec.Layout);
  // Load on the early-return path...
  std::vector<Value> LoadArgs = {Value::makeFloat(2.0f),
                                 Value::makeFloat(1.0f)};
  ASSERT_TRUE(Machine.run(Spec->LoaderChunk, LoadArgs, Slots.view(0)).ok());
  // ...then read on the other path.
  std::vector<Value> ReadArgs = {Value::makeFloat(2.0f),
                                 Value::makeFloat(-1.0f)};
  auto Read = Machine.run(Spec->ReaderChunk, ReadArgs, Slots.view(0));
  auto Orig = Machine.run(Spec->OriginalChunk, ReadArgs);
  ASSERT_TRUE(Read.ok()) << Read.TrapMessage;
  EXPECT_TRUE(Read.Result.equals(Orig.Result))
      << Read.Result.str() << " vs " << Orig.Result.str();
}

TEST(EarlyReturn, SpeculationRecoversTheCaching) {
  // With Section 7.1 speculation the loader hoists the store before the
  // dependent guard, making the tail cacheable again — and sound.
  auto Unit = parseUnit(EarlyReturnSource);
  SpecializerOptions Options;
  Options.AllowSpeculation = true;
  auto Spec = specializeAndCompile(*Unit, "f", {"v"}, Options);
  ASSERT_TRUE(Spec.has_value());
  EXPECT_GE(Spec->Spec.Layout.slotCount(), 1u);
  EXPECT_EQ(Spec->readerSource().find("pow"), std::string::npos)
      << Spec->readerSource();

  VM Machine;
  CacheArena Slots(1, Spec->Spec.Layout);
  std::vector<Value> LoadArgs = {Value::makeFloat(2.0f),
                                 Value::makeFloat(1.0f)}; // early exit
  ASSERT_TRUE(Machine.run(Spec->LoaderChunk, LoadArgs, Slots.view(0)).ok());
  std::vector<Value> ReadArgs = {Value::makeFloat(2.0f),
                                 Value::makeFloat(-1.0f)};
  auto Read = Machine.run(Spec->ReaderChunk, ReadArgs, Slots.view(0));
  auto Orig = Machine.run(Spec->OriginalChunk, ReadArgs);
  ASSERT_TRUE(Read.ok()) << Read.TrapMessage;
  EXPECT_TRUE(Read.Result.equals(Orig.Result));
}

TEST(EarlyReturn, IndependentGuardStillCaches) {
  // When the early return is guarded by a *fixed* input, loader and
  // reader take the same path, so the tail may be cached.
  auto Unit = parseUnit(R"(
float f(float a, float v) {
  if (a > 0.0) {
    return 0.5;
  }
  return pow(0.0 - a, 3.0) * v;
})");
  auto Spec = specializeAndCompile(*Unit, "f", {"v"});
  ASSERT_TRUE(Spec.has_value());
  EXPECT_EQ(Spec->Spec.Layout.slotCount(), 1u);

  VM Machine;
  for (float A : {-2.0f, 3.0f}) {
    CacheArena Slots(1, Spec->Spec.Layout);
    std::vector<Value> Args = {Value::makeFloat(A), Value::makeFloat(2.0f)};
    ASSERT_TRUE(Machine.run(Spec->LoaderChunk, Args, Slots.view(0)).ok());
    for (float V : {-1.0f, 4.0f}) {
      std::vector<Value> ReadArgs = {Value::makeFloat(A),
                                     Value::makeFloat(V)};
      auto Read = Machine.run(Spec->ReaderChunk, ReadArgs, Slots.view(0));
      auto Orig = Machine.run(Spec->OriginalChunk, ReadArgs);
      ASSERT_TRUE(Read.ok()) << Read.TrapMessage;
      EXPECT_TRUE(Read.Result.equals(Orig.Result)) << "a=" << A;
    }
  }
}

TEST(EarlyReturn, ReturnInsideLoop) {
  auto Unit = parseUnit(R"(
float f(float a, float v) {
  float i = 0.0;
  while (i < 10.0) {
    if (i * 2.0 > v) {
      return i;
    }
    i = i + 1.0;
  }
  return pow(a, 2.0);
})");
  auto Spec = specializeAndCompile(*Unit, "f", {"v"});
  ASSERT_TRUE(Spec.has_value());
  // The tail is control dependent on the in-loop return's predicate.
  EXPECT_EQ(Spec->Spec.Layout.slotCount(), 0u);

  VM Machine;
  CacheArena Slots(1, Spec->Spec.Layout);
  std::vector<Value> LoadArgs = {Value::makeFloat(3.0f),
                                 Value::makeFloat(4.0f)}; // returns early
  ASSERT_TRUE(Machine.run(Spec->LoaderChunk, LoadArgs, Slots.view(0)).ok());
  std::vector<Value> ReadArgs = {Value::makeFloat(3.0f),
                                 Value::makeFloat(100.0f)}; // runs the tail
  auto Read = Machine.run(Spec->ReaderChunk, ReadArgs, Slots.view(0));
  auto Orig = Machine.run(Spec->OriginalChunk, ReadArgs);
  ASSERT_TRUE(Read.ok()) << Read.TrapMessage;
  EXPECT_TRUE(Read.Result.equals(Orig.Result));
}

TEST(EarlyReturn, NestedConstructsPropagateToOuterRemainder) {
  // The return sits two constructs deep; statements after the *outer*
  // construct are still control dependent on the varying inner predicate.
  auto Unit = parseUnit(R"(
float f(float a, float p, float v) {
  if (p > 0.0) {
    if (v > 0.0) {
      return 0.25;
    }
  }
  return sqrt(a) * 3.0;
})");
  auto Spec = specializeAndCompile(*Unit, "f", {"v"});
  ASSERT_TRUE(Spec.has_value());
  EXPECT_EQ(Spec->Spec.Layout.slotCount(), 0u);

  VM Machine;
  CacheArena Slots(1, Spec->Spec.Layout);
  std::vector<Value> LoadArgs = {Value::makeFloat(4.0f),
                                 Value::makeFloat(1.0f),
                                 Value::makeFloat(1.0f)}; // early exit
  ASSERT_TRUE(Machine.run(Spec->LoaderChunk, LoadArgs, Slots.view(0)).ok());
  std::vector<Value> ReadArgs = {Value::makeFloat(4.0f),
                                 Value::makeFloat(1.0f),
                                 Value::makeFloat(-1.0f)};
  auto Read = Machine.run(Spec->ReaderChunk, ReadArgs, Slots.view(0));
  auto Orig = Machine.run(Spec->OriginalChunk, ReadArgs);
  ASSERT_TRUE(Read.ok()) << Read.TrapMessage;
  EXPECT_TRUE(Read.Result.equals(Orig.Result));
}

TEST(EarlyReturn, UnconditionalReturnLeavesDeadTailHarmless) {
  auto Unit = parseUnit(R"(
float f(float a, float v) {
  return a * v;
  return pow(a, 5.0);
})");
  auto Spec = specializeAndCompile(*Unit, "f", {"v"});
  ASSERT_TRUE(Spec.has_value());
  VM Machine;
  CacheArena Slots(1, Spec->Spec.Layout);
  std::vector<Value> Args = {Value::makeFloat(2.0f), Value::makeFloat(3.0f)};
  auto Load = Machine.run(Spec->LoaderChunk, Args, Slots.view(0));
  auto Read = Machine.run(Spec->ReaderChunk, Args, Slots.view(0));
  ASSERT_TRUE(Load.ok());
  ASSERT_TRUE(Read.ok()) << Read.TrapMessage;
  EXPECT_FLOAT_EQ(Read.Result.asFloat(), 6.0f);
}

TEST(EarlyReturn, DotprodStyleBothBranchesReturn) {
  // When *every* path through the construct returns, there is no
  // remainder to protect — the classic dotprod shape keeps its slot.
  auto Unit = parseUnit(R"(
float f(float a, float v) {
  if (v > 0.0) {
    return pow(a, 2.0) + v;
  } else {
    return pow(a, 2.0) - v;
  }
})");
  auto Spec = specializeAndCompile(*Unit, "f", {"v"});
  ASSERT_TRUE(Spec.has_value());
  // Both pow(a,2.0) occurrences are under the dependent guard (Rule 3),
  // so strict mode keeps them dynamic — but nothing traps.
  VM Machine;
  CacheArena Slots(1, Spec->Spec.Layout);
  std::vector<Value> Args = {Value::makeFloat(3.0f), Value::makeFloat(1.0f)};
  ASSERT_TRUE(Machine.run(Spec->LoaderChunk, Args, Slots.view(0)).ok());
  for (float V : {-2.0f, 2.0f}) {
    std::vector<Value> ReadArgs = {Value::makeFloat(3.0f),
                                   Value::makeFloat(V)};
    auto Read = Machine.run(Spec->ReaderChunk, ReadArgs, Slots.view(0));
    auto Orig = Machine.run(Spec->OriginalChunk, ReadArgs);
    ASSERT_TRUE(Read.ok()) << Read.TrapMessage;
    EXPECT_TRUE(Read.Result.equals(Orig.Result));
  }
}

} // namespace
