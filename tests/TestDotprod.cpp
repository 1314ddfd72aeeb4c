//===- tests/TestDotprod.cpp - Paper Section 2 walk-through ----------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests on the paper's Section 2 example (Figures 1 and 2):
/// the dot-product fragment specialized with {z1, z2} varying. Checks the
/// structure of the loader/reader, the cache contents, and behavioral
/// equivalence.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "engine/CacheArena.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

using namespace dspec;

namespace {

const char *DotprodSource = R"(
float dotprod(float x1, float y1, float z1,
              float x2, float y2, float z2, float scale) {
  if (scale != 0.0) {
    return (x1*x2 + y1*y2 + z1*z2) / scale;
  } else {
    return -1.0;
  }
}
)";

class DotprodTest : public ::testing::Test {
protected:
  void SetUp() override {
    Unit = parseUnit(DotprodSource);
    ASSERT_TRUE(Unit->ok()) << Unit->Diags.str();
    SpecializerOptions Options;
    // The paper's +-chain leans left, so reassociation is needed to group
    // x1*x2 + y1*y2 as in Figure 2.
    Options.EnableReassociate = true;
    Compiled = specializeAndCompile(*Unit, "dotprod", {"z1", "z2"}, Options);
    ASSERT_TRUE(Compiled.has_value()) << Unit->Diags.str();
  }

  std::vector<Value> makeArgs(float X1, float Y1, float Z1, float X2,
                              float Y2, float Z2, float Scale) {
    return {Value::makeFloat(X1), Value::makeFloat(Y1), Value::makeFloat(Z1),
            Value::makeFloat(X2), Value::makeFloat(Y2), Value::makeFloat(Z2),
            Value::makeFloat(Scale)};
  }

  std::unique_ptr<CompilationUnit> Unit;
  std::optional<CompiledSpecialization> Compiled;
};

TEST_F(DotprodTest, CachesExactlyOneFloat) {
  // Figure 2: the cache holds only the value of x1*x2 + y1*y2.
  EXPECT_EQ(Compiled->Spec.Layout.slotCount(), 1u);
  EXPECT_EQ(Compiled->Spec.Layout.totalBytes(), 4u);
}

TEST_F(DotprodTest, ConditionalSurvivesInReader) {
  // The specializer has no access to scale's value, so the reader still
  // tests it (the paper highlights exactly this).
  std::string Reader = Compiled->readerSource();
  EXPECT_NE(Reader.find("scale != 0"), std::string::npos) << Reader;
  EXPECT_NE(Reader.find("cache->slot0"), std::string::npos) << Reader;
  // The reader must not recompute the invariant products.
  EXPECT_EQ(Reader.find("x1 * x2"), std::string::npos) << Reader;
  EXPECT_EQ(Reader.find("y1 * y2"), std::string::npos) << Reader;
  // But the dependent product remains.
  EXPECT_NE(Reader.find("z1 * z2"), std::string::npos) << Reader;
}

TEST_F(DotprodTest, LoaderStoresTheInvariantSum) {
  std::string Loader = Compiled->loaderSource();
  EXPECT_NE(Loader.find("cache->slot0 = "), std::string::npos) << Loader;
  EXPECT_NE(Loader.find("z1 * z2"), std::string::npos) << Loader;
}

TEST_F(DotprodTest, LoaderMatchesOriginalAndFillsCache) {
  VM Machine;
  auto Args = makeArgs(1, 2, 3, 4, 5, 6, 2);

  auto Orig = Machine.run(Compiled->OriginalChunk, Args);
  ASSERT_TRUE(Orig.ok()) << Orig.TrapMessage;

  CacheArena Slots(1, Compiled->Spec.Layout);
  auto Load = Machine.run(Compiled->LoaderChunk, Args, Slots.view(0));
  ASSERT_TRUE(Load.ok()) << Load.TrapMessage;
  EXPECT_TRUE(Orig.Result.equals(Load.Result))
      << Orig.Result.str() << " vs " << Load.Result.str();
  std::vector<Value> Cached = Slots.decode(0);
  ASSERT_EQ(Cached.size(), 1u);
  EXPECT_FLOAT_EQ(Cached[0].asFloat(), 1 * 4 + 2 * 5); // x1*x2 + y1*y2
}

TEST_F(DotprodTest, ReaderMatchesOriginalAcrossVaryingInputs) {
  VM Machine;
  CacheArena Slots(1, Compiled->Spec.Layout);
  auto Fixed = makeArgs(1.5f, -2.25f, 0, 4.75f, 0.5f, 0, 3.0f);
  auto Load = Machine.run(Compiled->LoaderChunk, Fixed, Slots.view(0));
  ASSERT_TRUE(Load.ok()) << Load.TrapMessage;

  for (float Z1 : {-3.0f, 0.0f, 1.0f, 7.5f}) {
    for (float Z2 : {-1.0f, 0.25f, 9.0f}) {
      auto Args = makeArgs(1.5f, -2.25f, Z1, 4.75f, 0.5f, Z2, 3.0f);
      auto Orig = Machine.run(Compiled->OriginalChunk, Args);
      auto Read = Machine.run(Compiled->ReaderChunk, Args, Slots.view(0));
      ASSERT_TRUE(Orig.ok());
      ASSERT_TRUE(Read.ok()) << Read.TrapMessage;
      EXPECT_TRUE(Orig.Result.equals(Read.Result))
          << "z1=" << Z1 << " z2=" << Z2 << ": " << Orig.Result.str()
          << " vs " << Read.Result.str();
    }
  }
}

TEST_F(DotprodTest, ReaderHandlesZeroScaleBranch) {
  VM Machine;
  CacheArena Slots(1, Compiled->Spec.Layout);
  auto Args = makeArgs(1, 2, 3, 4, 5, 6, 0); // scale == 0 -> error branch
  auto Load = Machine.run(Compiled->LoaderChunk, Args, Slots.view(0));
  ASSERT_TRUE(Load.ok()) << Load.TrapMessage;
  EXPECT_FLOAT_EQ(Load.Result.asFloat(), -1.0f);
  auto Read = Machine.run(Compiled->ReaderChunk, Args, Slots.view(0));
  ASSERT_TRUE(Read.ok()) << Read.TrapMessage;
  EXPECT_FLOAT_EQ(Read.Result.asFloat(), -1.0f);
}

TEST_F(DotprodTest, ReaderExecutesFewerInstructions) {
  VM Machine;
  CacheArena Slots(1, Compiled->Spec.Layout);
  auto Args = makeArgs(1, 2, 3, 4, 5, 6, 2);
  auto Load = Machine.run(Compiled->LoaderChunk, Args, Slots.view(0));
  ASSERT_TRUE(Load.ok());
  auto Orig = Machine.run(Compiled->OriginalChunk, Args);
  auto Read = Machine.run(Compiled->ReaderChunk, Args, Slots.view(0));
  EXPECT_LT(Read.InstructionsExecuted, Orig.InstructionsExecuted);
  // The loader is the instrumented original: slightly more work.
  EXPECT_GE(Load.InstructionsExecuted, Orig.InstructionsExecuted);
}

TEST_F(DotprodTest, SplitSizesWithinPaperBound) {
  // Section 3.3: loader + reader terms stay under twice the fragment plus
  // the cache-store overhead.
  const auto &Stats = Compiled->Spec.Stats;
  EXPECT_LT(Stats.LoaderTerms + Stats.ReaderTerms,
            2 * Stats.FragmentTerms + 2 * Stats.CachedExprs + 4)
      << "loader=" << Stats.LoaderTerms << " reader=" << Stats.ReaderTerms
      << " fragment=" << Stats.FragmentTerms;
}

} // namespace
