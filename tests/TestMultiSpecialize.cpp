//===- tests/TestMultiSpecialize.cpp - Reuse and determinism ------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's usage model creates *many* specializations per fragment
/// (one loader/reader pair per input partition, ~10 per shader) from one
/// compilation unit. These tests cover that reuse: repeated
/// specialization of the same unit (node-id tables grow between runs),
/// multiple fragments per unit, and bit-for-bit determinism of the
/// generated programs.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "engine/CacheArena.h"
#include "lang/ASTPrinter.h"
#include "shading/ShaderLab.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

using namespace dspec;

namespace {

const char *TwoFragmentSource = R"(
float first(float a, float b, float v) {
  return pow(a, b) * v;
}
float second(float a, float v) {
  float t = sqrt(a) + 1.0;
  if (t > 2.0) {
    t = t * 0.5;
  }
  return t - v;
}
)";

TEST(MultiSpecialize, SequentialPartitionsOfOneFragment) {
  auto Unit = parseUnit(TwoFragmentSource);
  ASSERT_TRUE(Unit->ok());
  // Specialize the same fragment three times with different partitions;
  // every later run must see consistent (grown) node-id tables.
  auto SpecV = specializeAndCompile(*Unit, "first", {"v"});
  auto SpecB = specializeAndCompile(*Unit, "first", {"b", "v"});
  auto SpecNone = specializeAndCompile(*Unit, "first", {});
  ASSERT_TRUE(SpecV.has_value());
  ASSERT_TRUE(SpecB.has_value());
  ASSERT_TRUE(SpecNone.has_value());
  EXPECT_EQ(SpecV->Spec.Layout.slotCount(), 1u);   // pow(a, b)
  EXPECT_EQ(SpecB->Spec.Layout.slotCount(), 0u);   // a alone is trivial
  EXPECT_EQ(SpecNone->Spec.Layout.slotCount(), 1u); // whole result

  VM Machine;
  std::vector<Value> Args = {Value::makeFloat(2.0f), Value::makeFloat(3.0f),
                             Value::makeFloat(1.5f)};
  auto Orig = Machine.run(SpecV->OriginalChunk, Args);
  for (auto *Spec : {&*SpecV, &*SpecB, &*SpecNone}) {
    CacheArena Slots(1, Spec->Spec.Layout);
    Machine.run(Spec->LoaderChunk, Args, Slots.view(0));
    auto Read = Machine.run(Spec->ReaderChunk, Args, Slots.view(0));
    ASSERT_TRUE(Read.ok()) << Read.TrapMessage;
    EXPECT_TRUE(Read.Result.equals(Orig.Result));
  }
}

TEST(MultiSpecialize, MultipleFragmentsPerUnit) {
  auto Unit = parseUnit(TwoFragmentSource);
  auto SpecFirst = specializeAndCompile(*Unit, "first", {"v"});
  auto SpecSecond = specializeAndCompile(*Unit, "second", {"v"});
  ASSERT_TRUE(SpecFirst.has_value());
  ASSERT_TRUE(SpecSecond.has_value());
  EXPECT_EQ(SpecFirst->Spec.Loader->name(), "first_load");
  EXPECT_EQ(SpecSecond->Spec.Reader->name(), "second_read");

  VM Machine;
  CacheArena Slots(1, SpecSecond->Spec.Layout);
  std::vector<Value> Args = {Value::makeFloat(9.0f), Value::makeFloat(0.5f)};
  Machine.run(SpecSecond->LoaderChunk, Args, Slots.view(0));
  auto Read = Machine.run(SpecSecond->ReaderChunk, Args, Slots.view(0));
  auto Orig = Machine.run(SpecSecond->OriginalChunk, Args);
  ASSERT_TRUE(Read.ok()) << Read.TrapMessage;
  EXPECT_TRUE(Read.Result.equals(Orig.Result));
}

TEST(MultiSpecialize, GeneratedSourcesAreDeterministic) {
  // Two independent end-to-end runs over the same input produce
  // bit-identical loaders, readers, and layouts.
  for (const char *Vary : {"v", "b"}) {
    auto UnitA = parseUnit(TwoFragmentSource);
    auto UnitB = parseUnit(TwoFragmentSource);
    auto SpecA = specializeAndCompile(*UnitA, "first", {Vary});
    auto SpecB = specializeAndCompile(*UnitB, "first", {Vary});
    ASSERT_TRUE(SpecA.has_value());
    ASSERT_TRUE(SpecB.has_value());
    EXPECT_EQ(SpecA->loaderSource(), SpecB->loaderSource());
    EXPECT_EQ(SpecA->readerSource(), SpecB->readerSource());
    EXPECT_EQ(SpecA->Spec.Layout.slotCount(), SpecB->Spec.Layout.slotCount());
    EXPECT_EQ(SpecA->Spec.Layout.totalBytes(), SpecB->Spec.Layout.totalBytes());
  }
}

TEST(MultiSpecialize, GalleryShaderDeterminism) {
  ShaderLab LabA(2, 2), LabB(2, 2);
  const ShaderInfo *Info = findShader("rings");
  for (size_t C : {size_t(3), size_t(8)}) { // ringscale, lightx
    auto A = LabA.specializePartition(*Info, C);
    auto B = LabB.specializePartition(*Info, C);
    ASSERT_TRUE(A.has_value());
    ASSERT_TRUE(B.has_value());
    EXPECT_EQ(A->compiled().loaderSource(), B->compiled().loaderSource());
    EXPECT_EQ(A->compiled().readerSource(), B->compiled().readerSource());
  }
}

TEST(MultiSpecialize, ExplanationsAvailableForAllGalleryPartitions) {
  ShaderLab Lab(2, 2);
  SpecializerOptions Options;
  Options.CollectExplanation = true;
  for (const ShaderInfo &Info : shaderGallery()) {
    auto Spec = Lab.specializePartition(Info, 0, Options);
    ASSERT_TRUE(Spec.has_value()) << Lab.lastError();
    const std::string &Report = Spec->compiled().Spec.Explanation;
    EXPECT_NE(Report.find("specialization report: " + Info.Name),
              std::string::npos)
        << Info.Name;
    EXPECT_NE(Report.find("statement labels:"), std::string::npos);
  }
}

TEST(MultiSpecialize, CallerFragmentUntouched) {
  // The specializer must never mutate the caller's AST: the original
  // source prints identically before and after specialization.
  auto Unit = parseUnit(TwoFragmentSource);
  Function *F = Unit->Prog->findFunction("second");
  std::string Before = printFunction(F);
  auto Spec = specializeAndCompile(*Unit, "second", {"v"});
  ASSERT_TRUE(Spec.has_value());
  EXPECT_EQ(printFunction(F), Before);
}

} // namespace
