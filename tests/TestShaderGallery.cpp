//===- tests/TestShaderGallery.cpp - Gallery-wide validation ---------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Gallery-wide property tests: every one of the ten shaders compiles,
/// and for every one of the 131 input partitions the specialization is
/// behaviorally equivalent to the original — the loader reproduces the
/// original's result while filling the cache, and the reader reproduces
/// it for any value of the varying parameter.
///
//===----------------------------------------------------------------------===//

#include "shading/ShaderLab.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace dspec;

namespace {

/// Same kind and same bits. Stricter than Value::equals, which lets -0.0
/// match 0.0 and never matches a NaN: the service answers a miss with the
/// loader's frame, so that frame must be the original's bit for bit.
bool bitIdentical(const Value &A, const Value &B) {
  return A.Kind == B.Kind && A.I == B.I &&
         std::memcmp(A.F, B.F, sizeof(A.F)) == 0;
}

TEST(ShaderGallery, HasTenShadersAnd131Partitions) {
  EXPECT_EQ(shaderGallery().size(), 10u);
  EXPECT_EQ(totalPartitionCount(), 131u);
}

TEST(ShaderGallery, AllShadersCompile) {
  ShaderLab Lab(4, 4);
  for (const ShaderInfo &Info : shaderGallery())
    EXPECT_TRUE(Lab.prepare(Info)) << Lab.lastError();
}

TEST(ShaderGallery, IndicesAreSequential) {
  unsigned Expected = 1;
  for (const ShaderInfo &Info : shaderGallery())
    EXPECT_EQ(Info.Index, Expected++);
}

TEST(ShaderGallery, ControlsHaveSaneSweeps) {
  for (const ShaderInfo &Info : shaderGallery()) {
    for (const ControlParam &Param : Info.Controls) {
      EXPECT_LT(Param.SweepMin, Param.SweepMax)
          << Info.Name << "/" << Param.Name;
      EXPECT_FALSE(Param.Name.empty());
    }
  }
}

/// Identifies one partition for the parameterized equivalence test.
struct PartitionId {
  unsigned ShaderIndex; // 0-based into the gallery
  unsigned ControlIndex;
};

std::vector<PartitionId> allPartitions() {
  std::vector<PartitionId> Out;
  const auto &Gallery = shaderGallery();
  for (unsigned S = 0; S < Gallery.size(); ++S)
    for (unsigned C = 0; C < Gallery[S].Controls.size(); ++C)
      Out.push_back({S, C});
  return Out;
}

class PartitionEquivalence : public ::testing::TestWithParam<PartitionId> {};

TEST_P(PartitionEquivalence, LoaderAndReaderMatchOriginal) {
  const ShaderInfo &Info = shaderGallery()[GetParam().ShaderIndex];
  unsigned ControlIndex = GetParam().ControlIndex;

  // A tiny grid keeps the full 131-partition sweep fast while still
  // covering distinct normals/positions.
  ShaderLab Lab(6, 4);
  auto Spec = Lab.specializePartition(Info, ControlIndex);
  ASSERT_TRUE(Spec.has_value()) << Lab.lastError();

  RenderEngine &Engine = Lab.engine();
  std::vector<float> Controls = ShaderLab::defaultControls(Info);

  // The loader must agree with the original on the load-time inputs.
  Framebuffer FromLoader(Lab.grid().width(), Lab.grid().height());
  Framebuffer FromOriginal(Lab.grid().width(), Lab.grid().height());
  ASSERT_TRUE(Spec->load(Engine, Lab.grid(), Controls, &FromLoader));
  ASSERT_TRUE(
      Spec->originalFrame(Engine, Lab.grid(), Controls, &FromOriginal));
  for (unsigned Y = 0; Y < Lab.grid().height(); ++Y)
    for (unsigned X = 0; X < Lab.grid().width(); ++X)
      ASSERT_TRUE(bitIdentical(FromLoader.at(X, Y), FromOriginal.at(X, Y)))
          << Info.Name << "/" << Info.Controls[ControlIndex].Name
          << " pixel (" << X << "," << Y
          << "): loader=" << FromLoader.at(X, Y).str()
          << " original=" << FromOriginal.at(X, Y).str();

  // Sweep the varying parameter: the reader must match the original
  // everywhere, using the caches loaded above.
  const ControlParam &Varying = Info.Controls[ControlIndex];
  for (float V : Lab.sweepValues(Varying, 4)) {
    Controls[ControlIndex] = V;
    Framebuffer FromReader(Lab.grid().width(), Lab.grid().height());
    Framebuffer Reference(Lab.grid().width(), Lab.grid().height());
    ASSERT_TRUE(Spec->readFrame(Engine, Lab.grid(), Controls, &FromReader));
    ASSERT_TRUE(
        Spec->originalFrame(Engine, Lab.grid(), Controls, &Reference));
    for (unsigned Y = 0; Y < Lab.grid().height(); ++Y) {
      for (unsigned X = 0; X < Lab.grid().width(); ++X) {
        ASSERT_TRUE(FromReader.at(X, Y).equals(Reference.at(X, Y)))
            << Info.Name << "/" << Varying.Name << "=" << V << " pixel ("
            << X << "," << Y << "): reader=" << FromReader.at(X, Y).str()
            << " original=" << Reference.at(X, Y).str();
      }
    }
  }
}

std::string partitionName(const ::testing::TestParamInfo<PartitionId> &Info) {
  const ShaderInfo &Shader = shaderGallery()[Info.param.ShaderIndex];
  return Shader.Name + "_" + Shader.Controls[Info.param.ControlIndex].Name;
}

INSTANTIATE_TEST_SUITE_P(AllPartitions, PartitionEquivalence,
                         ::testing::ValuesIn(allPartitions()),
                         partitionName);

} // namespace
