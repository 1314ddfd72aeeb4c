//===- tests/TestShading.cpp - Shading substrate tests ------------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/UnitCache.h"
#include "shading/ShaderLab.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

using namespace dspec;

namespace {

TEST(RenderGrid, DimensionsAndCount) {
  RenderGrid Grid(8, 5);
  EXPECT_EQ(Grid.width(), 8u);
  EXPECT_EQ(Grid.height(), 5u);
  EXPECT_EQ(Grid.pixelCount(), 40u);
  EXPECT_EQ(Grid.inputs().size(), 40u * RenderGrid::InputsPerPixel);
}

TEST(RenderGrid, UVCoversUnitSquare) {
  RenderGrid Grid(4, 4);
  const Value &First = Grid.pixelInputs(0)[0];
  const Value &Last = Grid.pixelInputs(Grid.pixelCount() - 1)[0];
  EXPECT_FLOAT_EQ(First.F[0], 0.0f);
  EXPECT_FLOAT_EQ(First.F[1], 0.0f);
  EXPECT_FLOAT_EQ(Last.F[0], 1.0f);
  EXPECT_FLOAT_EQ(Last.F[1], 1.0f);
}

TEST(RenderGrid, NormalsAndViewAreUnit) {
  RenderGrid Grid(7, 5);
  for (unsigned Index = 0; Index < Grid.pixelCount(); ++Index) {
    const Value &N = Grid.pixelInputs(Index)[2];
    const Value &I = Grid.pixelInputs(Index)[3];
    float NLen =
        std::sqrt(N.F[0] * N.F[0] + N.F[1] * N.F[1] + N.F[2] * N.F[2]);
    float ILen =
        std::sqrt(I.F[0] * I.F[0] + I.F[1] * I.F[1] + I.F[2] * I.F[2]);
    EXPECT_NEAR(NLen, 1.0f, 1e-5f);
    EXPECT_NEAR(ILen, 1.0f, 1e-5f);
    // The normal of this height field always points up-ish, and the view
    // vector points toward the eye (positive z).
    EXPECT_GT(N.F[2], 0.0f);
    EXPECT_GT(I.F[2], 0.0f);
  }
}

TEST(RenderGrid, PixelsAreDistinct) {
  RenderGrid Grid(6, 3);
  for (unsigned I = 1; I < Grid.pixelCount(); ++I)
    EXPECT_FALSE(Grid.pixelInputs(I)[1].equals(Grid.pixelInputs(I - 1)[1]));
}

bool sameBits(const Value &A, const Value &B) {
  return A.Kind == B.Kind && A.I == B.I &&
         std::memcmp(A.F, B.F, sizeof(A.F)) == 0;
}

/// Bit equality of two input arrays. References are copies, so the
/// comparison never reads the shared array it is checking against itself.
bool sameInputs(const std::vector<Value> &A, const std::vector<Value> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (!sameBits(A[I], B[I]))
      return false;
  return true;
}

TEST(RenderGrid, OneSizeSharesOnePixelArray) {
  RenderGrid A(12, 9), B(12, 9), Other(9, 12);
  EXPECT_EQ(A.inputs().data(), B.inputs().data());
  EXPECT_NE(A.inputs().data(), Other.inputs().data());
  EXPECT_EQ(Other.pixelCount(), 108u);

  // Copies and moves share the array too, and a moved-from grid keeps it.
  RenderGrid Copy = A;
  RenderGrid Moved = std::move(B);
  EXPECT_EQ(Copy.inputs().data(), A.inputs().data());
  EXPECT_EQ(Moved.inputs().data(), A.inputs().data());
  EXPECT_EQ(B.inputs().data(), A.inputs().data());
  Other = std::move(Copy);
  EXPECT_EQ(Other.inputs().data(), A.inputs().data());
  EXPECT_EQ(Copy.pixelCount(), 108u);
}

TEST(RenderGrid, OutlivesTheUnitThatFirstBuiltIt) {
  // The cached unit builds the 14x10 array; the held unit shares it.
  UnitCache Cache(/*Capacity=*/1, /*ShardCount=*/1);
  UnitKey First;
  First.Shader = "first";
  UnitPtr Cached = Cache.getOrBuild(First, [](std::string &) {
    return std::make_shared<SpecializationUnit>(14u, 10u);
  });
  ASSERT_TRUE(Cached);
  auto Held = std::make_shared<SpecializationUnit>(14u, 10u);
  EXPECT_EQ(Held->Grid.inputs().data(), Cached->Grid.inputs().data());
  const std::vector<Value> Before = Held->Grid.inputs();

  // A unit of another size evicts the first, whose last holder is gone.
  Cached.reset();
  UnitKey Second;
  Second.Shader = "second";
  ASSERT_TRUE(Cache.getOrBuild(Second, [](std::string &) {
    return std::make_shared<SpecializationUnit>(6u, 4u);
  }));
  ASSERT_EQ(Cache.stats().Evictions, 1u);

  EXPECT_EQ(Held->Grid.pixelCount(), 140u);
  EXPECT_TRUE(sameInputs(Held->Grid.inputs(), Before));
  EXPECT_EQ(RenderGrid(14, 10).inputs().data(), Held->Grid.inputs().data())
      << "a live array must be shared, not rebuilt";
}

TEST(RenderGrid, ConcurrentBuildsAndDropsMatchAReference) {
  const std::pair<unsigned, unsigned> Sizes[] = {{8, 6}, {16, 12}, {7, 5}};
  // Copied out, and the grids dropped, before any thread starts: every
  // array the threads see is built, shared and freed among themselves.
  std::vector<std::vector<Value>> Reference;
  for (const auto &[W, H] : Sizes)
    Reference.push_back(RenderGrid(W, H).inputs());

  std::atomic<unsigned> Mismatches{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 8; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned Round = 0; Round < 200; ++Round)
        for (size_t S = 0; S < 3; ++S) {
          const size_t Pick = (S + T + Round) % 3;
          RenderGrid Grid(Sizes[Pick].first, Sizes[Pick].second);
          if (Grid.width() != Sizes[Pick].first ||
              Grid.height() != Sizes[Pick].second ||
              !sameInputs(Grid.inputs(), Reference[Pick]))
            ++Mismatches;
        }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0u);
}

TEST(Framebuffer, StoresAndRenders) {
  Framebuffer FB(3, 2);
  FB.at(0, 0) = Value::makeVec3(1, 1, 1);
  FB.at(2, 1) = Value::makeVec3(0, 0, 0);
  std::string Art = FB.asciiArt();
  // 3 chars + newline per row, 2 rows.
  EXPECT_EQ(Art.size(), 8u);
  EXPECT_EQ(Art[0], '@'); // white pixel
  EXPECT_EQ(Art[6], ' '); // black pixel
}

TEST(Framebuffer, WritesPPM) {
  Framebuffer FB(2, 2);
  FB.at(0, 0) = Value::makeVec3(1, 0, 0);
  std::string Path = ::testing::TempDir() + "/dspec_test.ppm";
  ASSERT_TRUE(FB.writePPM(Path));
  FILE *File = fopen(Path.c_str(), "rb");
  ASSERT_NE(File, nullptr);
  char Header[3] = {};
  ASSERT_EQ(fread(Header, 1, 2, File), 2u);
  EXPECT_EQ(Header[0], 'P');
  EXPECT_EQ(Header[1], '6');
  fclose(File);
  remove(Path.c_str());
}

TEST(ShaderLab, DefaultControlsMatchMetadata) {
  const ShaderInfo *Info = findShader("plastic");
  ASSERT_NE(Info, nullptr);
  auto Controls = ShaderLab::defaultControls(*Info);
  ASSERT_EQ(Controls.size(), Info->Controls.size());
  for (size_t I = 0; I < Controls.size(); ++I)
    EXPECT_FLOAT_EQ(Controls[I], Info->Controls[I].Default);
}

TEST(ShaderLab, SweepValuesSpanRange) {
  ShaderLab Lab(2, 2);
  ControlParam Param{"p", 0.5f, 1.0f, 3.0f};
  auto Sweep = Lab.sweepValues(Param, 5);
  ASSERT_EQ(Sweep.size(), 5u);
  EXPECT_FLOAT_EQ(Sweep.front(), 1.0f);
  EXPECT_FLOAT_EQ(Sweep.back(), 3.0f);
  for (size_t I = 1; I < Sweep.size(); ++I)
    EXPECT_GT(Sweep[I], Sweep[I - 1]);
}

TEST(ShaderLab, MeasurePartitionProducesSaneReport) {
  ShaderLab Lab(12, 8, 3);
  const ShaderInfo *Info = findShader("plastic");
  auto Report = Lab.measurePartition(*Info, 0); // vary ka
  ASSERT_TRUE(Report.has_value()) << Lab.lastError();
  EXPECT_EQ(Report->ShaderIndex, 1u);
  EXPECT_EQ(Report->ShaderName, "plastic");
  EXPECT_EQ(Report->ParamName, "ka");
  EXPECT_GT(Report->Speedup, 0.5); // non-degenerate timing
  EXPECT_GT(Report->CacheBytes, 0u);
  EXPECT_GE(Report->BreakevenUses, 1u);
  EXPECT_GT(Report->OriginalSeconds, 0.0);
  EXPECT_GT(Report->ReaderSeconds, 0.0);
  EXPECT_GT(Report->LoaderSeconds, 0.0);
}

TEST(ShaderLab, CachesAreIndependentPerPixel) {
  ShaderLab Lab(4, 3);
  const ShaderInfo *Info = findShader("marble");
  auto Spec = Lab.specializePartition(*Info, 0);
  ASSERT_TRUE(Spec.has_value()) << Lab.lastError();
  RenderEngine &Engine = Lab.engine();
  auto Controls = ShaderLab::defaultControls(*Info);
  ASSERT_TRUE(Spec->load(Engine, Lab.grid(), Controls));
  ASSERT_EQ(Spec->arena().pixelCount(), Lab.grid().pixelCount());
  // Marble's cached values depend on per-pixel data, so neighbouring
  // caches differ.
  bool AnyDifferent = false;
  for (unsigned I = 1; I < Spec->arena().pixelCount(); ++I) {
    std::vector<Value> A = Spec->cacheValuesAt(I - 1);
    std::vector<Value> B = Spec->cacheValuesAt(I);
    ASSERT_EQ(A.size(), B.size());
    for (size_t S = 0; S < A.size(); ++S)
      if (!A[S].equals(B[S]))
        AnyDifferent = true;
  }
  EXPECT_TRUE(AnyDifferent);
}

TEST(ShaderLab, LoaderFrameEqualsOriginalFrame) {
  ShaderLab Lab(5, 4);
  const ShaderInfo *Info = findShader("checker");
  auto Spec = Lab.specializePartition(*Info, 2); // ka
  ASSERT_TRUE(Spec.has_value());
  RenderEngine &Engine = Lab.engine();
  auto Controls = ShaderLab::defaultControls(*Info);
  Framebuffer Reference(5, 4);
  ASSERT_TRUE(
      Spec->originalFrame(Engine, Lab.grid(), Controls, &Reference));
  // The loader returns the original's image while it fills the cache, and
  // reading with unchanged controls reproduces it again.
  Framebuffer FromLoader(5, 4);
  ASSERT_TRUE(Spec->load(Engine, Lab.grid(), Controls, &FromLoader));
  Framebuffer FromReader(5, 4);
  ASSERT_TRUE(Spec->readFrame(Engine, Lab.grid(), Controls, &FromReader));
  for (unsigned Y = 0; Y < 4; ++Y)
    for (unsigned X = 0; X < 5; ++X) {
      const Value &Want = Reference.at(X, Y);
      EXPECT_EQ(FromLoader.at(X, Y).Kind, Want.Kind);
      EXPECT_EQ(std::memcmp(FromLoader.at(X, Y).F, Want.F, sizeof(Want.F)), 0)
          << "loader pixel (" << X << "," << Y << ")";
      EXPECT_TRUE(FromReader.at(X, Y).equals(Want));
    }
}

TEST(ShaderLab, GalleryImagesAreNonTrivial) {
  // Every shader should produce an image with some variation (not a
  // constant color) at default controls.
  ShaderLab Lab(8, 6);
  RenderEngine &Engine = Lab.engine();
  for (const ShaderInfo &Info : shaderGallery()) {
    auto Spec = Lab.specializePartition(Info, 0);
    ASSERT_TRUE(Spec.has_value()) << Lab.lastError();
    Framebuffer FB(8, 6);
    auto Controls = ShaderLab::defaultControls(Info);
    ASSERT_TRUE(Spec->originalFrame(Engine, Lab.grid(), Controls, &FB));
    bool Varies = false;
    for (unsigned Y = 0; Y < 6 && !Varies; ++Y)
      for (unsigned X = 1; X < 8 && !Varies; ++X)
        if (!FB.at(X, Y).equals(FB.at(0, 0)))
          Varies = true;
    EXPECT_TRUE(Varies) << Info.Name << " renders a constant image";
    // Colors are clamped to [0, 1].
    for (unsigned Y = 0; Y < 6; ++Y)
      for (unsigned X = 0; X < 8; ++X)
        for (int C = 0; C < 3; ++C) {
          EXPECT_GE(FB.at(X, Y).F[C], 0.0f);
          EXPECT_LE(FB.at(X, Y).F[C], 1.0f);
        }
  }
}

TEST(ShaderLab, VaryingParamActuallyChangesImages) {
  // Guards against dead control parameters: sweeping any control must
  // change at least one pixel somewhere in the sweep.
  ShaderLab Lab(8, 6);
  RenderEngine &Engine = Lab.engine();
  for (const ShaderInfo &Info : shaderGallery()) {
    for (size_t C = 0; C < Info.Controls.size(); ++C) {
      auto Spec = Lab.specializePartition(Info, C);
      ASSERT_TRUE(Spec.has_value()) << Lab.lastError();
      auto Controls = ShaderLab::defaultControls(Info);
      Framebuffer Base(8, 6);
      Controls[C] = Info.Controls[C].SweepMin;
      ASSERT_TRUE(
          Spec->originalFrame(Engine, Lab.grid(), Controls, &Base));
      Controls[C] = Info.Controls[C].SweepMax;
      Framebuffer Swept(8, 6);
      ASSERT_TRUE(
          Spec->originalFrame(Engine, Lab.grid(), Controls, &Swept));
      bool Changed = false;
      for (unsigned Y = 0; Y < 6 && !Changed; ++Y)
        for (unsigned X = 0; X < 8 && !Changed; ++X)
          if (!Base.at(X, Y).equals(Swept.at(X, Y)))
            Changed = true;
      EXPECT_TRUE(Changed) << Info.Name << "/" << Info.Controls[C].Name
                           << " appears to be a dead control";
    }
  }
}

} // namespace
