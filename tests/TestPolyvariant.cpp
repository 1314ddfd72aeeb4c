//===- tests/TestPolyvariant.cpp - Polyvariant specialization tests ----------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The polyvariant contract, end to end:
///
///  - VariantKey admissibility is bit-exact (0.0f pins, -0.0f stays
///    generic) and selection picks the most specific admissible variant;
///  - the property fold substitutes, folds, and settles branches without
///    ever changing observable behavior on admissible inputs;
///  - every variant of a set renders framebuffers bit-identical to the
///    generic reader (and the unspecialized original) on admissible
///    inputs, under every execution tier and thread count, with
///    deterministic cache arenas;
///  - the cross-variant Section 4.3 budget evicts whole low-benefit
///    variants before relabeling the generic layout;
///  - version-2 snapshots persist the variant set and warm-start it
///    bit-identically; version-1 files still load as generic-only;
///  - the service maps VariantPins requests onto variant-keyed cache
///    entries and serves them bit-identical to the plain pass.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "engine/RenderEngine.h"
#include "service/Protocol.h"
#include "service/Service.h"
#include "service/Transport.h"
#include "shading/ShaderGallery.h"
#include "shading/ShaderLab.h"
#include "snapshot/Snapshot.h"
#include "support/ByteStream.h"
#include "transform/ConstantFold.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace dspec;

namespace {

bool bitIdentical(const Value &A, const Value &B) {
  return A.Kind == B.Kind && A.I == B.I &&
         std::memcmp(A.F, B.F, sizeof(A.F)) == 0;
}

void expectSameImage(const Framebuffer &A, const Framebuffer &B,
                     const std::string &What) {
  ASSERT_EQ(A.width(), B.width());
  ASSERT_EQ(A.height(), B.height());
  for (unsigned Y = 0; Y < A.height(); ++Y)
    for (unsigned X = 0; X < A.width(); ++X)
      ASSERT_TRUE(bitIdentical(A.at(X, Y), B.at(X, Y)))
          << What << ": pixel " << X << "," << Y << " differs";
}

ArenaBuffer arenaBytes(const CacheArena &Arena) {
  return Arena.canonicalBytes();
}

std::string tempPath(const std::string &Name) {
  return testing::TempDir() + "dspec_" + Name;
}

std::vector<unsigned char> slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(In),
                                    std::istreambuf_iterator<char>());
}

uint32_t fileVersion(const std::string &Path) {
  std::vector<unsigned char> Bytes = slurp(Path);
  EXPECT_GE(Bytes.size(), 12u);
  return static_cast<uint32_t>(Bytes[8]) |
         static_cast<uint32_t>(Bytes[9]) << 8 |
         static_cast<uint32_t>(Bytes[10]) << 16 |
         static_cast<uint32_t>(Bytes[11]) << 24;
}

/// Controls where every pin of \p Key holds, everything else at the
/// shader defaults.
std::vector<float> admissibleControls(const ShaderInfo &Info,
                                      const VariantKey &Key) {
  std::vector<float> Controls = ShaderLab::defaultControls(Info);
  for (const VariantPin &Pin : Key.Pins)
    Controls[Pin.ParamIndex - ShaderInfo::NumPixelParams] =
        paramPropValue(Pin.Prop);
  return Controls;
}

constexpr ExecTier kTiers[] = {ExecTier::Switch, ExecTier::Batched};

/// A small branchy fragment in the engine's calling convention: `mode`
/// is a fixed parameter used only under a branch condition, so pinning
/// it settles the branch.
const char *BranchySource = R"(
vec3 branchy(vec2 uv, vec3 P, vec3 N, vec3 I, float gain, float mode) {
  vec3 base = N * 0.5 + vec3(0.5, 0.5, 0.5);
  float w = 0.0;
  if (mode > 0.5) {
    w = uv.x * gain + noise(P);
  } else {
    w = uv.y + gain * 0.25;
  }
  return base * (w + 1.0);
}
)";

//===----------------------------------------------------------------------===//
// VariantKey: canonical form, admissibility, selection
//===----------------------------------------------------------------------===//

TEST(VariantKey, CanonicalizeSortsAndDedups) {
  VariantKey Key;
  Key.Pins = {{7, ParamProp::PP_One},
              {4, ParamProp::PP_Zero},
              {7, ParamProp::PP_Zero}, // duplicate index: first kept
              {5, ParamProp::PP_One}};
  Key.canonicalize();
  ASSERT_EQ(Key.Pins.size(), 3u);
  EXPECT_EQ(Key.Pins[0].ParamIndex, 4u);
  EXPECT_EQ(Key.Pins[1].ParamIndex, 5u);
  EXPECT_EQ(Key.Pins[2].ParamIndex, 7u);
  EXPECT_EQ(Key.Pins[2].Prop, ParamProp::PP_One);
  EXPECT_EQ(Key.specificity(), 3u);
  EXPECT_FALSE(Key.isGeneric());

  VariantKey Generic;
  EXPECT_TRUE(Generic.isGeneric());
  EXPECT_NE(Key.hash(), Generic.hash());
}

TEST(VariantKey, AdmissibilityIsBitExact) {
  VariantKey Zero;
  Zero.Pins = {{4, ParamProp::PP_Zero}};
  VariantKey One;
  One.Pins = {{5, ParamProp::PP_One}};

  EXPECT_TRUE(Zero.admits({0.0f, 2.0f}, 4));
  EXPECT_TRUE(One.admits({0.0f, 1.0f}, 4));
  EXPECT_FALSE(Zero.admits({0.1f, 2.0f}, 4));
  EXPECT_FALSE(One.admits({0.0f, 1.0f + 1e-7f}, 4));
  // -0.0f == 0.0f numerically, but the contract is bit-equality: the
  // folded literal 0.0f would change downstream bit patterns (1/x,
  // copysign), so -0.0f must stay on the generic path.
  EXPECT_FALSE(Zero.admits({-0.0f, 2.0f}, 4));
  // Pins below FirstParam (per-pixel inputs) or past the vector never
  // admit.
  VariantKey Pixel;
  Pixel.Pins = {{2, ParamProp::PP_Zero}};
  EXPECT_FALSE(Pixel.admits({0.0f, 0.0f}, 4));
  VariantKey Past;
  Past.Pins = {{9, ParamProp::PP_Zero}};
  EXPECT_FALSE(Past.admits({0.0f, 0.0f}, 4));
  // The generic key admits everything.
  EXPECT_TRUE(VariantKey().admits({3.5f}, 4));
}

TEST(VariantKey, SelectionPicksMostSpecificAdmissible) {
  VariantKey Generic;
  VariantKey A; // p4=0
  A.Pins = {{4, ParamProp::PP_Zero}};
  VariantKey B; // p4=0, p5=1
  B.Pins = {{4, ParamProp::PP_Zero}, {5, ParamProp::PP_One}};
  std::vector<VariantKey> Keys = {Generic, A, B};

  auto Best = selectVariant(Keys, {0.0f, 1.0f}, 4);
  ASSERT_TRUE(Best.has_value());
  EXPECT_EQ(*Best, 2u); // both pins hold: the two-pin key wins

  Best = selectVariant(Keys, {0.0f, 0.5f}, 4);
  ASSERT_TRUE(Best.has_value());
  EXPECT_EQ(*Best, 1u); // only p4=0 holds

  Best = selectVariant(Keys, {2.0f, 1.0f}, 4);
  ASSERT_TRUE(Best.has_value());
  EXPECT_EQ(*Best, 0u); // only the generic admits

  // Ties break toward the earlier key.
  std::vector<VariantKey> Tie = {A, A};
  Best = selectVariant(Tie, {0.0f}, 4);
  ASSERT_TRUE(Best.has_value());
  EXPECT_EQ(*Best, 0u);
}

TEST(VariantKey, LabelsNameTheParameters) {
  std::vector<std::string> Names = {"gain", "mode"};
  VariantKey Key;
  Key.Pins = {{4, ParamProp::PP_Zero}, {5, ParamProp::PP_One}};
  EXPECT_EQ(Key.label(Names, 4), "gain=0,mode=1");
  EXPECT_EQ(VariantKey().label(Names, 4), "generic");
}

TEST(VariantKey, ProposalPinsVaryingParametersFirst) {
  auto Unit = parseUnit(BranchySource);
  ASSERT_TRUE(Unit->ok()) << Unit->Diags.str();
  Function *F = Unit->Prog->findFunction("branchy");
  ASSERT_NE(F, nullptr);

  auto Keys = proposeVariantKeys(F, {"gain"}, 8);
  ASSERT_GE(Keys.size(), 2u);
  // The first proposals pin the varying parameter (index 4): that is
  // where the reader savings are.
  VarDecl *Gain = F->findParam("gain");
  ASSERT_NE(Gain, nullptr);
  EXPECT_EQ(Keys[0].Pins.size(), 1u);
  EXPECT_EQ(Keys[0].Pins[0].ParamIndex, 4u);
  EXPECT_EQ(Keys[1].Pins[0].ParamIndex, 4u);
  // `mode` only appears under a branch condition; it is proposed after
  // the varying pins.
  bool SawMode = false;
  for (const VariantKey &K : Keys)
    for (const VariantPin &Pin : K.Pins)
      SawMode |= Pin.ParamIndex == 5u;
  EXPECT_TRUE(SawMode);
}

//===----------------------------------------------------------------------===//
// The property fold
//===----------------------------------------------------------------------===//

TEST(PropertyFold, SubstitutesFoldsAndSettles) {
  auto Unit = parseUnit(BranchySource);
  ASSERT_TRUE(Unit->ok()) << Unit->Diags.str();
  Function *F = Unit->Prog->findFunction("branchy");
  VarDecl *Mode = F->findParam("mode");
  ASSERT_NE(Mode, nullptr);

  ConstantFoldStats Stats =
      constantFoldWithPins(F, Unit->Ctx, {{Mode, 0.0f}});
  EXPECT_GT(Stats.SubstitutedRefs, 0u);
  EXPECT_GT(Stats.FoldedExprs, 0u); // 0.0 > 0.5 folds
  EXPECT_EQ(Stats.SettledBranches, 1u); // the if settles to the else arm
}

TEST(PropertyFold, FoldedFragmentStaysBitIdenticalOnAdmissibleInputs) {
  auto Folded = parseUnit(BranchySource);
  auto Original = parseUnit(BranchySource);
  ASSERT_TRUE(Folded->ok() && Original->ok());
  Function *F = Folded->Prog->findFunction("branchy");
  constantFoldWithPins(F, Folded->Ctx,
                       {{F->findParam("mode"), 0.0f}});

  auto FoldedChunk = compileFunction(*Folded, "branchy");
  auto OriginalChunk = compileFunction(*Original, "branchy");
  ASSERT_TRUE(FoldedChunk && OriginalChunk);

  RenderGrid Grid(8, 6);
  RenderEngine Engine(1);
  Framebuffer A(8, 6), B(8, 6);
  // mode = 0.0 (the pin), gain swept: outputs must agree bit for bit.
  for (float Gain : {0.0f, 0.75f, -2.5f}) {
    ASSERT_TRUE(Engine.plainPass(*OriginalChunk, Grid, {Gain, 0.0f}, &A))
        << Engine.lastTrap();
    ASSERT_TRUE(Engine.plainPass(*FoldedChunk, Grid, {Gain, 0.0f}, &B))
        << Engine.lastTrap();
    expectSameImage(A, B, "gain=" + std::to_string(Gain));
  }
}

TEST(PropertyFold, SkipsReassignedParameters) {
  auto Unit = parseUnit("float f(float p) {\n"
                        "  p = p + 1.0;\n"
                        "  return p * 2.0;\n"
                        "}");
  ASSERT_TRUE(Unit->ok()) << Unit->Diags.str();
  Function *F = Unit->Prog->findFunction("f");
  ConstantFoldStats Stats =
      constantFoldWithPins(F, Unit->Ctx, {{F->findParam("p"), 0.0f}});
  // The parameter is reassigned, so pinning it would be unsound; nothing
  // is substituted.
  EXPECT_EQ(Stats.SubstitutedRefs, 0u);
}

//===----------------------------------------------------------------------===//
// Variant sets and the cross-variant Section 4.3 budget
//===----------------------------------------------------------------------===//

TEST(VariantSet, GenericComesFirstAndPinnedReadersShrink) {
  const ShaderInfo *Info = findShader("marble");
  ASSERT_NE(Info, nullptr);
  auto Unit = parseUnit(Info->Source);
  ASSERT_TRUE(Unit->ok());
  auto Set = specializeAndCompileVariants(*Unit, Info->Name,
                                          {Info->Controls[0].Name});
  ASSERT_TRUE(Set.has_value()) << Unit->Diags.str();
  ASSERT_GE(Set->Variants.size(), 2u);
  EXPECT_TRUE(Set->Variants[0].Key.isGeneric());
  EXPECT_EQ(Set->Variants[0].Label, "generic");
  EXPECT_FALSE(Set->Table.empty());

  const SpecializationStats &Generic = Set->Variants[0].Compiled.Spec.Stats;
  for (size_t I = 1; I < Set->Variants.size(); ++I) {
    const CompiledVariant &V = Set->Variants[I];
    EXPECT_FALSE(V.Key.isGeneric());
    EXPECT_GT(V.PredictedBenefit, 0.0) << V.Label;
    // Pinning the varying control collapses its dependence cone into the
    // cache: the variant reader does strictly less work.
    EXPECT_LT(V.Compiled.Spec.Stats.ReaderTerms, Generic.ReaderTerms)
        << V.Label;
  }
}

TEST(VariantSet, BudgetEvictsWholeVariantsBeforeRelabeling) {
  const ShaderInfo *Info = findShader("marble");
  auto Unit = parseUnit(Info->Source);
  ASSERT_TRUE(Unit->ok());

  // Unlimited: measure the natural footprint.
  auto Full = specializeAndCompileVariants(*Unit, Info->Name,
                                           {Info->Controls[0].Name});
  ASSERT_TRUE(Full.has_value());
  ASSERT_GE(Full->Variants.size(), 2u);
  const unsigned GenericBytes =
      Full->Variants[0].Compiled.Spec.Layout.totalBytes();

  // A budget that fits the generic variant but not the whole set: whole
  // variants are evicted, the generic layout is untouched.
  VariantSetOptions VOptions;
  VOptions.TotalCacheByteLimit = Full->TotalCacheBytes - 1;
  auto Squeezed = specializeAndCompileVariants(
      *Unit, Info->Name, {Info->Controls[0].Name}, {}, VOptions);
  ASSERT_TRUE(Squeezed.has_value());
  EXPECT_GT(Squeezed->VariantsEvicted, 0u);
  EXPECT_LE(Squeezed->TotalCacheBytes, *VOptions.TotalCacheByteLimit);
  EXPECT_LT(Squeezed->Variants.size(), Full->Variants.size());
  EXPECT_TRUE(Squeezed->Variants[0].Key.isGeneric());
  EXPECT_EQ(Squeezed->Variants[0].Compiled.Spec.Layout.totalBytes(),
            GenericBytes);

  // A budget below even the generic footprint: every pinned variant goes,
  // then the classic single-variant Section 4.3 relabeling kicks in.
  ASSERT_GT(GenericBytes, 4u);
  VOptions.TotalCacheByteLimit = GenericBytes - 4;
  auto Tiny = specializeAndCompileVariants(
      *Unit, Info->Name, {Info->Controls[0].Name}, {}, VOptions);
  ASSERT_TRUE(Tiny.has_value());
  ASSERT_EQ(Tiny->Variants.size(), 1u);
  EXPECT_TRUE(Tiny->Variants[0].Key.isGeneric());
  EXPECT_LE(Tiny->Variants[0].Compiled.Spec.Layout.totalBytes(),
            *VOptions.TotalCacheByteLimit);
  EXPECT_LE(Tiny->TotalCacheBytes, *VOptions.TotalCacheByteLimit);
}

TEST(VariantSet, ExplicitKeysAreBuiltVerbatimAndValidated) {
  auto Unit = parseUnit(BranchySource);
  ASSERT_TRUE(Unit->ok());

  VariantSetOptions VOptions;
  VariantKey Mode0;
  Mode0.Pins = {{5, ParamProp::PP_Zero}}; // mode=0
  VOptions.ExplicitKeys = {Mode0};
  auto Set =
      specializeAndCompileVariants(*Unit, "branchy", {"gain"}, {}, VOptions);
  ASSERT_TRUE(Set.has_value()) << Unit->Diags.str();
  ASSERT_EQ(Set->Variants.size(), 2u);
  EXPECT_EQ(Set->Variants[1].Label, "mode=0");
  // The pinned branch settles in this variant.
  EXPECT_EQ(Set->Variants[1].Fold.SettledBranches, 1u);
  EXPECT_LT(Set->Variants[1].Compiled.Spec.Stats.ReaderBranchStmts +
                Set->Variants[1].Compiled.Spec.Stats.LoaderBranchStmts,
            Set->Variants[0].Compiled.Spec.Stats.ReaderBranchStmts +
                Set->Variants[0].Compiled.Spec.Stats.LoaderBranchStmts);

  // A pin on a non-float (per-pixel) parameter is invalid.
  VariantKey Bad;
  Bad.Pins = {{1, ParamProp::PP_Zero}}; // P: vec3
  VOptions.ExplicitKeys = {Bad};
  EXPECT_FALSE(
      specializeAndCompileVariants(*Unit, "branchy", {"gain"}, {}, VOptions)
          .has_value());

  // So is a pin past the parameter list.
  VariantKey Past;
  Past.Pins = {{17, ParamProp::PP_One}};
  VOptions.ExplicitKeys = {Past};
  EXPECT_FALSE(
      specializeAndCompileVariants(*Unit, "branchy", {"gain"}, {}, VOptions)
          .has_value());
}

//===----------------------------------------------------------------------===//
// The differential harness: every variant x tier x thread count
//===----------------------------------------------------------------------===//

/// For every variant of \p Set: render at the variant's admissible
/// controls and demand bit-identical framebuffers against the generic
/// reader AND the unspecialized original, under every execution tier and
/// thread count, with a bit-identical arena everywhere.
void runDifferential(const CompiledVariantSet &Set, const Chunk &Original,
                     const std::vector<float> &DefaultControls,
                     const std::string &What) {
  RenderGrid Grid(16, 12);
  for (const CompiledVariant &V : Set.Variants) {
    std::vector<float> Controls = DefaultControls;
    for (const VariantPin &Pin : V.Key.Pins)
      Controls[Pin.ParamIndex - RenderEngine::NumPixelParams] =
          paramPropValue(Pin.Prop);
    ASSERT_TRUE(V.Key.admits(Controls, RenderEngine::NumPixelParams));

    // References at switch@1: the unspecialized original and the generic
    // reader, plus this variant's arena.
    RenderEngine Ref(1);
    Ref.setExecTier(ExecTier::Switch);
    Framebuffer Plain(Grid.width(), Grid.height());
    ASSERT_TRUE(Ref.plainPass(Original, Grid, Controls, &Plain))
        << What << "/" << V.Label << ": " << Ref.lastTrap();

    // A request at these controls that may not pin is built generic, and
    // a miss replies with that build's loader frame.
    const CompiledVariant &Generic = Set.Variants[0];
    CacheArena GenericArena;
    Framebuffer GenericLoaded(Grid.width(), Grid.height());
    Framebuffer GenericFrame(Grid.width(), Grid.height());
    ASSERT_TRUE(Ref.loaderPass(Generic.Compiled.LoaderChunk,
                               Generic.Compiled.Spec.Layout, Grid, Controls,
                               GenericArena, &GenericLoaded));
    expectSameImage(Plain, GenericLoaded,
                    What + "/" + V.Label + " generic (loader)");
    ASSERT_TRUE(Ref.readerPass(Generic.Compiled.ReaderChunk, Grid, Controls,
                               GenericArena, &GenericFrame));
    expectSameImage(Plain, GenericFrame, What + "/" + V.Label + " generic");

    CacheArena RefArena;
    ASSERT_TRUE(Ref.loaderPass(V.Compiled.LoaderChunk, V.Compiled.Spec.Layout,
                               Grid, Controls, RefArena));
    const ArenaBuffer RefBytes = arenaBytes(RefArena);

    for (ExecTier Tier : kTiers) {
      for (unsigned Threads : {1u, 4u}) {
        RenderEngine Engine(Threads);
        Engine.setExecTier(Tier);
        CacheArena Arena;
        Framebuffer Loaded(Grid.width(), Grid.height());
        Framebuffer Frame(Grid.width(), Grid.height());
        const std::string Tag = What + "/" + V.Label + " tier " +
                                execTierName(Tier) + " @" +
                                std::to_string(Threads) + "t";
        ASSERT_TRUE(Engine.loaderPass(V.Compiled.LoaderChunk,
                                      V.Compiled.Spec.Layout, Grid, Controls,
                                      Arena, &Loaded))
            << Tag << ": " << Engine.lastTrap();
        EXPECT_EQ(arenaBytes(Arena), RefBytes) << Tag << ": arena differs";
        // The loader computes the full result too.
        expectSameImage(Plain, Loaded, Tag + " (loader)");
        ASSERT_TRUE(Engine.readerPass(V.Compiled.ReaderChunk, Grid, Controls,
                                      Arena, &Frame))
            << Tag << ": " << Engine.lastTrap();
        expectSameImage(Plain, Frame, Tag + " (reader)");
      }
    }
  }
}

TEST(PolyvariantDifferential, GalleryVariantsMatchEverywhere) {
  for (const char *Name : {"marble", "stripes"}) {
    const ShaderInfo *Info = findShader(Name);
    ASSERT_NE(Info, nullptr);
    auto Unit = parseUnit(Info->Source);
    ASSERT_TRUE(Unit->ok());
    auto Set = specializeAndCompileVariants(*Unit, Info->Name,
                                            {Info->Controls[0].Name});
    ASSERT_TRUE(Set.has_value()) << Unit->Diags.str();
    ASSERT_GE(Set->Variants.size(), 2u) << Name;
    runDifferential(*Set, Set->Variants[0].Compiled.OriginalChunk,
                    ShaderLab::defaultControls(*Info), Name);
  }
}

TEST(PolyvariantDifferential, BranchyFragmentMatchesEverywhere) {
  auto Unit = parseUnit(BranchySource);
  ASSERT_TRUE(Unit->ok());
  VariantSetOptions VOptions;
  VOptions.MaxVariants = 6; // room for gain pins and the mode pins
  auto Set =
      specializeAndCompileVariants(*Unit, "branchy", {"gain"}, {}, VOptions);
  ASSERT_TRUE(Set.has_value()) << Unit->Diags.str();
  ASSERT_GE(Set->Variants.size(), 3u);
  runDifferential(*Set, Set->Variants[0].Compiled.OriginalChunk,
                  {0.6f, 0.7f}, "branchy");
}

//===----------------------------------------------------------------------===//
// Snapshot: version 2 round trip, version 1 backward compatibility
//===----------------------------------------------------------------------===//

/// Builds the marble variant set, runs every loader over \p Grid, and
/// saves a snapshot with the variant payload. Returns the compiled set.
CompiledVariantSet buildAndSaveV2(const ShaderInfo &Info,
                                  const RenderGrid &Grid,
                                  const std::string &Path) {
  auto Unit = parseUnit(Info.Source);
  EXPECT_TRUE(Unit->ok());
  auto Set = specializeAndCompileVariants(*Unit, Info.Name,
                                          {Info.Controls[0].Name});
  EXPECT_TRUE(Set.has_value()) << Unit->Diags.str();
  auto Controls = ShaderLab::defaultControls(Info);

  RenderEngine Engine(1);
  const CompiledVariant &Generic = Set->Variants[0];
  CacheArena GenericArena;
  EXPECT_TRUE(Engine.loaderPass(Generic.Compiled.LoaderChunk,
                                Generic.Compiled.Spec.Layout, Grid, Controls,
                                GenericArena));

  std::vector<SnapshotVariant> SnapVariants;
  for (CompiledVariant &V : Set->Variants) {
    if (V.Key.isGeneric())
      continue;
    SnapshotVariant SV;
    SV.Key = V.Key;
    SV.Label = V.Label;
    SV.Layout = V.Compiled.Spec.Layout;
    SV.Loader = V.Compiled.LoaderChunk;
    SV.Reader = V.Compiled.ReaderChunk;
    CacheArena Arena;
    EXPECT_TRUE(
        Engine.loaderPass(SV.Loader, SV.Layout, Grid, Controls, Arena));
    SV.ArenaPixels = Arena.pixelCount();
    SV.ArenaStride = Arena.strideBytes();
    SV.ArenaBytes = arenaBytes(Arena);
    SnapVariants.push_back(std::move(SV));
  }
  EXPECT_FALSE(SnapVariants.empty());

  SnapshotMeta Meta = SnapshotMeta::fromOptions({});
  Meta.FragmentName = Info.Name;
  Meta.VaryingParams = {Info.Controls[0].Name};
  Meta.GridWidth = Grid.width();
  Meta.GridHeight = Grid.height();
  Meta.Controls = Controls;
  std::string Error;
  EXPECT_TRUE(RenderEngine::saveSnapshot(
      Path, Meta, Generic.Compiled.LoaderChunk, Generic.Compiled.ReaderChunk,
      Generic.Compiled.Spec.Layout, GenericArena, SnapVariants, &Error))
      << Error;
  return std::move(*Set);
}

TEST(PolyvariantSnapshot, V2RoundTripsWarmVariantsBitIdentically) {
  const ShaderInfo *Info = findShader("marble");
  ASSERT_NE(Info, nullptr);
  RenderGrid Grid(16, 12);
  const std::string Path = tempPath("variants.dsnap");
  CompiledVariantSet Set = buildAndSaveV2(*Info, Grid, Path);
  EXPECT_EQ(fileVersion(Path), 2u);

  std::string Error;
  auto Warm = RenderEngine::fromSnapshot(Path, &Error);
  ASSERT_TRUE(Warm.has_value()) << Error;
  ASSERT_EQ(Warm->Variants.size(), Set.Variants.size() - 1);

  for (const RenderEngine::WarmVariant &WV : Warm->Variants) {
    const CompiledVariant *Cold = Set.find(WV.Key);
    ASSERT_NE(Cold, nullptr) << WV.Label;
    EXPECT_EQ(WV.Label, Cold->Label);
    EXPECT_EQ(WV.Layout.totalBytes(), Cold->Compiled.Spec.Layout.totalBytes());
    EXPECT_EQ(WV.Arena.strideBytes(), WV.Layout.totalBytes());

    // The warm variant must be selected at its admissible controls and
    // render bit-identical to the in-process variant reader.
    std::vector<float> Controls = admissibleControls(*Info, WV.Key);
    auto Selected = Warm->selectVariant(Controls);
    ASSERT_TRUE(Selected.has_value()) << WV.Label;
    EXPECT_EQ(Warm->Variants[*Selected].Key, WV.Key);

    RenderEngine Engine(1);
    CacheArena ColdArena;
    Framebuffer ColdFrame(Grid.width(), Grid.height());
    ASSERT_TRUE(Engine.loaderPass(Cold->Compiled.LoaderChunk,
                                  Cold->Compiled.Spec.Layout, Grid, Controls,
                                  ColdArena));
    ASSERT_TRUE(Engine.readerPass(Cold->Compiled.ReaderChunk, Grid, Controls,
                                  ColdArena, &ColdFrame));
    for (unsigned Threads : {1u, 4u}) {
      RenderEngine WarmEngine(Threads);
      Framebuffer WarmFrame(Grid.width(), Grid.height());
      ASSERT_TRUE(WarmEngine.readerPass(WV.Reader, Warm->Grid, Controls,
                                        WV.Arena, &WarmFrame))
          << WV.Label << ": " << WarmEngine.lastTrap();
      expectSameImage(ColdFrame, WarmFrame,
                      WV.Label + " @" + std::to_string(Threads) + "t");
    }
  }

  // At defaults (no pin holds), selection falls back to the generic unit.
  auto Defaults = ShaderLab::defaultControls(*Info);
  bool AnyAdmits = false;
  for (const RenderEngine::WarmVariant &WV : Warm->Variants)
    AnyAdmits |= WV.Key.admits(Defaults, RenderEngine::NumPixelParams);
  if (!AnyAdmits) {
    EXPECT_FALSE(Warm->selectVariant(Defaults).has_value());
  }
  std::remove(Path.c_str());
}

TEST(PolyvariantSnapshot, VersionOneFilesStillLoadAsGenericOnly) {
  const ShaderInfo *Info = findShader("stripes");
  ASSERT_NE(Info, nullptr);
  RenderGrid Grid(12, 8);
  auto Unit = parseUnit(Info->Source);
  ASSERT_TRUE(Unit->ok());
  auto Spec =
      specializeAndCompile(*Unit, Info->Name, {Info->Controls[0].Name});
  ASSERT_TRUE(Spec.has_value());
  auto Controls = ShaderLab::defaultControls(*Info);

  RenderEngine Engine(1);
  CacheArena Arena;
  ASSERT_TRUE(Engine.loaderPass(Spec->LoaderChunk, Spec->Spec.Layout, Grid,
                                Controls, Arena));
  SnapshotMeta Meta = SnapshotMeta::fromOptions({});
  Meta.FragmentName = Info->Name;
  Meta.VaryingParams = {Info->Controls[0].Name};
  Meta.GridWidth = Grid.width();
  Meta.GridHeight = Grid.height();
  Meta.Controls = Controls;

  const std::string Path = tempPath("v1compat.dsnap");
  std::string Error;
  ASSERT_TRUE(RenderEngine::saveSnapshot(Path, Meta, Spec->LoaderChunk,
                                         Spec->ReaderChunk, Spec->Spec.Layout,
                                         Arena, &Error))
      << Error;
  EXPECT_EQ(fileVersion(Path), 2u);

  // A variant-free version-2 file is byte-identical to version 1 except
  // for the version field (the header carries no CRC), so rewriting it
  // yields a genuine pre-polyvariant file.
  {
    std::vector<unsigned char> Image = slurp(Path);
    ASSERT_GE(Image.size(), 12u);
    const uint32_t V1 = 1;
    std::memcpy(Image.data() + 8, &V1, sizeof(V1));
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(reinterpret_cast<const char *>(Image.data()),
              static_cast<std::streamsize>(Image.size()));
  }
  EXPECT_EQ(fileVersion(Path), 1u);

  auto Warm = RenderEngine::fromSnapshot(Path, &Error);
  ASSERT_TRUE(Warm.has_value()) << Error;
  EXPECT_TRUE(Warm->Variants.empty());
  EXPECT_FALSE(Warm->selectVariant(Controls).has_value());

  Framebuffer Cold(Grid.width(), Grid.height());
  Framebuffer WarmFrame(Grid.width(), Grid.height());
  ASSERT_TRUE(Engine.readerPass(Spec->ReaderChunk, Grid, Controls, Arena,
                                &Cold));
  ASSERT_TRUE(Engine.readerPass(Warm->Reader, Warm->Grid, Controls,
                                Warm->Arena, &WarmFrame));
  expectSameImage(Cold, WarmFrame, "v1 warm start");
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Protocol and service
//===----------------------------------------------------------------------===//

TEST(PolyvariantProtocol, VariantPinsRoundTripsAndOldFramesDecodeAsZero) {
  RenderRequest In;
  In.Shader = "marble";
  In.VariantPins = 3;
  ByteWriter W;
  encodeRenderRequest(W, In);

  ByteReader R(W.bytes());
  RenderRequest Out;
  std::string Error;
  ASSERT_TRUE(decodeRenderRequest(R, Out, &Error)) << Error;
  EXPECT_EQ(Out.VariantPins, 3u);

  // A frame from a pre-polyvariant client lacks the trailing field; it
  // must decode with VariantPins = 0, not fail.
  std::vector<unsigned char> Legacy = W.bytes();
  ASSERT_GE(Legacy.size(), 4u);
  Legacy.resize(Legacy.size() - 4);
  ByteReader LegacyReader(Legacy);
  RenderRequest LegacyOut;
  ASSERT_TRUE(decodeRenderRequest(LegacyReader, LegacyOut, &Error)) << Error;
  EXPECT_EQ(LegacyOut.VariantPins, 0u);
}

/// Renders \p Info with the unspecialized original — the ground truth a
/// service reply must match bit-for-bit.
Framebuffer plainReference(const ShaderInfo &Info, unsigned Width,
                           unsigned Height,
                           const std::vector<float> &Controls) {
  auto Unit = parseUnit(Info.Source);
  EXPECT_TRUE(Unit->ok()) << Unit->Diags.str();
  auto Plain = compileFunction(*Unit, Info.Name);
  EXPECT_TRUE(Plain.has_value());
  RenderGrid Grid(Width, Height);
  RenderEngine Engine(1);
  Framebuffer Out(Width, Height);
  EXPECT_TRUE(Engine.plainPass(*Plain, Grid, Controls, &Out))
      << Engine.lastTrap();
  return Out;
}

::testing::AssertionResult sameFrames(const Framebuffer &A,
                                      const Framebuffer &B) {
  if (A.width() != B.width() || A.height() != B.height())
    return ::testing::AssertionFailure() << "dimension mismatch";
  for (unsigned Y = 0; Y < A.height(); ++Y)
    for (unsigned X = 0; X < A.width(); ++X)
      if (std::memcmp(A.at(X, Y).F, B.at(X, Y).F, sizeof(A.at(X, Y).F)) != 0)
        return ::testing::AssertionFailure()
               << "pixel (" << X << "," << Y << ") differs";
  return ::testing::AssertionSuccess();
}

TEST(PolyvariantService, PinnedRequestsServeBitIdenticalFramesAndHitCache) {
  SpecializationService Service;
  const ShaderInfo *Info = findShader("marble");
  ASSERT_NE(Info, nullptr);

  RenderRequest Request;
  Request.Shader = Info->Name;
  Request.Width = 20;
  Request.Height = 12;
  Request.Controls = ShaderLab::defaultControls(*Info);
  Request.Controls[0] = 0.0f; // the varying control sits at a pin value
  Request.VariantPins = 4;

  RenderReply First = Service.render(Request);
  ASSERT_TRUE(First.ok()) << First.Error;
  EXPECT_FALSE(First.CacheHit);
  Framebuffer Reference =
      plainReference(*Info, 20, 12, Request.Controls);
  EXPECT_TRUE(sameFrames(First.toFramebuffer(), Reference));

  // The same pinned request again: a per-variant cache hit, same bits.
  RenderReply Second = Service.render(Request);
  ASSERT_TRUE(Second.ok()) << Second.Error;
  EXPECT_TRUE(Second.CacheHit);
  EXPECT_TRUE(sameFrames(Second.toFramebuffer(), Reference));

  // An unpinned request at the same controls uses a distinct (generic)
  // unit but must produce the same bits.
  RenderRequest Unpinned = Request;
  Unpinned.VariantPins = 0;
  RenderReply Generic = Service.render(Unpinned);
  ASSERT_TRUE(Generic.ok()) << Generic.Error;
  EXPECT_FALSE(Generic.CacheHit);
  EXPECT_TRUE(sameFrames(Generic.toFramebuffer(), Reference));

  // Per-variant accounting: one non-generic variant with a miss and a
  // hit, the generic one with a miss.
  MetricsSnapshot Stats = Service.statsz();
  bool SawPinned = false, SawGeneric = false;
  for (const VariantStat &V : Stats.Variants) {
    if (V.Label == "generic") {
      SawGeneric = true;
      EXPECT_EQ(V.Misses, 1u);
    } else {
      SawPinned = true;
      EXPECT_EQ(V.Misses, 1u);
      EXPECT_EQ(V.Hits, 1u);
    }
  }
  EXPECT_TRUE(SawPinned);
  EXPECT_TRUE(SawGeneric);
}

TEST(PolyvariantService, ControlsOffThePinFallBackToGeneric) {
  SpecializationService Service;
  const ShaderInfo *Info = findShader("stripes");
  ASSERT_NE(Info, nullptr);

  RenderRequest Request;
  Request.Shader = Info->Name;
  Request.Width = 16;
  Request.Height = 10;
  Request.Controls = ShaderLab::defaultControls(*Info);
  // No control at bit-exact 0.0/1.0: even with pins allowed the request
  // canonicalizes to the generic variant. -0.0 must too.
  for (float &C : Request.Controls)
    if (C == 0.0f || C == 1.0f)
      C = 0.37f;
  Request.Controls[0] = -0.0f;
  Request.VariantPins = 4;

  RenderReply Reply = Service.render(Request);
  ASSERT_TRUE(Reply.ok()) << Reply.Error;
  EXPECT_TRUE(sameFrames(Reply.toFramebuffer(),
                         plainReference(*Info, 16, 10, Request.Controls)));
  MetricsSnapshot Stats = Service.statsz();
  ASSERT_EQ(Stats.Variants.size(), 1u);
  EXPECT_EQ(Stats.Variants[0].Label, "generic");
}

TEST(PolyvariantService, StatszJsonCarriesPerVariantCounters) {
  SpecializationService Service;
  const ShaderInfo *Info = findShader("marble");
  RenderRequest Request;
  Request.Shader = Info->Name;
  Request.Controls = ShaderLab::defaultControls(*Info);
  Request.Controls[0] = 1.0f;
  Request.VariantPins = 1;
  ASSERT_TRUE(Service.render(Request).ok());

  std::string Json = Service.statsz().toJson();
  EXPECT_NE(Json.find("\"variants\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"hits\""), std::string::npos) << Json;
  // The single allowed pin lands on the varying control.
  EXPECT_NE(Json.find(Info->Controls[0].Name + "=1"), std::string::npos)
      << Json;
}

} // namespace
