//===- tests/TestArenaLayout.cpp - Arena layout polymorphism tests -----------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The layout-polymorphic CacheArena's contract:
///
///  - differential property: every gallery shader renders bit-identical
///    loader/reader frames — and fills bit-identical *canonical* arena
///    bytes — under every physical layout, every execution tier, and
///    several thread counts;
///  - warm starts: snapshots saved from a mapped arena stay canonical
///    pixel-major on disk and round-trip bit-identically, as do spill
///    store units whose arena is blocked;
///  - cold-slot packing: conditionally-touched slots leave the hot
///    stride without changing a single decoded byte;
///  - the Section 4.3 measured-bytes limiter shrinks the hot working
///    set to the LLC bound without changing results;
///  - the measured `auto` policy (candidates + argmin with hysteresis)
///    and the serde carrying reuse weights across processes.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "engine/CacheArena.h"
#include "engine/RenderEngine.h"
#include "service/SpillStore.h"
#include "shading/ShaderLab.h"
#include "snapshot/Snapshot.h"
#include "specialize/LayoutSerde.h"
#include "vm/VM.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <cstring>

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

/// The logical arena image — layout-independent by construction.
std::vector<unsigned char> canonical(const CacheArena &Arena) {
  ArenaBuffer Bytes = Arena.canonicalBytes();
  return std::vector<unsigned char>(Bytes.begin(), Bytes.end());
}

constexpr ExecTier kTiers[] = {ExecTier::Switch, ExecTier::Batched};

struct NamedLayout {
  const char *Name;
  ArenaLayoutConfig Cfg;
};

/// The layouts the differential suite sweeps: the identity, full
/// struct-of-arrays, a tile size aligned to the engine's work tiles,
/// and a deliberately tile-incompatible block size (the batched tier
/// must fall back to mapped per-lane addressing, not misrender).
const NamedLayout kLayouts[] = {
    {"pixel-major", {ArenaLayout::PixelMajor, 0, false}},
    {"pixel-major/pack", {ArenaLayout::PixelMajor, 0, true}},
    {"slot-major/pack", {ArenaLayout::SlotMajor, 0, true}},
    {"tile-blocked/256/pack", {ArenaLayout::TileBlocked, 256, true}},
    {"tile-blocked/7", {ArenaLayout::TileBlocked, 7, false}},
};

//===----------------------------------------------------------------------===//
// Differential property: layouts x tiers x threads
//===----------------------------------------------------------------------===//

TEST(ArenaLayout, GalleryDifferentialAcrossLayoutsTiersAndThreads) {
  const unsigned W = 9, H = 7;
  ShaderLab Lab(W, H);

  for (const ShaderInfo &Info : shaderGallery()) {
    auto Spec = Lab.specializePartition(Info, 0);
    ASSERT_TRUE(Spec.has_value()) << Lab.lastError();

    // Reference: switch tier over the seed pixel-major arena.
    RenderEngine Ref(1);
    Ref.setExecTier(ExecTier::Switch);
    auto Controls = ShaderLab::defaultControls(Info);
    Framebuffer LoadRef(W, H), ReadRef(W, H);
    ASSERT_TRUE(Spec->load(Ref, Lab.grid(), Controls, &LoadRef))
        << Info.Name << ": " << Ref.lastTrap();
    std::vector<unsigned char> CanonicalRef = canonical(Spec->arena());
    Controls[0] = Info.Controls[0].SweepMax;
    ASSERT_TRUE(Spec->readFrame(Ref, Lab.grid(), Controls, &ReadRef));

    for (const NamedLayout &L : kLayouts) {
      // The loader engine owns the physical arrangement; readers accept
      // whatever the arena carries.
      RenderEngine Loader(1);
      Loader.setArenaLayout(L.Cfg);
      Controls = ShaderLab::defaultControls(Info);
      Framebuffer Load(W, H);
      ASSERT_TRUE(Spec->load(Loader, Lab.grid(), Controls, &Load))
          << Info.Name << " [" << L.Name << "]: " << Loader.lastTrap();
      expectSameImage(LoadRef, Load,
                      "loader " + Info.Name + " [" + L.Name + "]");
      EXPECT_EQ(canonical(Spec->arena()), CanonicalRef)
          << Info.Name << " [" << L.Name
          << "]: canonical arena bytes diverge from pixel-major";

      Controls[0] = Info.Controls[0].SweepMax;
      for (ExecTier Tier : kTiers) {
        for (unsigned Threads : {1u, 4u}) {
          RenderEngine Engine(Threads);
          Engine.setExecTier(Tier);
          std::string Tag = Info.Name + " [" + L.Name + " " +
                            execTierName(Tier) + " @" +
                            std::to_string(Threads) + "t]";
          Framebuffer Read(W, H);
          ASSERT_TRUE(Spec->readFrame(Engine, Lab.grid(), Controls, &Read))
              << Tag << ": " << Engine.lastTrap();
          expectSameImage(ReadRef, Read, "reader " + Tag);
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// CacheArena mechanics
//===----------------------------------------------------------------------===//

/// A little three-slot layout (float, vec3, float) with the middle slot
/// cold — enough structure to exercise packing and word maps.
CacheLayout threeSlotShape() {
  CacheLayout Shape;
  Shape.addSlot(Type(TypeKind::TK_Float));
  Shape.addSlot(Type(TypeKind::TK_Vec3));
  Shape.addSlot(Type(TypeKind::TK_Float));
  Shape.setReuseWeight(0, 2.0f);
  Shape.setReuseWeight(1, 0.25f); // cold
  Shape.setReuseWeight(2, 1.0f);
  return Shape;
}

/// Fills every slot of every pixel with a recognizable pattern through
/// the arena's own views.
void fillPattern(CacheArena &Arena) {
  for (unsigned P = 0; P < Arena.pixelCount(); ++P) {
    CacheView View = Arena.view(P);
    for (const CacheSlot &S : Arena.layout().slots()) {
      Value V = S.SlotType.kind() == TypeKind::TK_Vec3
                    ? Value::makeVec3(P + 0.5f, S.Index + 0.25f, P * 2.0f)
                    : Value::makeFloat(P * 10.0f + S.Index);
      View.store(S.Offset, V);
    }
  }
}

TEST(ArenaLayout, MappedViewsDecodeIdenticallyToDense) {
  CacheLayout Shape = threeSlotShape();
  CacheArena Dense(30, Shape);
  fillPattern(Dense);
  EXPECT_TRUE(Dense.denseViews());
  EXPECT_EQ(Dense.physicalBytes(), Dense.totalBytes());

  for (const NamedLayout &L : kLayouts) {
    CacheArena Mapped(30, Shape, L.Cfg);
    fillPattern(Mapped);
    EXPECT_EQ(canonical(Mapped), canonical(Dense)) << L.Name;
    for (unsigned P = 0; P < 30; P += 7) {
      auto A = Dense.decode(P), B = Mapped.decode(P);
      ASSERT_EQ(A.size(), B.size());
      for (size_t I = 0; I < A.size(); ++I)
        EXPECT_TRUE(bitIdentical(A[I], B[I]))
            << L.Name << ": pixel " << P << " slot " << I;
    }
  }
}

TEST(ArenaLayout, PackColdShrinksTheHotStrideOnly) {
  CacheLayout Shape = threeSlotShape();
  ASSERT_TRUE(Shape.hasColdSlots());
  EXPECT_EQ(Shape.totalBytes(), 20u);
  EXPECT_EQ(Shape.hotBytes(), 8u); // vec3 slot is cold

  CacheArena Packed(16, Shape, {ArenaLayout::SlotMajor, 0, true});
  EXPECT_EQ(Packed.hotStrideBytes(), 8u);
  EXPECT_EQ(Packed.strideBytes(), 20u);
  CacheArena Unpacked(16, Shape, {ArenaLayout::SlotMajor, 0, false});
  EXPECT_EQ(Unpacked.hotStrideBytes(), 20u);

  // Packing is physical only: canonical images agree byte for byte.
  fillPattern(Packed);
  fillPattern(Unpacked);
  EXPECT_EQ(canonical(Packed), canonical(Unpacked));
}

TEST(ArenaLayout, BatchCompatibilityFollowsBlockGeometry) {
  CacheLayout Shape = threeSlotShape();

  CacheArena Dense(100, Shape);
  EXPECT_TRUE(Dense.batchCompatible(64)); // dense: always
  EXPECT_EQ(Dense.blockPixels(), 1u);

  CacheArena Soa(100, Shape, {ArenaLayout::SlotMajor, 0, false});
  EXPECT_FALSE(Soa.denseViews());
  EXPECT_EQ(Soa.blockPixels(), 100u); // one block covers the grid
  EXPECT_TRUE(Soa.batchCompatible(64));

  CacheArena Blocked(100, Shape, {ArenaLayout::TileBlocked, 8, false});
  EXPECT_EQ(Blocked.blockPixels(), 8u);
  EXPECT_TRUE(Blocked.batchCompatible(4));  // 8 % 4 == 0
  EXPECT_TRUE(Blocked.batchCompatible(8));
  EXPECT_FALSE(Blocked.batchCompatible(3)); // tiles straddle blocks
  // Mapped arenas pad to whole blocks plus tail slack.
  EXPECT_GE(Blocked.physicalBytes(),
            Blocked.totalBytes() + CacheArena::kTailSlackBytes);
}

TEST(ArenaLayout, RestoreReblocksAndMoveRestoreAdoptsIdentity) {
  CacheLayout Shape = threeSlotShape();
  CacheArena Source(25, Shape, {ArenaLayout::TileBlocked, 5, true});
  fillPattern(Source);
  ArenaBuffer Canon = Source.canonicalBytes();

  // Copy-restore into a different blocking: same canonical image.
  CacheArena Blocked;
  ASSERT_TRUE(Blocked.restore(25, Shape, Canon.data(), Canon.size(),
                              {ArenaLayout::SlotMajor, 0, true}));
  EXPECT_EQ(canonical(Blocked), canonical(Source));

  // Wrong size is rejected outright.
  CacheArena Bad;
  EXPECT_FALSE(Bad.restore(25, Shape, Canon.data(), Canon.size() - 4));
  EXPECT_EQ(Bad.pixelCount(), 0u);

  // Move-restore with the identity layout adopts the buffer: no copy,
  // same backing pointer.
  const unsigned char *Donor = Canon.data();
  CacheArena Adopted;
  ASSERT_TRUE(Adopted.restore(25, Shape, std::move(Canon)));
  EXPECT_TRUE(Adopted.denseViews());
  EXPECT_EQ(Adopted.raw(), Donor);
  EXPECT_EQ(canonical(Adopted), canonical(Source));
}

//===----------------------------------------------------------------------===//
// Warm starts from a non-default layout
//===----------------------------------------------------------------------===//

TEST(ArenaLayout, SnapshotSavedFromMappedArenaRoundTrips) {
  const ShaderInfo *Info = findShader("marble");
  ASSERT_NE(Info, nullptr);
  RenderGrid Grid(10, 8);
  const std::string Path = testing::TempDir() + "dspec_arena_layout.dsnap";

  auto Unit = parseUnit(Info->Source);
  ASSERT_TRUE(Unit->ok()) << Unit->Diags.str();
  auto Spec =
      specializeAndCompile(*Unit, Info->Name, {Info->Controls[0].Name});
  ASSERT_TRUE(Spec.has_value());
  auto Controls = ShaderLab::defaultControls(*Info);

  // Load under full struct-of-arrays — the furthest layout from the
  // canonical on-disk form.
  RenderEngine Engine(1);
  Engine.setArenaLayout({ArenaLayout::SlotMajor, 0, true});
  CacheArena Arena;
  Framebuffer Cold(10, 8);
  ASSERT_TRUE(Engine.loaderPass(Spec->LoaderChunk, Spec->Spec.Layout, Grid,
                                Controls, Arena))
      << Engine.lastTrap();
  ASSERT_FALSE(Arena.denseViews());
  ASSERT_TRUE(
      Engine.readerPass(Spec->ReaderChunk, Grid, Controls, Arena, &Cold))
      << Engine.lastTrap();

  SnapshotMeta Meta;
  Meta.FragmentName = Info->Name;
  Meta.VaryingParams = {Info->Controls[0].Name};
  Meta.GridWidth = Grid.width();
  Meta.GridHeight = Grid.height();
  Meta.Controls = Controls;
  std::string Error;
  ASSERT_TRUE(RenderEngine::saveSnapshot(Path, Meta, Spec->LoaderChunk,
                                         Spec->ReaderChunk, Spec->Spec.Layout,
                                         Arena, &Error))
      << Error;

  auto Warm = RenderEngine::fromSnapshot(Path, &Error);
  ASSERT_TRUE(Warm.has_value()) << Error;
  // The ARENA section is canonical pixel-major regardless of how the
  // saving engine blocked its arena.
  EXPECT_EQ(canonical(Warm->Arena), canonical(Arena));

  for (ExecTier Tier : kTiers) {
    RenderEngine Reader(2);
    Reader.setExecTier(Tier);
    Framebuffer WarmFb(10, 8);
    ASSERT_TRUE(Reader.readerPass(Warm->Reader, Warm->Grid, Controls,
                                  Warm->Arena, &WarmFb))
        << execTierName(Tier) << ": " << Reader.lastTrap();
    expectSameImage(Cold, WarmFb,
                    std::string("warm ") + execTierName(Tier));
  }
  std::remove(Path.c_str());
}

TEST(ArenaLayout, SpillRoundTripsAUnitWithABlockedArena) {
  const ShaderInfo *Info = findShader("wood");
  ASSERT_NE(Info, nullptr);
  auto Ast = parseUnit(Info->Source);
  ASSERT_TRUE(Ast->ok()) << Ast->Diags.str();
  auto Spec =
      specializeAndCompile(*Ast, Info->Name, {Info->Controls[0].Name});
  ASSERT_TRUE(Spec.has_value());

  auto U = std::make_shared<SpecializationUnit>(6u, 5u);
  U->Shader = Info->Name;
  U->Loader = Spec->LoaderChunk;
  U->Reader = Spec->ReaderChunk;
  U->Layout = Spec->Spec.Layout;
  U->Varying = {Info->Controls[0].Name};
  U->LoadControls = ShaderLab::defaultControls(*Info);
  RenderEngine Engine(1);
  Engine.setArenaLayout({ArenaLayout::TileBlocked, 10, true});
  ASSERT_TRUE(Engine.loaderPass(U->Loader, U->Layout, U->Grid,
                                U->LoadControls, U->Arena))
      << Engine.lastTrap();

  const std::string Dir = testing::TempDir() + "dspec_spill_layout";
  SpillStore Store;
  std::string Error;
  ASSERT_TRUE(Store.open(Dir, /*MaxBytes=*/0, &Error)) << Error;
  UnitKey Key;
  Key.Shader = Info->Name;
  Key.InvariantHash =
      invariantHash(*Info, 6, 5, U->Varying, U->LoadControls);
  Store.store(Key, U);
  ASSERT_EQ(Store.stats().Errors, 0u);

  auto Back = Store.load(Key, &Error);
  ASSERT_NE(Back, nullptr) << Error;
  EXPECT_EQ(canonical(Back->Arena), canonical(U->Arena));

  Framebuffer Direct(6, 5), Restored(6, 5);
  RenderEngine Reader(1);
  ASSERT_TRUE(Reader.readerPass(U->Reader, U->Grid, U->LoadControls, U->Arena,
                                &Direct))
      << Reader.lastTrap();
  ASSERT_TRUE(Reader.readerPass(Back->Reader, Back->Grid, U->LoadControls,
                                Back->Arena, &Restored))
      << Reader.lastTrap();
  expectSameImage(Direct, Restored, "spill round trip");
  std::remove(Store.pathFor(Key).c_str());
}

//===----------------------------------------------------------------------===//
// Cold-slot packing from a real specialization
//===----------------------------------------------------------------------===//

// The invariant term under the dynamic conditional is speculatively
// cached and touched on only some pixels — the specializer stamps it
// with a sub-unit reuse weight, making it the packing's cold column.
const char *ColdBranchSource = R"(
vec3 coldshader(vec2 uv, vec3 P, vec3 N, vec3 I,
                float freq, float gain, float v) {
  float base = v * (uv.x + uv.y);
  float extra = 0.0;
  if (v > 0.5) {
    extra = pow(freq, gain) * sin(freq * uv.x) + cos(gain * uv.y);
  }
  return clamp(vec3(base + extra, base * 0.5, extra), 0.0, 1.0);
})";

TEST(ArenaLayout, SpecializerStampsColdSlotsAndPackingPreservesFrames) {
  auto Unit = parseUnit(ColdBranchSource);
  ASSERT_TRUE(Unit->ok()) << Unit->Diags.str();
  SpecializerOptions Options;
  Options.AllowSpeculation = true;
  auto Spec = specializeAndCompile(*Unit, "coldshader", {"v"}, Options);
  ASSERT_TRUE(Spec.has_value());

  const CacheLayout &Layout = Spec->Spec.Layout;
  ASSERT_TRUE(Layout.hasColdSlots());
  EXPECT_LT(Layout.hotBytes(), Layout.totalBytes());

  RenderGrid Grid(12, 9);
  // Sweep v across the branch threshold so both arms execute somewhere.
  const std::vector<float> Sweep = {0.1f, 0.75f, 1.5f};
  for (float V : Sweep) {
    std::vector<float> Controls = {2.0f, 1.3f, V};

    RenderEngine Dense(1);
    CacheArena DenseArena;
    Framebuffer DenseFb(12, 9);
    ASSERT_TRUE(Dense.loaderPass(Spec->LoaderChunk, Layout, Grid, Controls,
                                 DenseArena))
        << Dense.lastTrap();
    ASSERT_TRUE(Dense.readerPass(Spec->ReaderChunk, Grid, Controls,
                                 DenseArena, &DenseFb))
        << Dense.lastTrap();

    RenderEngine Packed(1);
    Packed.setArenaLayout({ArenaLayout::SlotMajor, 0, true});
    CacheArena PackedArena;
    Framebuffer PackedFb(12, 9);
    ASSERT_TRUE(Packed.loaderPass(Spec->LoaderChunk, Layout, Grid, Controls,
                                  PackedArena))
        << Packed.lastTrap();
    EXPECT_EQ(PackedArena.hotStrideBytes(), Layout.hotBytes());
    EXPECT_LT(PackedArena.hotStrideBytes(), PackedArena.strideBytes());
    ASSERT_TRUE(Packed.readerPass(Spec->ReaderChunk, Grid, Controls,
                                  PackedArena, &PackedFb))
        << Packed.lastTrap();

    EXPECT_EQ(canonical(PackedArena), canonical(DenseArena)) << "v=" << V;
    expectSameImage(DenseFb, PackedFb, "cold packing v=" + std::to_string(V));
  }
}

//===----------------------------------------------------------------------===//
// Section 4.3: the measured-bytes working-set limiter
//===----------------------------------------------------------------------===//

const char *ThreeTermSource = R"(
float f(float a, float b, float c, float v) {
  float cheap = a + a + a + a;
  float medium = sin(b) * cos(b);
  float costly = pow(a, b) * pow(b, c) + sqrt(a * b * c);
  return (cheap + v) * (medium + v) * (costly + v);
})";

TEST(ArenaLayout, WorkingSetLimiterFitsTheHotSetToTheLlcBound) {
  // Unlimited: three 4-byte slots, all hot.
  {
    auto Unit = parseUnit(ThreeTermSource);
    auto Spec = specializeAndCompile(*Unit, "f", {"v"});
    ASSERT_TRUE(Spec.has_value());
    EXPECT_EQ(Spec->Spec.Layout.hotBytes(), 12u);
  }

  // A bound of 8 bytes/pixel worth of LLC across 1000 arena pixels must
  // evict hot terms until the streamed working set fits.
  VM Machine;
  std::vector<Value> Args = {Value::makeFloat(1.3f), Value::makeFloat(2.1f),
                             Value::makeFloat(0.7f), Value::makeFloat(5.0f)};
  auto Reference = parseUnit(ThreeTermSource);
  auto Baseline = compileFunction(*Reference, "f");
  auto Expected = Machine.run(*Baseline, Args);
  ASSERT_TRUE(Expected.ok());

  // 8K and 4K bounds force partial evictions; a 1-byte bound (the
  // smallest still-enabled value — zero disables the pass) empties the
  // hot set entirely.
  for (uint64_t Bound : {8000u, 4000u, 1u}) {
    auto Unit = parseUnit(ThreeTermSource);
    SpecializerOptions Options;
    Options.LlcByteBound = Bound;
    Options.ArenaPixels = 1000;
    auto Spec = specializeAndCompile(*Unit, "f", {"v"}, Options);
    ASSERT_TRUE(Spec.has_value());
    EXPECT_LE(static_cast<uint64_t>(Spec->Spec.Layout.hotBytes()) * 1000,
              Bound)
        << "bound " << Bound << "B";

    CacheArena Slots(1, Spec->Spec.Layout);
    auto Load = Machine.run(Spec->LoaderChunk, Args, Slots.view(0));
    auto Read = Machine.run(Spec->ReaderChunk, Args, Slots.view(0));
    ASSERT_TRUE(Load.ok()) << Load.TrapMessage;
    ASSERT_TRUE(Read.ok()) << Read.TrapMessage;
    EXPECT_TRUE(Read.Result.equals(Expected.Result))
        << "bound " << Bound << "B changed results";
  }

  // A bound the natural working set already fits is a no-op.
  auto Unit = parseUnit(ThreeTermSource);
  SpecializerOptions Options;
  Options.LlcByteBound = 1u << 20;
  Options.ArenaPixels = 1000;
  auto Spec = specializeAndCompile(*Unit, "f", {"v"}, Options);
  ASSERT_TRUE(Spec.has_value());
  EXPECT_EQ(Spec->Spec.Layout.hotBytes(), 12u);
  EXPECT_EQ(Spec->Spec.Stats.LimiterVictims, 0u);
}

//===----------------------------------------------------------------------===//
// Policy helpers: names, detection, candidates, measured argmin
//===----------------------------------------------------------------------===//

TEST(ArenaLayout, NamesRoundTripAndAutoIsNotALayout) {
  for (ArenaLayout L : {ArenaLayout::PixelMajor, ArenaLayout::SlotMajor,
                        ArenaLayout::TileBlocked}) {
    auto Parsed = parseArenaLayout(arenaLayoutName(L));
    ASSERT_TRUE(Parsed.has_value());
    EXPECT_EQ(*Parsed, L);
  }
  EXPECT_FALSE(parseArenaLayout("auto").has_value());
  EXPECT_FALSE(parseArenaLayout("").has_value());
  EXPECT_FALSE(parseArenaLayout("soa").has_value());
}

TEST(ArenaLayout, LlcDetectionNeverReportsZero) {
  EXPECT_GT(detectLlcBytes(), 0u);
  EXPECT_GT(detectLlcBytes(123), 0u);
}

TEST(ArenaLayout, CandidateSetsMatchTierConstraints) {
  for (ExecTier Tier : kTiers) {
    auto Set = arenaLayoutCandidates(Tier, 128);
    ASSERT_GE(Set.size(), 2u) << execTierName(Tier);
    // Identity first: ties break toward the map-free arrangement.
    EXPECT_EQ(Set[0], ArenaLayoutConfig{}) << execTierName(Tier);
    for (const ArenaLayoutConfig &Cfg : Set) {
      if (Cfg.Layout == ArenaLayout::TileBlocked) {
        EXPECT_EQ(Cfg.TilePixels % 128, 0u)
            << execTierName(Tier)
            << ": blocks must stay a multiple of the engine tile";
      }
    }
  }
}

TEST(ArenaLayout, PickArenaLayoutAppliesHysteresis) {
  auto Set = arenaLayoutCandidates(ExecTier::Batched, 128);
  ASSERT_GE(Set.size(), 2u);

  // Within 2% of the incumbent: the earlier, simpler candidate stays.
  auto Within = pickArenaLayout(Set, [&](const ArenaLayoutConfig &Cfg) {
    return Cfg == Set[1] ? 0.99 : 1.0;
  });
  EXPECT_EQ(Within, Set[0]);

  // A clear winner displaces it.
  auto Clear = pickArenaLayout(Set, [&](const ArenaLayoutConfig &Cfg) {
    return Cfg == Set[1] ? 0.90 : 1.0;
  });
  EXPECT_EQ(Clear, Set[1]);

  // Exact ties across the board keep the first candidate.
  auto Tie =
      pickArenaLayout(Set, [](const ArenaLayoutConfig &) { return 1.0; });
  EXPECT_EQ(Tie, Set[0]);

  // An empty candidate list degrades to the identity.
  EXPECT_EQ(pickArenaLayout({}, [](const ArenaLayoutConfig &) { return 1.0; }),
            ArenaLayoutConfig{});
}

//===----------------------------------------------------------------------===//
// Serde: reuse weights across processes
//===----------------------------------------------------------------------===//

TEST(ArenaLayout, LayoutSerdeCarriesReuseWeights) {
  CacheLayout Layout = threeSlotShape();
  ByteWriter Writer;
  serializeLayout(Writer, Layout);

  ByteReader Reader(Writer.bytes());
  CacheLayout Back;
  std::string Error;
  ASSERT_TRUE(deserializeLayout(Reader, Back, Error)) << Error;
  ASSERT_EQ(Back.slotCount(), Layout.slotCount());
  EXPECT_EQ(Back.totalBytes(), Layout.totalBytes());
  EXPECT_EQ(Back.hotBytes(), Layout.hotBytes());
  for (unsigned I = 0; I < Back.slotCount(); ++I) {
    EXPECT_EQ(Back.slot(I).Offset, Layout.slot(I).Offset);
    EXPECT_FLOAT_EQ(Back.slot(I).ReuseWeight, Layout.slot(I).ReuseWeight);
  }
}

TEST(ArenaLayout, VersionOneLayoutsDecodeAllHot) {
  // Hand-build a version-1 payload: slots + total, no weights tail.
  CacheLayout Layout = threeSlotShape();
  ByteWriter Writer;
  Writer.writeU32(Layout.slotCount());
  for (const CacheSlot &Slot : Layout.slots()) {
    Writer.writeU8(static_cast<uint8_t>(Slot.SlotType.kind()));
    Writer.writeU32(Slot.Offset);
  }
  Writer.writeU32(Layout.totalBytes());

  ByteReader Reader(Writer.bytes());
  CacheLayout Back;
  std::string Error;
  ASSERT_TRUE(deserializeLayout(Reader, Back, Error, /*Version=*/1)) << Error;
  ASSERT_EQ(Back.slotCount(), Layout.slotCount());
  // Pre-weights payloads decode as "unknown" — treated hot, never packed.
  EXPECT_FALSE(Back.hasColdSlots());
  EXPECT_EQ(Back.hotBytes(), Back.totalBytes());
  for (unsigned I = 0; I < Back.slotCount(); ++I)
    EXPECT_LT(Back.slot(I).ReuseWeight, 0.0f);
}

} // namespace
