//===- tests/TestExecTiers.cpp - Execution-tier equivalence tests ------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution tiers' contract (docs/ENGINE.md, "Execution tiers"):
/// the decoded/fused ExecChunk and the batched tier are pure speed —
/// every gallery shader renders bit-identical framebuffers and loads
/// bit-identical cache arenas under the switch and batched tiers at
/// every thread count, traps carry the same message everywhere, chunks
/// the batched tier cannot run fall back to the switch tier, and
/// superinstruction fusion never crosses a jump target.
///
//===----------------------------------------------------------------------===//

#include "engine/RenderEngine.h"
#include "lang/Builtins.h"
#include "shading/ShaderLab.h"
#include "vm/ExecChunk.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
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

std::vector<unsigned char> arenaBytes(const CacheArena &Arena) {
  const unsigned char *Raw = Arena.raw();
  return std::vector<unsigned char>(Raw, Raw + Arena.totalBytes());
}

Chunk compileOne(const std::string &Source, const std::string &Name) {
  auto Unit = parseUnit(Source);
  EXPECT_TRUE(Unit->ok()) << Unit->Diags.str();
  auto Code = compileFunction(*Unit, Name);
  EXPECT_TRUE(Code.has_value());
  return *Code;
}

constexpr ExecTier kTiers[] = {ExecTier::Switch, ExecTier::Batched};

/// One batched run of \p Exec over a cache-less tile of four identical
/// lanes, each taking \p Args.
struct TileRun {
  ExecResult R;
  std::vector<Value> Results;
};

TileRun runUniformTile(VM &Machine, const ExecChunk &Exec,
                       const std::vector<Value> &Args) {
  const unsigned Lanes = 4;
  std::vector<Value> LaneArgs;
  for (unsigned L = 0; L < Lanes; ++L)
    LaneArgs.insert(LaneArgs.end(), Args.begin(), Args.end());
  TileRun Out;
  Out.Results.resize(Lanes);
  BatchRequest Req;
  Req.LaneArgs = LaneArgs.data();
  Req.NumArgs = static_cast<unsigned>(Args.size());
  Req.Lanes = Lanes;
  Req.Results = Out.Results.data();
  Out.R = Machine.runBatch(Exec, Req);
  return Out;
}

/// Runs \p Exec batched on a uniform tile and expects every lane to be
/// bit-identical to the switch interpreter's run of \p Code.
void expectTileMatchesSwitch(VM &Machine, const Chunk &Code,
                             const ExecChunk &Exec,
                             const std::vector<Value> &Args,
                             const std::string &What) {
  auto Ref = Machine.run(Code, Args);
  ASSERT_TRUE(Ref.ok()) << What << ": " << Ref.TrapMessage;
  TileRun Tile = runUniformTile(Machine, Exec, Args);
  ASSERT_TRUE(Tile.R.ok()) << What << ": " << Tile.R.TrapMessage;
  ASSERT_FALSE(Tile.R.Diverged) << What;
  for (const Value &Lane : Tile.Results)
    EXPECT_TRUE(bitIdentical(Ref.Result, Lane)) << What;
}

//===----------------------------------------------------------------------===//
// ExecChunk: decoding, fusion, flags
//===----------------------------------------------------------------------===//

TEST(ExecChunk, MirrorRangeMatchesOpcodeNumbering) {
  // Dispatch tables index ExecInstr::Op directly, so the mirror range
  // must track OpCode value-for-value.
  static_assert(static_cast<unsigned>(FusedOp::F_Const) ==
                static_cast<unsigned>(OpCode::OC_Const));
  static_assert(static_cast<unsigned>(FusedOp::F_ReturnVoid) ==
                static_cast<unsigned>(OpCode::OC_ReturnVoid));
  static_assert(static_cast<unsigned>(FusedOp::F_ConstAdd) == kNumBaseOps);
  EXPECT_FALSE(isSuperinstruction(FusedOp::F_ReturnVoid));
  EXPECT_TRUE(isSuperinstruction(FusedOp::F_ConstAdd));
  EXPECT_TRUE(isSuperinstruction(FusedOp::F_GeJf));
}

TEST(ExecChunk, FusesStraightLineIdiomsAndKeepsSemantics) {
  Chunk Code = compileOne("float f(float a) { return a * 2.0 + 1.0; }", "f");
  ExecChunk Exec = buildExecChunk(Code);
  ASSERT_TRUE(Exec.Valid);
  EXPECT_EQ(conditionalBranchCount(Exec), 0u);
  EXPECT_TRUE(Exec.BatchSafe);
  EXPECT_LT(Exec.Code.size(), Code.Code.size())
      << "fusion should shrink the straight-line stream";

  std::vector<unsigned> Histogram = opcodeHistogram(Exec);
  ASSERT_EQ(Histogram.size(), kNumFusedOps);
  unsigned Total = 0;
  for (unsigned N : Histogram)
    Total += N;
  EXPECT_EQ(Total, Exec.Code.size());
  EXPECT_GT(Histogram[static_cast<unsigned>(FusedOp::F_ConstMul)] +
                Histogram[static_cast<unsigned>(FusedOp::F_ConstAdd)],
            0u)
      << "const+mul / const+add are the targeted idioms here";
  EXPECT_FALSE(fusedHistogram(Exec).empty());

  VM Machine;
  for (float X : {0.0f, -3.5f, 1e20f})
    expectTileMatchesSwitch(Machine, Code, Exec, {Value::makeFloat(X)},
                            "a=" + std::to_string(X));
}

TEST(ExecChunk, BranchyChunksStayExecutableAndClassify) {
  Chunk Code = compileOne("int f(int n) {\n"
                          "  int total = 0;\n"
                          "  int i = 0;\n"
                          "  while (i < n) {\n"
                          "    if (i % 2 == 0) { total = total + i; }\n"
                          "    i = i + 1;\n"
                          "  }\n"
                          "  return total;\n"
                          "}",
                          "f");
  ExecChunk Exec = buildExecChunk(Code);
  ASSERT_TRUE(Exec.Valid);
  // Branchy chunks are batch-eligible: a tile whose lanes disagree at the
  // loop exit or the inner if bails to per-pixel execution at run time.
  EXPECT_TRUE(Exec.BatchSafe);
  EXPECT_EQ(conditionalBranchCount(Exec), 2u);

  // Fusion must preserve loop semantics exactly — jump targets are
  // remapped and no pair straddles one. Identical lanes keep every
  // branch uniform, so the whole loop runs batched.
  VM Machine;
  for (int N : {0, 1, 2, 7, 100})
    expectTileMatchesSwitch(Machine, Code, Exec, {Value::makeInt(N)},
                            "n=" + std::to_string(N));
}

TEST(ExecChunk, InvalidChunkIsRejected) {
  Chunk Bad;
  Bad.Name = "bad";
  Bad.ReturnType = Type(TypeKind::TK_Int);
  Bad.Code = {{OpCode::OC_Add, 0, 0, 0}, // stack underflow
              {OpCode::OC_Return, 0, 0, 0}};
  ExecChunk Exec = buildExecChunk(Bad);
  EXPECT_FALSE(Exec.Valid);
  EXPECT_TRUE(Exec.Code.empty());
}

TEST(ExecChunk, GalleryReadersDecodeAndAllBatch) {
  // Every gallery reader must decode, and batch eligibility is exactly
  // effect-freedom — branchy readers (clouds, rings) batch too, and a
  // tile whose lanes disagree at a branch bails at run time.
  ShaderLab Lab(4, 3);
  unsigned BatchSafe = 0, Branchy = 0, Total = 0;
  for (const ShaderInfo &Info : shaderGallery()) {
    auto Spec = Lab.specializePartition(Info, 0);
    ASSERT_TRUE(Spec.has_value()) << Lab.lastError();
    ExecChunk Exec = buildExecChunk(Spec->compiled().ReaderChunk);
    ASSERT_TRUE(Exec.Valid) << Info.Name;
    ++Total;
    if (Exec.BatchSafe)
      ++BatchSafe;
    EXPECT_EQ(Exec.BatchSafe, !Exec.HasEffects) << Info.Name;
    if (conditionalBranchCount(Exec) > 0)
      ++Branchy;
  }
  EXPECT_EQ(Total, 10u);
  EXPECT_EQ(BatchSafe, 10u) << "all gallery readers are effect-free";
  EXPECT_GE(Branchy, 1u) << "clouds/rings loop over octaves";
}

/// A batched run of \p Exec over \p Lanes lanes: each lane takes \p PerLane
/// followed by \p Shared, and \p Shared is passed once as the request's
/// shared arguments.
TileRun runSharedTile(VM &Machine, const ExecChunk &Exec,
                      const std::vector<Value> &PerLane,
                      const std::vector<Value> &Shared, unsigned Lanes = 4) {
  std::vector<Value> LaneArgs;
  for (unsigned L = 0; L < Lanes; ++L)
    LaneArgs.insert(LaneArgs.end(), PerLane.begin(), PerLane.end());
  TileRun Out;
  Out.Results.resize(Lanes);
  BatchRequest Req;
  Req.LaneArgs = LaneArgs.data();
  Req.NumArgs = static_cast<unsigned>(PerLane.size() + Shared.size());
  Req.SharedArgs = Shared.data();
  Req.NumSharedArgs = static_cast<unsigned>(Shared.size());
  Req.Lanes = Lanes;
  Req.Results = Out.Results.data();
  Out.R = Machine.runBatch(Exec, Req);
  return Out;
}

/// f(a, b, c, d, e) = max(c, d) after t = a + b: a and b are read only by
/// load+load, c only by the load half of store+load, d only by load+call,
/// e never, and the local t is stored but never loaded.
Chunk everyLoadFormChunk() {
  Chunk Code;
  Code.Name = "f";
  Code.NumParams = 5;
  Code.LocalTypes.assign(6, TypeKind::TK_Float);
  Code.ReturnType = Type(TypeKind::TK_Float);
  Code.Code = {{OpCode::OC_LoadLocal, 0, 0, 0},
               {OpCode::OC_LoadLocal, 1, 0, 0},
               {OpCode::OC_Add, 0, 0, 0},
               {OpCode::OC_StoreLocal, 5, 0, 0},
               {OpCode::OC_LoadLocal, 2, 0, 0},
               {OpCode::OC_LoadLocal, 3, 0, 0},
               {OpCode::OC_CallBuiltin,
                static_cast<int32_t>(BuiltinId::BI_MaxF), 2, 0},
               {OpCode::OC_Return, 0, 0, 0}};
  return Code;
}

TEST(ExecChunk, ReadSetCoversEveryLoadForm) {
  const Chunk Code = everyLoadFormChunk();
  ExecChunk Exec = buildExecChunk(Code);
  ASSERT_TRUE(Exec.Valid);
  ASSERT_TRUE(Exec.BatchSafe);
  // The three fused load forms are what this chunk exercises.
  const std::vector<unsigned> Histogram = opcodeHistogram(Exec);
  for (FusedOp Op :
       {FusedOp::F_LoadLoad, FusedOp::F_StoreLoad, FusedOp::F_LoadCall})
    EXPECT_EQ(Histogram[static_cast<unsigned>(Op)], 1u) << fusedOpName(Op);
  EXPECT_EQ(Histogram[static_cast<unsigned>(FusedOp::F_LoadLocal)], 0u);
  EXPECT_EQ(Exec.LoadedLocals,
            std::vector<bool>({true, true, true, true, false, false}));

  // Every split of the arguments into per-lane and shared ones, an int
  // promoted to a float parameter among them, returns the switch tier's
  // bits.
  const std::vector<Value> Args = {
      Value::makeFloat(1.5f), Value::makeFloat(-2.0f), Value::makeInt(3),
      Value::makeFloat(2.25f), Value::makeFloat(9.0f)};
  VM Machine;
  auto Ref = Machine.run(Code, Args);
  ASSERT_TRUE(Ref.ok()) << Ref.TrapMessage;
  EXPECT_EQ(Ref.Result.F[0], 3.0f);
  for (size_t Shared = 0; Shared <= Args.size(); ++Shared) {
    TileRun Tile = runSharedTile(
        Machine, Exec, {Args.begin(), Args.end() - Shared},
        {Args.end() - Shared, Args.end()});
    ASSERT_TRUE(Tile.R.ok()) << Shared << ": " << Tile.R.TrapMessage;
    for (const Value &Lane : Tile.Results)
      EXPECT_TRUE(bitIdentical(Ref.Result, Lane)) << Shared << " shared";
  }
}

/// The batched tier fills no row for an unread parameter, but still checks
/// its argument: a vec3 passed for the never-read float e traps with the
/// switch tier's message, whether it is passed per lane or shared.
TEST(ExecChunk, MistypedUnreadArgumentTrapsInRunBatch) {
  const Chunk Code = everyLoadFormChunk();
  ExecChunk Exec = buildExecChunk(Code);
  ASSERT_TRUE(Exec.Valid);
  ASSERT_FALSE(Exec.LoadedLocals[4]);
  const std::vector<Value> Args = {
      Value::makeFloat(1.0f), Value::makeFloat(2.0f), Value::makeFloat(3.0f),
      Value::makeFloat(4.0f), Value::makeVec3(1.0f, 2.0f, 3.0f)};
  VM Machine;
  auto Ref = Machine.run(Code, Args);
  ASSERT_TRUE(Ref.Trapped);
  EXPECT_EQ(Ref.TrapMessage, "argument type mismatch calling 'f'");

  TileRun PerLane = runUniformTile(Machine, Exec, Args);
  EXPECT_TRUE(PerLane.R.Trapped);
  EXPECT_EQ(PerLane.R.TrapMessage, Ref.TrapMessage);
  TileRun Shared = runSharedTile(Machine, Exec, {Args.begin(), Args.end() - 1},
                                 {Args.back()});
  EXPECT_TRUE(Shared.R.Trapped);
  EXPECT_EQ(Shared.R.TrapMessage, Ref.TrapMessage);
}

//===----------------------------------------------------------------------===//
// Div/Mod diagnostics carry the offending SourceLoc
//===----------------------------------------------------------------------===//

TEST(VMTrap, IntDivisionByZeroReportsSourceLoc) {
  Chunk Code = compileOne("int f(int a) {\n  return 10 / a;\n}", "f");
  VM Machine;
  auto R = Machine.run(Code, {Value::makeInt(0)});
  ASSERT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapMessage.find("integer division by zero"),
            std::string::npos)
      << R.TrapMessage;
  EXPECT_NE(R.TrapMessage.find(" at 2:"), std::string::npos)
      << "expected the divisor's line in: " << R.TrapMessage;

  // The batched tier reports the identical message.
  ExecChunk Exec = buildExecChunk(Code);
  ASSERT_TRUE(Exec.Valid);
  TileRun Tile = runUniformTile(Machine, Exec, {Value::makeInt(0)});
  ASSERT_TRUE(Tile.R.Trapped);
  EXPECT_EQ(Tile.R.TrapMessage, R.TrapMessage);
}

TEST(VMTrap, IntModuloByZeroReportsSourceLoc) {
  Chunk Code = compileOne("int f(int a) {\n  return 7 % a;\n}", "f");
  VM Machine;
  auto R = Machine.run(Code, {Value::makeInt(0)});
  ASSERT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapMessage.find("integer modulo by zero"), std::string::npos)
      << R.TrapMessage;
  EXPECT_NE(R.TrapMessage.find(" at 2:"), std::string::npos) << R.TrapMessage;
}

TEST(VMTrap, HandWrittenChunksWithoutLocsKeepBareMessage) {
  // Chunks predating the loc stamping (snapshots, tests) carry zero
  // operands and must keep the original message verbatim.
  Chunk Code;
  Code.Name = "old";
  Code.ReturnType = Type(TypeKind::TK_Int);
  Code.Constants = {Value::makeInt(1), Value::makeInt(0)};
  Code.Code = {{OpCode::OC_Const, 0, 0, 0},
               {OpCode::OC_Const, 1, 0, 0},
               {OpCode::OC_Div, 0, 0, 0},
               {OpCode::OC_Return, 0, 0, 0}};
  VM Machine;
  auto R = Machine.run(Code, {});
  ASSERT_TRUE(R.Trapped);
  EXPECT_EQ(R.TrapMessage, "integer division by zero in 'old'");
}

//===----------------------------------------------------------------------===//
// Differential fuzz-lite: the whole gallery through every tier
//===----------------------------------------------------------------------===//

/// Every gallery shader through every tier at 1 and 4 threads:
/// loader/reader/plain framebuffers bit-identical to the switch@1
/// reference, and the cache arena loads the exact same bytes.
TEST(ExecTiers, GalleryDifferentialAcrossTiersAndThreads) {
  const unsigned W = 9, H = 7;
  ShaderLab Lab(W, H);

  for (const ShaderInfo &Info : shaderGallery()) {
    auto Spec = Lab.specializePartition(Info, 0);
    ASSERT_TRUE(Spec.has_value()) << Lab.lastError();

    // Reference: the classic switch interpreter, serial.
    RenderEngine Ref(1);
    Ref.setExecTier(ExecTier::Switch);
    auto Controls = ShaderLab::defaultControls(Info);
    Framebuffer LoadRef(W, H), ReadRef(W, H), PlainRef(W, H);
    ASSERT_TRUE(Spec->load(Ref, Lab.grid(), Controls, &LoadRef))
        << Info.Name << ": " << Ref.lastTrap();
    std::vector<unsigned char> ArenaRef = arenaBytes(Spec->arena());
    Controls[0] = Info.Controls[0].SweepMax;
    ASSERT_TRUE(Spec->readFrame(Ref, Lab.grid(), Controls, &ReadRef));
    ASSERT_TRUE(Spec->originalFrame(Ref, Lab.grid(), Controls, &PlainRef));

    for (ExecTier Tier : kTiers) {
      for (unsigned Threads : {1u, 4u}) {
        RenderEngine Engine(Threads);
        Engine.setExecTier(Tier);
        std::string Tag = Info.Name + " [" + execTierName(Tier) + " @" +
                          std::to_string(Threads) + "t]";
        Controls = ShaderLab::defaultControls(Info);
        Framebuffer Load(W, H), Read(W, H), Plain(W, H);
        ASSERT_TRUE(Spec->load(Engine, Lab.grid(), Controls, &Load))
            << Tag << ": " << Engine.lastTrap();
        EXPECT_EQ(arenaBytes(Spec->arena()), ArenaRef)
            << Tag << ": loader pass filled different arena bytes";
        Controls[0] = Info.Controls[0].SweepMax;
        ASSERT_TRUE(Spec->readFrame(Engine, Lab.grid(), Controls, &Read))
            << Tag << ": " << Engine.lastTrap();
        ASSERT_TRUE(
            Spec->originalFrame(Engine, Lab.grid(), Controls, &Plain))
            << Tag << ": " << Engine.lastTrap();
        expectSameImage(LoadRef, Load, "loader " + Tag);
        expectSameImage(ReadRef, Read, "reader " + Tag);
        expectSameImage(PlainRef, Plain, "original " + Tag);
      }
    }
  }
}

/// A fixed control read only by a branch condition, at exactly 0.0 and
/// 1.0 and between, and the varying control at 0.0 and 1.0: the generic
/// loader and reader of the fragment match the plain pass bit for bit on
/// every tier at 1 and 4 threads, and every run loads the same arena.
TEST(ExecTiers, BranchyFragmentMatchesEverywhere) {
  const char *Source = R"(
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
  auto Unit = parseUnit(Source);
  ASSERT_TRUE(Unit->ok()) << Unit->Diags.str();
  auto Spec = specializeAndCompile(*Unit, "branchy", {"gain"});
  ASSERT_TRUE(Spec.has_value()) << Unit->Diags.str();
  RenderGrid Grid(16, 12);

  const std::vector<float> ControlSets[] = {
      {0.6f, 0.7f}, {0.6f, 0.0f}, {0.6f, 1.0f}, {0.0f, 0.7f}, {1.0f, 0.7f}};
  for (const std::vector<float> &Controls : ControlSets) {
    const std::string At = "gain=" + std::to_string(Controls[0]) +
                           " mode=" + std::to_string(Controls[1]);
    RenderEngine Ref(1);
    Ref.setExecTier(ExecTier::Switch);
    Framebuffer Plain(Grid.width(), Grid.height());
    ASSERT_TRUE(Ref.plainPass(Spec->OriginalChunk, Grid, Controls, &Plain))
        << At << ": " << Ref.lastTrap();
    CacheArena RefArena;
    ASSERT_TRUE(Ref.loaderPass(Spec->LoaderChunk, Spec->Spec.Layout, Grid,
                               Controls, RefArena));
    const std::vector<unsigned char> RefBytes = arenaBytes(RefArena);

    for (ExecTier Tier : kTiers) {
      for (unsigned Threads : {1u, 4u}) {
        RenderEngine Engine(Threads);
        Engine.setExecTier(Tier);
        const std::string Tag = At + " [" + execTierName(Tier) + " @" +
                                std::to_string(Threads) + "t]";
        CacheArena Arena;
        Framebuffer Loaded(Grid.width(), Grid.height());
        Framebuffer Read(Grid.width(), Grid.height());
        ASSERT_TRUE(Engine.loaderPass(Spec->LoaderChunk, Spec->Spec.Layout,
                                      Grid, Controls, Arena, &Loaded))
            << Tag << ": " << Engine.lastTrap();
        EXPECT_EQ(arenaBytes(Arena), RefBytes) << Tag << ": arena differs";
        expectSameImage(Plain, Loaded, "loader " + Tag);
        ASSERT_TRUE(Engine.readerPass(Spec->ReaderChunk, Grid, Controls,
                                      Arena, &Read))
            << Tag << ": " << Engine.lastTrap();
        expectSameImage(Plain, Read, "reader " + Tag);
      }
    }
  }
}

/// Builtins run lane-wise, the noise kernel four lanes per step. A tile
/// of 37 pixels over a 16x9 grid (tiles of 37, 37, 37 and 33 lanes) puts
/// a 1-lane tail on every group walk: loader, reader and original frames
/// stay bit-identical to the switch tier's.
TEST(ExecTiers, OddTileSizeMatchesSwitchForEveryShader) {
  const unsigned W = 16, H = 9;
  ShaderLab Lab(W, H);
  RenderEngine Ref(1);
  Ref.setExecTier(ExecTier::Switch);
  RenderEngine Engine(2, 37);
  ASSERT_EQ(Engine.execTier(), ExecTier::Batched);

  for (const ShaderInfo &Info : shaderGallery()) {
    auto Spec = Lab.specializePartition(Info, 0);
    ASSERT_TRUE(Spec.has_value()) << Lab.lastError();
    auto Controls = ShaderLab::defaultControls(Info);
    // Every pass retires all four tiles batched.
    auto ExpectBatched = [&](const char *Pass) {
      EXPECT_EQ(Engine.lastPassStats().BatchTiles, 4u)
          << Pass << " " << Info.Name;
    };
    Framebuffer LoadRef(W, H), ReadRef(W, H), PlainRef(W, H);
    Framebuffer Load(W, H), Read(W, H), Plain(W, H);
    ASSERT_TRUE(Spec->load(Ref, Lab.grid(), Controls, &LoadRef))
        << Info.Name << ": " << Ref.lastTrap();
    ASSERT_TRUE(Spec->load(Engine, Lab.grid(), Controls, &Load))
        << Info.Name << ": " << Engine.lastTrap();
    ExpectBatched("loader");
    Controls[0] = Info.Controls[0].SweepMax;
    ASSERT_TRUE(Spec->readFrame(Ref, Lab.grid(), Controls, &ReadRef));
    ASSERT_TRUE(Spec->readFrame(Engine, Lab.grid(), Controls, &Read))
        << Info.Name << ": " << Engine.lastTrap();
    ExpectBatched("reader");
    ASSERT_TRUE(Spec->originalFrame(Ref, Lab.grid(), Controls, &PlainRef));
    ASSERT_TRUE(Spec->originalFrame(Engine, Lab.grid(), Controls, &Plain))
        << Info.Name << ": " << Engine.lastTrap();
    ExpectBatched("original");
    expectSameImage(LoadRef, Load, "loader " + Info.Name);
    expectSameImage(ReadRef, Read, "reader " + Info.Name);
    expectSameImage(PlainRef, Plain, "original " + Info.Name);
  }
}

/// Trap behaviour is tier-independent: same failure, same deterministic
/// lowest-pixel message — the batched tier re-runs trapping tiles
/// per-pixel to recover the canonical diagnostic.
TEST(ExecTiers, TrapMessagesIdenticalAcrossTiers) {
  Chunk Bad;
  Bad.Name = "bad";
  Bad.NumParams = 4;
  Bad.LocalTypes = {TypeKind::TK_Vec2, TypeKind::TK_Vec3, TypeKind::TK_Vec3,
                    TypeKind::TK_Vec3};
  Bad.ReturnType = Type(TypeKind::TK_Int);
  Bad.Constants = {Value::makeInt(1), Value::makeInt(0)};
  Bad.Code = {{OpCode::OC_Const, 0, 0, 0},
              {OpCode::OC_Const, 1, 0, 0},
              {OpCode::OC_Div, 3, 9, 0}, // stamped loc 3:9
              {OpCode::OC_Return, 0, 0, 0}};

  RenderGrid Grid(8, 6);
  std::string FirstMessage;
  for (ExecTier Tier : kTiers) {
    RenderEngine Engine(2);
    Engine.setExecTier(Tier);
    Framebuffer Out(8, 6);
    EXPECT_FALSE(Engine.plainPass(Bad, Grid, /*Controls=*/{}, &Out))
        << execTierName(Tier);
    EXPECT_NE(Engine.lastTrap().find("pixel 0:"), std::string::npos)
        << Engine.lastTrap();
    EXPECT_NE(Engine.lastTrap().find(" at 3:9"), std::string::npos)
        << Engine.lastTrap();
    if (FirstMessage.empty())
      FirstMessage = Engine.lastTrap();
    else
      EXPECT_EQ(Engine.lastTrap(), FirstMessage)
          << "trap message differs under " << execTierName(Tier);
  }
}

/// An engine pass checks every argument on every tier, read or not: a
/// fragment that never reads its uv, declared float where the grid passes
/// a vec2 (a per-lane argument), or its control `tint`, declared vec3
/// where the engine passes a float (a shared one), traps at pixel 0 with
/// the switch tier's message.
TEST(ExecTiers, MistypedUnreadArgumentTrapsOnEveryTier) {
  const char *Sources[] = {
      "vec3 f(float uv, vec3 P, vec3 N, vec3 I, float k) {\n"
      "  return N * k;\n"
      "}",
      "vec3 f(vec2 uv, vec3 P, vec3 N, vec3 I, vec3 tint, float k) {\n"
      "  return N * k;\n"
      "}"};
  RenderGrid Grid(16, 12);
  for (const char *Source : Sources) {
    Chunk Code = compileOne(Source, "f");
    ASSERT_TRUE(buildExecChunk(Code).BatchSafe);
    const std::vector<float> Controls(Code.NumParams -
                                          RenderEngine::NumPixelParams,
                                      0.5f);
    for (ExecTier Tier : kTiers) {
      for (unsigned Threads : {1u, 4u}) {
        RenderEngine Engine(Threads, 16);
        Engine.setExecTier(Tier);
        const std::string Tag = std::string(execTierName(Tier)) + " @" +
                                std::to_string(Threads) + "t: " + Source;
        Framebuffer Out(Grid.width(), Grid.height());
        EXPECT_FALSE(Engine.plainPass(Code, Grid, Controls, &Out)) << Tag;
        EXPECT_EQ(Engine.lastTrap(),
                  "pixel 0: argument type mismatch calling 'f'")
            << Tag;
      }
    }
  }
}

/// A reader pass binds its arena read-only: a chunk that stores to an
/// in-bounds slot traps on every tier and thread count with the same
/// message, and the arena keeps every byte it held before the pass.
TEST(ExecTiers, ReaderPassRejectsCacheStoresOnEveryTier) {
  Chunk Store;
  Store.Name = "store";
  Store.NumParams = 4;
  Store.LocalTypes = {TypeKind::TK_Vec2, TypeKind::TK_Vec3,
                      TypeKind::TK_Vec3, TypeKind::TK_Vec3};
  Store.ReturnType = Type(TypeKind::TK_Float);
  Store.Constants = {Value::makeFloat(1.0f)};
  Store.Code = {{OpCode::OC_Const, 0, 0, 0},
                {OpCode::OC_CacheStore, 0, 0,
                 static_cast<int32_t>(TypeKind::TK_Float)},
                {OpCode::OC_Return, 0, 0, 0}};
  Store.CacheSlotCount = 1;
  Store.CacheBytes = 4;
  ASSERT_TRUE(buildExecChunk(Store).BatchSafe);

  CacheLayout Layout;
  Layout.addSlot(Type(TypeKind::TK_Float));
  RenderGrid Grid(16, 12);
  CacheArena Arena(Grid.pixelCount(), Layout);
  for (unsigned Pixel = 0; Pixel < Arena.pixelCount(); ++Pixel)
    Arena.view(Pixel).store(0, Value::makeFloat(0.5f + Pixel));
  const ArenaBuffer Before = Arena.canonicalBytes();

  for (ExecTier Tier : kTiers) {
    for (unsigned Threads : {1u, 4u}) {
      RenderEngine Engine(Threads, 16);
      Engine.setExecTier(Tier);
      std::string Tag = std::string(execTierName(Tier)) + " @" +
                        std::to_string(Threads) + "t";
      EXPECT_FALSE(Engine.readerPass(Store, Grid, /*Controls=*/{}, Arena))
          << Tag;
      EXPECT_EQ(Engine.lastTrap(),
                "pixel 0: cache store to a read-only cache in 'store'")
          << Tag;
      EXPECT_TRUE(Arena.canonicalBytes() == Before)
          << Tag << ": the reader pass wrote the arena";
    }
  }
}

/// An effectful chunk cannot run batched, because dsc_clock's call order
/// is observable. The default engine runs the whole pass per-pixel on
/// the switch interpreter instead: every pixel once, in pixel order, so
/// the frame is bit-identical to a switch engine's.
TEST(ExecTiers, EffectfulChunkFallsBackToSwitchPerPixel) {
  Chunk Code = compileOne("vec3 f(vec2 uv, vec3 P, vec3 N, vec3 I) {\n"
                          "  float t = dsc_clock();\n"
                          "  return vec3(t, uv.x, 0.0);\n"
                          "}",
                          "f");
  EXPECT_FALSE(buildExecChunk(Code).BatchSafe);

  const unsigned W = 16, H = 12;
  RenderGrid Grid(W, H);
  RenderEngine Batched(1);
  ASSERT_EQ(Batched.execTier(), ExecTier::Batched);
  Framebuffer Out(W, H);
  ASSERT_TRUE(Batched.plainPass(Code, Grid, /*Controls=*/{}, &Out))
      << Batched.lastTrap();
  EXPECT_EQ(Batched.lastPassStats().BatchTiles, 0u);
  EXPECT_EQ(Batched.lastPassStats().BailedTiles, 0u);

  RenderEngine Switch(1);
  Switch.setExecTier(ExecTier::Switch);
  Framebuffer Ref(W, H);
  ASSERT_TRUE(Switch.plainPass(Code, Grid, /*Controls=*/{}, &Ref))
      << Switch.lastTrap();
  expectSameImage(Ref, Out, "effectful [batched @1t]");

  // A fresh VM's clock starts at 0 and ticks once per pixel, so the last
  // of the 192 pixels reads 191.
  EXPECT_EQ(Out.at(W - 1, H - 1).F[0], 191.0f);
}

/// Warm starts are tier-independent too: a snapshot saved once renders
/// bit-identical reader frames under every tier (snapshots keep the
/// plain serde-v1 Chunk; each engine re-decodes and re-fuses on load).
TEST(ExecTiers, SnapshotWarmStartIdenticalAcrossTiers) {
  const ShaderInfo *Info = findShader("marble");
  ASSERT_NE(Info, nullptr);
  RenderGrid Grid(10, 8);

  auto Unit = parseUnit(Info->Source);
  ASSERT_TRUE(Unit->ok()) << Unit->Diags.str();
  auto Spec =
      specializeAndCompile(*Unit, Info->Name, {Info->Controls[0].Name});
  ASSERT_TRUE(Spec.has_value());
  auto Controls = ShaderLab::defaultControls(*Info);

  RenderEngine Engine(1);
  CacheArena Arena;
  ASSERT_TRUE(Engine.loaderPass(Spec->LoaderChunk, Spec->Spec.Layout, Grid,
                                Controls, Arena))
      << Engine.lastTrap();

  SnapshotMeta Meta;
  Meta.FragmentName = Info->Name;
  Meta.VaryingParams = {Info->Controls[0].Name};
  Meta.GridWidth = Grid.width();
  Meta.GridHeight = Grid.height();
  Meta.Controls = Controls;
  const std::string Path = testing::TempDir() + "dspec_tier.dsnap";
  std::string Error;
  ASSERT_TRUE(RenderEngine::saveSnapshot(Path, Meta, Spec->LoaderChunk,
                                         Spec->ReaderChunk, Spec->Spec.Layout,
                                         Arena, &Error))
      << Error;

  auto Warm = RenderEngine::fromSnapshot(Path, &Error);
  ASSERT_TRUE(Warm.has_value()) << Error;

  Framebuffer RefImage(Grid.width(), Grid.height());
  bool HaveRef = false;
  for (ExecTier Tier : kTiers) {
    RenderEngine Reader(2);
    Reader.setExecTier(Tier);
    Framebuffer Out(Grid.width(), Grid.height());
    ASSERT_TRUE(Reader.readerPass(Warm->Reader, Warm->Grid, Controls,
                                  Warm->Arena, &Out))
        << execTierName(Tier) << ": " << Reader.lastTrap();
    if (!HaveRef) {
      RefImage = Out;
      HaveRef = true;
    } else {
      expectSameImage(RefImage, Out,
                      std::string("warm reader [") + execTierName(Tier) +
                          "]");
    }
  }
  std::remove(Path.c_str());
}

} // namespace
