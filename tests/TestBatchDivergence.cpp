//===- tests/TestBatchDivergence.cpp - Batched-tier divergence tests --------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batched tier's divergence contract (docs/ENGINE.md, "Divergent
/// tiles"): branches whose lanes all agree run the tile in lockstep,
/// bit-identically to the switch interpreter; a branch whose lanes
/// disagree bails the tile with its results unwritten, and the engine
/// re-runs it per pixel, so skipped arms never trap and traps recover the
/// canonical per-pixel diagnostic; the instruction budget bills every
/// lane.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "engine/RenderEngine.h"
#include "vm/ExecChunk.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
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

/// Drives VM::runBatch over one cache-less tile, one lane per entry of
/// \p LaneArgs. Results are pre-filled with an int sentinel so tests can
/// observe "results unwritten" on a bail-out.
struct TileRun {
  ExecResult R;
  std::vector<Value> Results;
};

TileRun runTile(VM &Machine, const ExecChunk &Exec,
                const std::vector<std::vector<Value>> &LaneArgs) {
  const unsigned Lanes = static_cast<unsigned>(LaneArgs.size());
  const unsigned NumArgs =
      Lanes ? static_cast<unsigned>(LaneArgs[0].size()) : 0;
  std::vector<Value> Flat;
  Flat.reserve(static_cast<size_t>(Lanes) * NumArgs);
  for (const auto &Args : LaneArgs) {
    EXPECT_EQ(Args.size(), NumArgs);
    for (const Value &V : Args)
      Flat.push_back(V);
  }
  TileRun Out;
  Out.Results.assign(Lanes, Value::makeInt(-777001));
  BatchRequest Req;
  Req.LaneArgs = Flat.data();
  Req.NumArgs = NumArgs;
  Req.Lanes = Lanes;
  Req.Results = Out.Results.data();
  Out.R = Machine.runBatch(Exec, Req);
  return Out;
}

/// Asserts a batch run succeeded without bailing and that every lane
/// matches the classic switch interpreter bit-for-bit.
void expectMatchesScalar(VM &Machine, const Chunk &Code, const ExecChunk &Exec,
                         const std::vector<std::vector<Value>> &LaneArgs) {
  TileRun Tile = runTile(Machine, Exec, LaneArgs);
  ASSERT_TRUE(Tile.R.ok()) << Tile.R.TrapMessage;
  ASSERT_FALSE(Tile.R.Diverged);
  for (size_t L = 0; L < LaneArgs.size(); ++L) {
    auto Ref = Machine.run(Code, LaneArgs[L]);
    ASSERT_TRUE(Ref.ok()) << Ref.TrapMessage;
    EXPECT_TRUE(bitIdentical(Ref.Result, Tile.Results[L]))
        << "lane " << L << " diverges from the switch interpreter";
  }
}

/// Asserts a batch run bailed without trapping and left every result
/// slot holding runTile's sentinel.
void expectBailsUnwritten(VM &Machine, const ExecChunk &Exec,
                          const std::vector<std::vector<Value>> &LaneArgs) {
  TileRun Tile = runTile(Machine, Exec, LaneArgs);
  EXPECT_TRUE(Tile.R.Diverged);
  EXPECT_FALSE(Tile.R.Trapped);
  for (const Value &V : Tile.Results)
    EXPECT_TRUE(bitIdentical(V, Value::makeInt(-777001)))
        << "bail-out must leave results unwritten";
}

std::vector<Value> floatArgs(float X) { return {Value::makeFloat(X)}; }
std::vector<Value> intArgs(int I) { return {Value::makeInt(I)}; }

//===----------------------------------------------------------------------===//
// Uniform branches run in lockstep, divergent ones bail cleanly
//===----------------------------------------------------------------------===//

TEST(BatchDivergence, AllLanesFalseArmIsSkipped) {
  // Every lane is false, so the tile jumps past the arm in lockstep:
  // the division inside never executes, so no lane traps even though
  // the divisor would be zero.
  Chunk Code = compileOne("int f(int x) {\n"
                          "  int r = 1;\n"
                          "  if (x > 10) { r = 5 / (x - x); }\n"
                          "  return r;\n"
                          "}",
                          "f");
  ExecChunk Exec = buildExecChunk(Code);
  ASSERT_TRUE(Exec.Valid);
  ASSERT_TRUE(Exec.BatchSafe);

  VM Machine;
  TileRun Tile =
      runTile(Machine, Exec, {intArgs(0), intArgs(3), intArgs(-8)});
  ASSERT_TRUE(Tile.R.ok()) << Tile.R.TrapMessage;
  ASSERT_FALSE(Tile.R.Diverged);
  for (const Value &V : Tile.Results)
    EXPECT_TRUE(bitIdentical(V, Value::makeInt(1)));
}

TEST(BatchDivergence, UniformLoopBatchesInLockstep) {
  // The clouds/rings shape: a fixed-bound octave loop. Every lane agrees
  // at the exit branch on every iteration, so the whole tile runs
  // batched.
  Chunk Code = compileOne("float f(float x) {\n"
                          "  float sum = 0.0;\n"
                          "  float amp = 1.0;\n"
                          "  for (int i = 0; i < 5; i = i + 1) {\n"
                          "    sum = sum + amp * x;\n"
                          "    amp = amp * 0.5;\n"
                          "  }\n"
                          "  return sum;\n"
                          "}",
                          "f");
  ExecChunk Exec = buildExecChunk(Code);
  ASSERT_TRUE(Exec.Valid);
  EXPECT_TRUE(Exec.BatchSafe);

  VM Machine;
  expectMatchesScalar(Machine, Code, Exec,
                      {floatArgs(0.0f), floatArgs(1.0f), floatArgs(-2.5f),
                       floatArgs(1e10f)});
}

TEST(BatchDivergence, DivergentLoopBailsWithResultsUnwritten) {
  Chunk Code = compileOne("int f(int n) {\n"
                          "  int total = 0;\n"
                          "  int i = 0;\n"
                          "  while (i < n) {\n"
                          "    total = total + i;\n"
                          "    i = i + 1;\n"
                          "  }\n"
                          "  return total;\n"
                          "}",
                          "f");
  ExecChunk Exec = buildExecChunk(Code);
  ASSERT_TRUE(Exec.Valid);
  ASSERT_TRUE(Exec.BatchSafe);

  VM Machine;
  // Uniform trip counts batch fine...
  expectMatchesScalar(Machine, Code, Exec,
                      {intArgs(4), intArgs(4), intArgs(4)});
  // ...divergent ones bail: not a trap, results untouched.
  expectBailsUnwritten(Machine, Exec, {intArgs(1), intArgs(3)});

  // A divergent if/else diamond bails the same way, while tiles whose
  // lanes all take one arm run it in lockstep.
  Chunk Diamond = compileOne("float f(float x) {\n"
                             "  float v = 0.0;\n"
                             "  if (x > 0.5) {\n"
                             "    v = x * 2.0 + 1.0;\n"
                             "  } else {\n"
                             "    v = x - 3.0;\n"
                             "  }\n"
                             "  return v + 0.25;\n"
                             "}",
                             "f");
  ExecChunk DiamondExec = buildExecChunk(Diamond);
  ASSERT_TRUE(DiamondExec.Valid);
  ASSERT_TRUE(DiamondExec.BatchSafe);
  expectMatchesScalar(Machine, Diamond, DiamondExec,
                      {floatArgs(0.6f), floatArgs(0.9f), floatArgs(2.0f)});
  expectMatchesScalar(Machine, Diamond, DiamondExec,
                      {floatArgs(0.1f), floatArgs(-1.0f), floatArgs(0.5f)});
  expectBailsUnwritten(Machine, DiamondExec,
                       {floatArgs(0.0f), floatArgs(0.25f), floatArgs(0.75f),
                        floatArgs(1.0f), floatArgs(0.5f), floatArgs(-2.0f)});
}

//===----------------------------------------------------------------------===//
// Instruction budget bills every lane
//===----------------------------------------------------------------------===//

TEST(BatchDivergence, BudgetBillsEveryLane) {
  Chunk Code = compileOne("float f(float x) {\n"
                          "  float v = 0.0;\n"
                          "  if (x > 0.5) {\n"
                          "    v = x * 2.0 + 1.0;\n"
                          "  } else {\n"
                          "    v = x - 3.0;\n"
                          "  }\n"
                          "  return v;\n"
                          "}",
                          "f");
  ExecChunk Exec = buildExecChunk(Code);
  ASSERT_TRUE(Exec.Valid);
  VM Machine;

  // One lane bills the scalar instruction count of the fused stream.
  TileRun Scalar = runTile(Machine, Exec, {floatArgs(0.9f)});
  ASSERT_TRUE(Scalar.R.ok()) << Scalar.R.TrapMessage;
  auto Ref = Machine.run(Code, floatArgs(0.9f));
  ASSERT_TRUE(Ref.ok()) << Ref.TrapMessage;
  EXPECT_TRUE(bitIdentical(Ref.Result, Scalar.Results[0]));
  EXPECT_GT(Scalar.R.InstructionsExecuted, 0u);

  // Uniform tile: every dispatch runs all lanes, so the bill is exactly
  // Lanes x the scalar instruction count.
  const std::vector<std::vector<Value>> Uniform = {
      floatArgs(0.9f), floatArgs(0.9f), floatArgs(0.9f)};
  TileRun Tile = runTile(Machine, Exec, Uniform);
  ASSERT_TRUE(Tile.R.ok());
  EXPECT_EQ(Tile.R.InstructionsExecuted, 3u * Scalar.R.InstructionsExecuted);

  // A budget sized to that bill admits the run; one below it aborts.
  VM Tight;
  Tight.InstructionBudget = Tile.R.InstructionsExecuted;
  TileRun Ok = runTile(Tight, Exec, Uniform);
  EXPECT_TRUE(Ok.R.ok()) << Ok.R.TrapMessage;
  Tight.InstructionBudget = Tile.R.InstructionsExecuted - 1;
  TileRun Over = runTile(Tight, Exec, Uniform);
  ASSERT_TRUE(Over.R.Trapped);
  EXPECT_NE(Over.R.TrapMessage.find("instruction budget"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Engine-level: branchy fragments across every tier and thread count
//===----------------------------------------------------------------------===//

const char *kBranchyShader = R"(
// Data-dependent diamonds over uv: every tile of a real grid diverges,
// so batched tiles bail to the switch tier.
vec3 branchy(vec2 uv, vec3 P, vec3 N, vec3 I, float t) {
  float v = 0.0;
  if (uv.x > t) {
    if (uv.y > 0.5) {
      v = uv.x + uv.y;
    } else {
      v = uv.x * 0.5;
    }
  } else {
    v = 1.0 - uv.x;
  }
  float w = 0.1;
  if (v > 0.75) { w = v - 0.5; }
  return vec3(v, w, v * w);
}
)";

const char *kLoopyShader = R"(
// A divergent store feeding a data-dependent trip count: the loop exit
// diverges at runtime too.
vec3 loopy(vec2 uv, vec3 P, vec3 N, vec3 I, float t) {
  int n = 1;
  if (uv.x > t) { n = 3; }
  float v = 0.0;
  int i = 0;
  while (i < n) {
    v = v + uv.y + 0.125;
    i = i + 1;
  }
  return vec3(v, v * 0.25, uv.x);
}
)";

const char *kSkippedDivShader = R"(
// The division sits in an arm that pixels with k == 0 skip, so no pixel
// divides by zero; a batched tile must not run it for them either.
vec3 skipdiv(vec2 uv, vec3 P, vec3 N, vec3 I, float t) {
  int k = 0;
  if (uv.x > t) { k = 2; }
  float v = 0.5;
  if (k != 0) { v = 100 / k; }
  return vec3(v, uv.y, 0.0);
}
)";

TEST(BatchDivergenceEngine, BranchyDifferentialAcrossTiersAndThreads) {
  const unsigned W = 17, H = 11;
  RenderGrid Grid(W, H);
  const std::vector<float> Controls = {0.45f};

  const std::pair<const char *, const char *> Shaders[] = {
      {kBranchyShader, "branchy"},
      {kLoopyShader, "loopy"},
      {kSkippedDivShader, "skipdiv"}};
  for (const auto &[Source, Name] : Shaders) {
    Chunk Code = compileOne(Source, Name);

    RenderEngine Ref(1);
    Ref.setExecTier(ExecTier::Switch);
    Framebuffer RefImage(W, H);
    ASSERT_TRUE(Ref.plainPass(Code, Grid, Controls, &RefImage))
        << Ref.lastTrap();

    for (ExecTier Tier : kTiers) {
      for (unsigned Threads : {1u, 4u}) {
        RenderEngine Engine(Threads);
        Engine.setExecTier(Tier);
        Framebuffer Out(W, H);
        ASSERT_TRUE(Engine.plainPass(Code, Grid, Controls, &Out))
            << Engine.lastTrap();
        expectSameImage(RefImage, Out,
                        std::string(Code.Name) + " [" + execTierName(Tier) +
                            " @" + std::to_string(Threads) + "t]");
        // Every shader's lanes disagree at a branch in some tile, which
        // bails to the switch tier.
        if (Tier == ExecTier::Batched) {
          EXPECT_GT(Engine.lastPassStats().BailedTiles, 0u) << Name;
        }
      }
    }
  }
}

TEST(BatchDivergenceEngine, BranchySpecializedReaderIdenticalAcrossTiers) {
  // Specialize the branchy shader on its varying control: the reader
  // keeps the t-dependent diamonds, so bailing reader passes (and the
  // loader-filled arena) must stay byte-identical across tiers.
  auto Unit = parseUnit(kBranchyShader);
  ASSERT_TRUE(Unit->ok()) << Unit->Diags.str();
  auto Spec = specializeAndCompile(*Unit, "branchy", {"t"});
  ASSERT_TRUE(Spec.has_value());

  const unsigned W = 13, H = 9;
  RenderGrid Grid(W, H);
  const std::vector<float> Controls = {0.45f};

  std::vector<unsigned char> ArenaRef;
  Framebuffer ReadRef(W, H);
  bool HaveRef = false;
  for (ExecTier Tier : kTiers) {
    for (unsigned Threads : {1u, 4u}) {
      RenderEngine Engine(Threads);
      Engine.setExecTier(Tier);
      std::string Tag = std::string("branchy [") + execTierName(Tier) + " @" +
                        std::to_string(Threads) + "t]";
      CacheArena Arena;
      ASSERT_TRUE(Engine.loaderPass(Spec->LoaderChunk, Spec->Spec.Layout,
                                    Grid, Controls, Arena))
          << Tag << ": " << Engine.lastTrap();
      Framebuffer Read(W, H);
      ASSERT_TRUE(
          Engine.readerPass(Spec->ReaderChunk, Grid, Controls, Arena, &Read))
          << Tag << ": " << Engine.lastTrap();
      if (!HaveRef) {
        ArenaRef = arenaBytes(Arena);
        ReadRef = Read;
        HaveRef = true;
      } else {
        EXPECT_EQ(arenaBytes(Arena), ArenaRef) << Tag;
        expectSameImage(ReadRef, Read, "reader " + Tag);
      }
    }
  }
}

TEST(BatchDivergenceEngine, ActiveLaneTrapCanonicalAcrossTiers) {
  // A trap aborts the batch without lane attribution, and so does the
  // divergent branch before it; the engine re-runs the tile through the
  // switch interpreter, so the user-visible message is the canonical
  // lowest-pixel diagnostic under every tier.
  const char *TrapSource = R"(
vec3 trapif(vec2 uv, vec3 P, vec3 N, vec3 I, float t) {
  int k = 0;
  if (uv.x > t) { k = 2; }
  int r = 100 / k;
  float v = 0.0;
  if (r > 10) { v = 1.0; }
  return vec3(v, uv.y, 0.0);
}
)";
  Chunk Code = compileOne(TrapSource, "trapif");
  RenderGrid Grid(8, 6);

  std::string FirstMessage;
  for (ExecTier Tier : kTiers) {
    for (unsigned Threads : {1u, 4u}) {
      RenderEngine Engine(Threads);
      Engine.setExecTier(Tier);
      Framebuffer Out(8, 6);
      EXPECT_FALSE(Engine.plainPass(Code, Grid, {0.5f}, &Out))
          << execTierName(Tier);
      EXPECT_NE(Engine.lastTrap().find("pixel "), std::string::npos)
          << Engine.lastTrap();
      EXPECT_NE(Engine.lastTrap().find("integer division by zero"),
                std::string::npos)
          << Engine.lastTrap();
      if (FirstMessage.empty())
        FirstMessage = Engine.lastTrap();
      else
        EXPECT_EQ(Engine.lastTrap(), FirstMessage)
            << "trap message differs under " << execTierName(Tier) << " @"
            << Threads << "t";
    }
  }
}

} // namespace
