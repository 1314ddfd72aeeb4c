//===- bench/bench_exec_tier.cpp - Execution-tier A/B over the gallery -------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the reader pass of every gallery shader under the engine's
/// two execution tiers:
///
///   switch     the classic per-pixel switch interpreter (VM::run);
///   batched    one instruction dispatch over the decoded,
///              superinstruction-fused ExecChunk executes a whole tile of
///              pixels against strided CacheArena slots; uniform branches
///              run in lockstep, and a tile whose lanes disagree at a
///              branch re-runs per-pixel on the switch tier.
///
/// Both tiers render bit-identical framebuffers (tests/TestExecTiers.cpp),
/// so the only difference is speed. Emits one row per (shader, tier) with
/// the p50 reader frame time and the speedup over the switch tier into
/// BENCH_exec.json.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <benchmark/benchmark.h>

#include <chrono>

using namespace dspec;
using namespace dspec::bench;

namespace {

double timeSeconds(const std::function<void()> &Body) {
  auto Start = std::chrono::steady_clock::now();
  Body();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

constexpr ExecTier kTiers[] = {ExecTier::Switch, ExecTier::Batched};

struct TierRow {
  std::string Shader;
  const char *Tier = "";
  double P50Seconds = 0.0;
  double PixelsPerSecond = 0.0;
  double SpeedupVsSwitch = 1.0;
};

void printTierSweep(const char *OutPath) {
  banner("Execution tiers: reader p50 per gallery shader, "
         "switch vs batched",
         "specializing the executor to the residual program — fused "
         "superinstructions and pixel batching — multiplies the paper's "
         "reader speedup without changing a single output bit");

  ShaderLab Lab(benchWidth(), benchHeight(), benchFrames());
  const unsigned Frames = benchFrames();
  const unsigned Pixels = Lab.grid().pixelCount();

  std::vector<TierRow> Rows;
  unsigned BatchedWins = 0, Shaders = 0;

  for (const ShaderInfo &Info : shaderGallery()) {
    const size_t ParamIndex = 0;
    auto Spec = Lab.specializePartition(Info, ParamIndex);
    if (!Spec) {
      std::fprintf(stderr, "!! %s: %s\n", Info.Name.c_str(),
                   Lab.lastError().c_str());
      continue;
    }
    auto Controls = ShaderLab::defaultControls(Info);
    auto Sweep = Lab.sweepValues(Info.Controls[ParamIndex], Frames);

    // One loader pass fills the arena; the tier loop below only re-reads.
    RenderEngine Loader(1);
    if (!Spec->load(Loader, Lab.grid(), Controls)) {
      std::fprintf(stderr, "!! %s loader trapped: %s\n", Info.Name.c_str(),
                   Loader.lastTrap().c_str());
      continue;
    }

    ++Shaders;
    double SwitchP50 = 0.0, BatchedP50 = 0.0;
    for (ExecTier Tier : kTiers) {
      RenderEngine Engine(1);
      Engine.setExecTier(Tier);
      Spec->readFrame(Engine, Lab.grid(), Controls);
      std::vector<double> Times;
      for (unsigned F = 0; F < Frames; ++F) {
        Controls[ParamIndex] = Sweep[F];
        Times.push_back(timeSeconds(
            [&] { Spec->readFrame(Engine, Lab.grid(), Controls); }));
      }
      double T = p50(Times);
      if (Tier == ExecTier::Switch)
        SwitchP50 = T;
      else if (Tier == ExecTier::Batched)
        BatchedP50 = T;
      Rows.push_back({Info.Name, execTierName(Tier), T, Pixels / T,
                      SwitchP50 > 0.0 ? SwitchP50 / T : 1.0});
    }
    if (SwitchP50 > 0.0 && BatchedP50 > 0.0 &&
        SwitchP50 / BatchedP50 >= 2.0)
      ++BatchedWins;
  }

  std::printf("%u shader(s), %ux%u pixels, p50 of %u frames, 1 thread:\n\n",
              Shaders, Lab.grid().width(), Lab.grid().height(), Frames);
  std::printf("%-10s %-9s %12s %14s %11s\n", "shader", "tier", "frame us",
              "pixels/sec", "vs switch");
  for (const TierRow &R : Rows)
    std::printf("%-10s %-9s %12.1f %14.0f %10.2fx\n", R.Shader.c_str(),
                R.Tier, R.P50Seconds * 1e6, R.PixelsPerSecond,
                R.SpeedupVsSwitch);
  std::printf("\nbatched >= 2x switch on %u of %u shader(s)\n", BatchedWins,
              Shaders);

  BenchJson Json("exec_tier");
  Json.configUnsigned("width", Lab.grid().width());
  Json.configUnsigned("height", Lab.grid().height());
  Json.configUnsigned("frames", Frames);
  Json.configUnsigned("threads", 1);
  Json.config("batched_2x_wins", std::to_string(BatchedWins));
  Json.configUnsigned("shaders", Shaders);
  char Row[256];
  for (const TierRow &R : Rows) {
    std::snprintf(Row, sizeof(Row),
                  "{\"shader\":%s,\"tier\":\"%s\","
                  "\"p50_seconds\":%.9f,\"pixels_per_second\":%.1f,"
                  "\"speedup_vs_switch\":%.3f}",
                  jsonQuote(R.Shader).c_str(), R.Tier, R.P50Seconds,
                  R.PixelsPerSecond, R.SpeedupVsSwitch);
    Json.addRow(Row);
  }
  Json.emit(OutPath);
}

// Micro-benchmark of one shader per tier for google-benchmark tracking.
void BM_ReaderFrameTier(benchmark::State &State) {
  ShaderLab Lab(benchWidth(), benchHeight(), 2);
  const ShaderInfo *Info = findShader("marble");
  auto Spec = Lab.specializePartition(*Info, 0);
  RenderEngine Engine(1);
  Engine.setExecTier(kTiers[State.range(0)]);
  auto Controls = ShaderLab::defaultControls(*Info);
  Spec->load(Engine, Lab.grid(), Controls);
  for (auto _ : State)
    benchmark::DoNotOptimize(Spec->readFrame(Engine, Lab.grid(), Controls));
  State.SetItemsProcessed(State.iterations() * Lab.grid().pixelCount());
  State.SetLabel(execTierName(kTiers[State.range(0)]));
}
BENCHMARK(BM_ReaderFrameTier)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

} // namespace

int main(int argc, char **argv) {
  const char *OutPath = takeOutPathArg(&argc, argv);
  printTierSweep(OutPath ? OutPath : "BENCH_exec.json");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
