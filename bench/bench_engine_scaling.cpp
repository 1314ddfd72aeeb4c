//===- bench/bench_engine_scaling.cpp - Engine data-path scaling -------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures how the render engine's reader pass scales: throughput
/// (pixels/second) over the packed CacheArena (one contiguous
/// allocation, Figure 8 byte counts) for
///
///   packed-serial   the switch tier at 1 thread, the baseline every
///                   speedup is measured against;
///   packed-Nt       the switch tier at 2/4/8 threads;
///   batched-*       the batched tier, serial and at 2/4/8 threads.
///
/// Prints a table plus one machine-readable JSON line per configuration
/// (and a summary object), so the scaling curve can be tracked over time.
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

struct ScalingRow {
  std::string Config;
  const char *Tier = "switch";
  unsigned Threads = 1;
  double FrameSeconds = 0.0;
  double PixelsPerSecond = 0.0;
};

void printScaling(const char *OutPath) {
  banner("Engine scaling: reader throughput over the packed arena",
         "tiling pixels over a thread pool, and batching them in the "
         "batched tier, compounds the paper's per-frame reader speedup");

  ShaderLab Lab(benchWidth(), benchHeight(), benchFrames());
  const ShaderInfo *Info = findShader("marble");
  const size_t ParamIndex = 0; // vary ka
  auto Spec = Lab.specializePartition(*Info, ParamIndex);
  if (!Spec) {
    std::fprintf(stderr, "%s\n", Lab.lastError().c_str());
    std::abort();
  }
  const unsigned Frames = benchFrames();
  const unsigned Pixels = Lab.grid().pixelCount();
  auto Controls = ShaderLab::defaultControls(*Info);
  auto Sweep = Lab.sweepValues(Info->Controls[ParamIndex], Frames);

  std::vector<ScalingRow> Rows;

  // Packed: the engine over the CacheArena at 1/2/4/8 threads, per
  // execution tier (see docs/ENGINE.md, "Execution tiers"). The historic
  // packed-* rows stay pinned to the switch tier so their trajectory is
  // comparable over time; the batched rows track the fast tier.
  for (ExecTier Tier : {ExecTier::Switch, ExecTier::Batched}) {
    for (unsigned Threads : {1u, 2u, 4u, 8u}) {
      RenderEngine Engine(Threads);
      Engine.setExecTier(Tier);
      Controls = ShaderLab::defaultControls(*Info);
      if (!Spec->load(Engine, Lab.grid(), Controls)) {
        std::fprintf(stderr, "loader trapped: %s\n",
                     Engine.lastTrap().c_str());
        std::abort();
      }
      std::vector<double> Times;
      for (unsigned F = 0; F < Frames; ++F) {
        Controls[ParamIndex] = Sweep[F];
        Times.push_back(timeSeconds(
            [&] { Spec->readFrame(Engine, Lab.grid(), Controls); }));
      }
      double T = median(Times);
      std::string Stem =
          Tier == ExecTier::Switch ? "packed" : execTierName(Tier);
      std::string Name = Threads == 1
                             ? Stem + "-serial"
                             : Stem + "-" + std::to_string(Threads) + "t";
      Rows.push_back({Name, execTierName(Tier), Threads, T, Pixels / T});
    }
  }

  // Every speedup is over Rows[0], packed-serial.
  const double Baseline = Rows[0].FrameSeconds;
  std::printf("marble / vary ka, %ux%u pixels, median of %u frames:\n\n",
              Lab.grid().width(), Lab.grid().height(), Frames);
  std::printf("%-16s %-9s %8s %12s %14s %17s\n", "config", "tier", "threads",
              "frame ms", "pixels/sec", "vs packed-serial");
  for (const ScalingRow &R : Rows)
    std::printf("%-16s %-9s %8u %12.3f %14.0f %16.2fx\n", R.Config.c_str(),
                R.Tier, R.Threads, R.FrameSeconds * 1e3, R.PixelsPerSecond,
                Baseline / R.FrameSeconds);

  BenchJson Json("engine_scaling");
  Json.configString("shader", "marble");
  Json.configString("partition", "ka");
  Json.configUnsigned("width", Lab.grid().width());
  Json.configUnsigned("height", Lab.grid().height());
  Json.configUnsigned("frames", Frames);
  char Row[256];
  for (const ScalingRow &R : Rows) {
    std::snprintf(Row, sizeof(Row),
                  "{\"config\":%s,\"tier\":\"%s\",\"threads\":%u,"
                  "\"frame_seconds\":%.9f,\"pixels_per_second\":%.1f,"
                  "\"speedup_vs_packed_serial\":%.3f}",
                  jsonQuote(R.Config).c_str(), R.Tier, R.Threads,
                  R.FrameSeconds, R.PixelsPerSecond, Baseline / R.FrameSeconds);
    Json.addRow(Row);
  }
  Json.emit(OutPath);
}

// Micro-benchmarks of the same passes for google-benchmark tracking.
void BM_ReaderFramePacked(benchmark::State &State) {
  ShaderLab Lab(benchWidth(), benchHeight(), 2);
  const ShaderInfo *Info = findShader("marble");
  auto Spec = Lab.specializePartition(*Info, 0);
  RenderEngine Engine(static_cast<unsigned>(State.range(0)));
  auto Controls = ShaderLab::defaultControls(*Info);
  Spec->load(Engine, Lab.grid(), Controls);
  for (auto _ : State)
    benchmark::DoNotOptimize(Spec->readFrame(Engine, Lab.grid(), Controls));
  State.SetItemsProcessed(State.iterations() * Lab.grid().pixelCount());
}
BENCHMARK(BM_ReaderFramePacked)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  const char *OutPath = takeOutPathArg(&argc, argv);
  printScaling(OutPath ? OutPath : "BENCH_engine_scaling.json");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
