//===- bench/bench_dotprod.cpp - Paper Section 2 numbers --------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the paper's Section 2 measurements on the dotprod example
/// (Figures 1 and 2): the modest asymptotic speedup when scale != 0, the
/// ~0% speedup when scale == 0 (the error branch does no cacheable work),
/// the low loader startup cost, and break-even after two executions.
/// Registers google-benchmark timings for all three programs.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "driver/Pipeline.h"
#include "engine/CacheArena.h"
#include "vm/VM.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>

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

struct DotprodSetup {
  std::unique_ptr<CompilationUnit> Unit;
  CompiledSpecialization Compiled;

  DotprodSetup() {
    Unit = parseUnit(DotprodSource);
    SpecializerOptions Options;
    Options.EnableReassociate = true;
    auto C = specializeAndCompile(*Unit, "dotprod", {"z1", "z2"}, Options);
    if (!C) {
      std::fprintf(stderr, "specialization failed:\n%s\n",
                   Unit->Diags.str().c_str());
      std::abort();
    }
    Compiled = std::move(*C);
  }

  static std::vector<Value> args(float Z1, float Z2, float Scale) {
    return {Value::makeFloat(1.5f),  Value::makeFloat(-2.0f),
            Value::makeFloat(Z1),    Value::makeFloat(0.75f),
            Value::makeFloat(3.25f), Value::makeFloat(Z2),
            Value::makeFloat(Scale)};
  }
};

DotprodSetup &setup() {
  static DotprodSetup S;
  return S;
}

/// Times N executions of a chunk, returning seconds per execution.
double timePerCall(VM &Machine, const Chunk &Code,
                   const std::vector<Value> &Args, CacheView Slots,
                   unsigned Calls) {
  auto Start = std::chrono::steady_clock::now();
  for (unsigned I = 0; I < Calls; ++I)
    benchmark::DoNotOptimize(Machine.run(Code, Args, Slots));
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(End - Start).count() / Calls;
}

void printSection2Table() {
  using namespace dspec::bench;
  banner("Section 2: dotprod example (Figures 1 and 2)",
         "11% speedup when scale != 0 (0% when scale == 0); 5.5% startup "
         "cost; break-even at 2 executions; cache = one float");

  DotprodSetup &S = setup();
  VM Machine;
  const unsigned Calls = 400000;

  for (float Scale : {2.0f, 0.0f}) {
    auto Args = DotprodSetup::args(0.5f, -1.25f, Scale);
    CacheArena Slots(1, S.Compiled.Spec.Layout);
    Machine.run(S.Compiled.LoaderChunk, Args, Slots.view(0));

    std::vector<double> OrigT, LoadT, ReadT;
    for (int Rep = 0; Rep < 5; ++Rep) {
      OrigT.push_back(
          timePerCall(Machine, S.Compiled.OriginalChunk, Args, {}, Calls));
      LoadT.push_back(timePerCall(Machine, S.Compiled.LoaderChunk, Args,
                                  Slots.view(0), Calls));
      ReadT.push_back(timePerCall(Machine, S.Compiled.ReaderChunk, Args,
                                  Slots.view(0), Calls));
    }
    double Orig = median(OrigT), Load = median(LoadT), Read = median(ReadT);
    double SpeedupPct = (Orig / Read - 1.0) * 100.0;
    double StartupPct = (Load / Orig - 1.0) * 100.0;
    unsigned Breakeven = 1;
    if (Load > Orig && Read < Orig)
      Breakeven = static_cast<unsigned>(
          std::ceil((Load - Read) / (Orig - Read) - 1e-9));

    std::printf("\nscale %s 0:\n", Scale != 0.0f ? "!=" : "==");
    std::printf("  original  %8.1f ns/call\n", Orig * 1e9);
    std::printf("  loader    %8.1f ns/call   (startup cost %+5.1f%%, paper "
                "%s)\n",
                Load * 1e9, StartupPct, Scale != 0.0f ? "+5.5%" : "~0%");
    std::printf("  reader    %8.1f ns/call   (speedup %+5.1f%%, paper %s)\n",
                Read * 1e9, SpeedupPct, Scale != 0.0f ? "+11%" : "~0%");
    std::printf("  break-even at %u execution(s)   (paper: 2)\n", Breakeven);
  }

  std::printf("\ncache layout: %u slot(s), %u bytes (paper: one float)\n",
              setup().Compiled.Spec.Layout.slotCount(),
              setup().Compiled.Spec.Layout.totalBytes());
  std::printf("\nloader listing:\n%s", setup().Compiled.loaderSource().c_str());
  std::printf("\nreader listing:\n%s", setup().Compiled.readerSource().c_str());
}

void BM_DotprodOriginal(benchmark::State &State) {
  VM Machine;
  auto Args = DotprodSetup::args(0.5f, -1.25f, 2.0f);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        Machine.run(setup().Compiled.OriginalChunk, Args));
}
BENCHMARK(BM_DotprodOriginal);

void BM_DotprodLoader(benchmark::State &State) {
  VM Machine;
  CacheArena Slots(1, setup().Compiled.Spec.Layout);
  auto Args = DotprodSetup::args(0.5f, -1.25f, 2.0f);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        Machine.run(setup().Compiled.LoaderChunk, Args, Slots.view(0)));
}
BENCHMARK(BM_DotprodLoader);

void BM_DotprodReader(benchmark::State &State) {
  VM Machine;
  CacheArena Slots(1, setup().Compiled.Spec.Layout);
  auto Args = DotprodSetup::args(0.5f, -1.25f, 2.0f);
  Machine.run(setup().Compiled.LoaderChunk, Args, Slots.view(0));
  for (auto _ : State)
    benchmark::DoNotOptimize(
        Machine.run(setup().Compiled.ReaderChunk, Args, Slots.view(0)));
}
BENCHMARK(BM_DotprodReader);

} // namespace

int main(int argc, char **argv) {
  printSection2Table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
