//===- bench/bench_snapshot.cpp - Cold vs warm start via snapshots -----------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what the snapshot subsystem buys: the paper's staging split
/// stretched across processes. For every gallery shader (varying its
/// first control parameter) we time
///
///   cold start   parse + specialize + compile, then a loader pass and
///                one reader frame — what a fresh process pays without
///                a snapshot;
///   warm start   readUnitFile under the unit's key (read + validate,
///                adopt the arena, share the grid), the restore a spill
///                disk hit runs, and one reader frame — what a fresh
///                process pays *with* one.
///
/// The unit file is written untimed beforehand by writeUnitFile, and the
/// cold and warm reader framebuffers are asserted bit-identical, so the
/// two columns render the same image. Emits BENCH_snapshot.json (or
/// `--out PATH`) through the shared schema helper. The micro-benchmarks
/// time the two warm-start halves and CRC-32 throughput
/// (`--benchmark_filter=BM_Crc32`).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "service/SpillStore.h"
#include "snapshot/Snapshot.h"
#include "support/Crc32.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <optional>
#include <vector>

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

bool sameImage(const Framebuffer &A, const Framebuffer &B) {
  if (A.width() != B.width() || A.height() != B.height())
    return false;
  for (unsigned Y = 0; Y < A.height(); ++Y)
    for (unsigned X = 0; X < A.width(); ++X) {
      const Value &Va = A.at(X, Y), &Vb = B.at(X, Y);
      if (Va.Kind != Vb.Kind || Va.I != Vb.I ||
          std::memcmp(Va.F, Vb.F, sizeof(Va.F)) != 0)
        return false;
    }
  return true;
}

/// Specializes \p Info on its first control, runs the loader over a unit
/// of \p Grid's size at the default controls, and writes the unit to
/// \p Path. Returns the key to restore it under, or nullopt on any
/// failure.
std::optional<UnitKey> writeShaderUnit(const ShaderInfo &Info,
                                       const RenderGrid &Grid,
                                       const std::string &Path) {
  auto Parsed = parseUnit(Info.Source);
  if (!Parsed->ok())
    return std::nullopt;
  auto Spec = specializeAndCompile(*Parsed, Info.Name, {Info.Controls[0].Name});
  if (!Spec)
    return std::nullopt;
  SpecializationUnit Unit(Grid.width(), Grid.height());
  Unit.Shader = Info.Name;
  Unit.Varying = {Info.Controls[0].Name};
  Unit.LoadControls = ShaderLab::defaultControls(Info);
  Unit.Layout = Spec->Spec.Layout;
  Unit.Loader = std::move(Spec->LoaderChunk);
  Unit.Reader = std::move(Spec->ReaderChunk);
  RenderEngine Engine(1);
  if (!Engine.loaderPass(Unit.Loader, Unit.Layout, Unit.Grid,
                         Unit.LoadControls, Unit.Arena))
    return std::nullopt;
  std::string Error;
  if (!writeUnitFile(Path, Unit, &Error)) {
    std::fprintf(stderr, "!! %s: %s\n", Info.Name.c_str(), Error.c_str());
    return std::nullopt;
  }
  UnitKey Key;
  Key.Shader = Info.Name;
  Key.InvariantHash = invariantHash(Info, Grid.width(), Grid.height(),
                                    Unit.Varying, Unit.LoadControls);
  Key.OptionsFingerprint = optionsFingerprint(Unit.Options);
  return Key;
}

struct SnapshotRow {
  std::string Shader;
  std::string Param;
  uint64_t FileBytes = 0;
  double ColdSeconds = 0.0;
  double WarmSeconds = 0.0;
  double WarmP50 = 0.0;
  double WarmP95 = 0.0;
  bool Identical = false;
};

void printColdVsWarm(const char *OutPath) {
  banner("Snapshot warm start: cold (specialize+loader+reader) vs warm "
         "(load snapshot+reader)",
         "the staging split amortizes loader cost across frames; a "
         "snapshot amortizes specializer+loader cost across processes");

  const unsigned W = benchWidth(), H = benchHeight();
  const unsigned Frames = benchFrames();
  RenderGrid Grid(W, H);
  RenderEngine Engine(1);
  const std::string Path = "bench_snapshot_tmp.dsnap";

  std::vector<SnapshotRow> Rows;
  for (const ShaderInfo &Info : shaderGallery()) {
    std::optional<UnitKey> Key = writeShaderUnit(Info, Grid, Path);
    if (!Key) {
      std::fprintf(stderr, "!! %s: snapshot setup failed, skipping\n",
                   Info.Name.c_str());
      continue;
    }
    SnapshotFileInfo FileInfo;
    inspectSnapshotFile(Path, FileInfo);
    auto Controls = ShaderLab::defaultControls(Info);

    // Cold: everything a snapshotless process does to show one frame.
    Framebuffer ColdFb(W, H);
    std::vector<double> ColdTimes;
    for (unsigned F = 0; F < Frames; ++F)
      ColdTimes.push_back(timeSeconds([&] {
        auto Unit = parseUnit(Info.Source);
        auto Spec = specializeAndCompile(*Unit, Info.Name,
                                         {Info.Controls[0].Name});
        CacheArena Arena;
        if (!Spec ||
            !Engine.loaderPass(Spec->LoaderChunk, Spec->Spec.Layout, Grid,
                               Controls, Arena) ||
            !Engine.readerPass(Spec->ReaderChunk, Grid, Controls, Arena,
                               &ColdFb))
          std::abort();
      }));

    // Warm: read + validate the file, restore the unit, one reader frame.
    Framebuffer WarmFb(W, H);
    std::vector<double> WarmTimes;
    for (unsigned F = 0; F < Frames; ++F)
      WarmTimes.push_back(timeSeconds([&] {
        std::string Error;
        auto Warm = readUnitFile(Path, *Key, &Error);
        if (!Warm ||
            !Engine.readerPass(Warm->Reader, Warm->Grid, Controls,
                               Warm->Arena, &WarmFb)) {
          std::fprintf(stderr, "!! warm start failed: %s\n", Error.c_str());
          std::abort();
        }
      }));

    Rows.push_back({Info.Name, Info.Controls[0].Name, FileInfo.FileBytes,
                    median(ColdTimes), median(WarmTimes), p50(WarmTimes),
                    p95(WarmTimes), sameImage(ColdFb, WarmFb)});
    std::remove(Path.c_str());
  }

  std::printf("%ux%u pixels, median of %u runs per phase:\n\n", W, H, Frames);
  std::printf("%-12s %-10s %10s %10s %10s %10s %8s %6s\n", "shader", "vary",
              "file KB", "cold ms", "warm p50", "warm p95", "speedup",
              "same");
  for (const SnapshotRow &R : Rows)
    std::printf("%-12s %-10s %10.1f %10.3f %10.3f %10.3f %7.1fx %6s\n",
                R.Shader.c_str(), R.Param.c_str(), R.FileBytes / 1024.0,
                R.ColdSeconds * 1e3, R.WarmP50 * 1e3, R.WarmP95 * 1e3,
                R.ColdSeconds / R.WarmSeconds, R.Identical ? "yes" : "NO");

  BenchJson Json("snapshot");
  Json.configUnsigned("width", W);
  Json.configUnsigned("height", H);
  Json.configUnsigned("frames", Frames);
  char Row[448];
  for (const SnapshotRow &R : Rows) {
    std::snprintf(Row, sizeof(Row),
                  "{\"shader\":%s,\"partition\":%s,\"file_bytes\":%llu,"
                  "\"cold_seconds\":%.9f,\"warm_seconds\":%.9f,"
                  "\"warm_p50_seconds\":%.9f,\"warm_p95_seconds\":%.9f,"
                  "\"warm_speedup\":%.3f,\"bit_identical\":%s}",
                  jsonQuote(R.Shader).c_str(), jsonQuote(R.Param).c_str(),
                  static_cast<unsigned long long>(R.FileBytes), R.ColdSeconds,
                  R.WarmSeconds, R.WarmP50, R.WarmP95,
                  R.ColdSeconds / R.WarmSeconds,
                  R.Identical ? "true" : "false");
    Json.addRow(Row);
  }
  Json.emit(OutPath);

  for (const SnapshotRow &R : Rows)
    if (!R.Identical) {
      std::fprintf(stderr,
                   "!! %s: warm-start image differs from cold start\n",
                   R.Shader.c_str());
      std::exit(1);
    }
}

// Micro-benchmarks of the two warm-start halves for tracking.
void BM_ReadUnitFile(benchmark::State &State) {
  RenderGrid Grid(benchWidth(), benchHeight());
  const std::string Path = "bench_snapshot_micro_tmp.dsnap";
  const ShaderInfo *Info = findShader("marble");
  std::optional<UnitKey> Key = writeShaderUnit(*Info, Grid, Path);
  if (!Key)
    std::abort();
  for (auto _ : State) {
    auto Warm = readUnitFile(Path, *Key);
    benchmark::DoNotOptimize(Warm);
  }
  std::remove(Path.c_str());
}
BENCHMARK(BM_ReadUnitFile)->Unit(benchmark::kMicrosecond);

void BM_WarmReaderFrame(benchmark::State &State) {
  RenderGrid Grid(benchWidth(), benchHeight());
  const std::string Path = "bench_snapshot_micro_tmp.dsnap";
  const ShaderInfo *Info = findShader("marble");
  std::optional<UnitKey> Key = writeShaderUnit(*Info, Grid, Path);
  if (!Key)
    std::abort();
  auto Warm = readUnitFile(Path, *Key);
  std::remove(Path.c_str());
  if (!Warm)
    std::abort();
  RenderEngine Engine(1);
  auto Controls = ShaderLab::defaultControls(*Info);
  for (auto _ : State)
    benchmark::DoNotOptimize(Engine.readerPass(Warm->Reader, Warm->Grid,
                                               Controls, Warm->Arena));
  State.SetItemsProcessed(State.iterations() * Grid.pixelCount());
}
BENCHMARK(BM_WarmReaderFrame)->Unit(benchmark::kMillisecond);

// CRC-32 throughput: every frame, snapshot section and spill restore
// is checksummed. 230,442 bytes is a 160x120 reply frame and 419,108 a
// perfbench spill arena.
void BM_Crc32(benchmark::State &State) {
  std::vector<unsigned char> Buf(static_cast<size_t>(State.range(0)));
  uint32_t X = 0x2545F491u;
  for (unsigned char &B : Buf) {
    X ^= X << 13, X ^= X >> 17, X ^= X << 5;
    B = static_cast<unsigned char>(X);
  }
  for (auto _ : State)
    benchmark::DoNotOptimize(crc32(Buf.data(), Buf.size()));
  State.SetBytesProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(230442)->Arg(419108);

} // namespace

int main(int argc, char **argv) {
  const char *OutPath = takeOutPathArg(&argc, argv);
  printColdVsWarm(OutPath ? OutPath : "BENCH_snapshot.json");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
