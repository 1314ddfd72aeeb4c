//===- shading/ShaderLab.cpp - Section 5 measurement driver ----------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "shading/ShaderLab.h"

#include <algorithm>
#include <chrono>
#include <cmath>

using namespace dspec;

static_assert(ShaderInfo::NumPixelParams == RenderEngine::NumPixelParams,
              "gallery shaders and the engine must agree on the per-pixel "
              "parameter convention");

SpecializedShader::SpecializedShader(CompiledSpecialization Compiled,
                                     const ShaderInfo &Info)
    : Compiled(std::move(Compiled)), Info(Info) {}

bool SpecializedShader::load(RenderEngine &Engine, const RenderGrid &Grid,
                             const std::vector<float> &Controls,
                             Framebuffer *Out) {
  assert(Controls.size() == Info.Controls.size() &&
         "control vector arity mismatch");
  return Engine.loaderPass(Compiled.LoaderChunk, Compiled.Spec.Layout, Grid,
                           Controls, Arena, Out);
}

bool SpecializedShader::readFrame(RenderEngine &Engine, const RenderGrid &Grid,
                                  const std::vector<float> &Controls,
                                  Framebuffer *Out) {
  assert(Controls.size() == Info.Controls.size() &&
         "control vector arity mismatch");
  return Engine.readerPass(Compiled.ReaderChunk, Grid, Controls, Arena, Out);
}

bool SpecializedShader::originalFrame(RenderEngine &Engine,
                                      const RenderGrid &Grid,
                                      const std::vector<float> &Controls,
                                      Framebuffer *Out) {
  assert(Controls.size() == Info.Controls.size() &&
         "control vector arity mismatch");
  return Engine.plainPass(Compiled.OriginalChunk, Grid, Controls, Out);
}

ShaderLab::ShaderLab(unsigned Width, unsigned Height,
                     unsigned FramesPerMeasurement, unsigned Threads)
    : Grid(Width, Height), Engine(Threads),
      FramesPerMeasurement(FramesPerMeasurement) {}

CompilationUnit *ShaderLab::unitFor(const ShaderInfo &Info) {
  for (auto &[Name, Unit] : Units)
    if (Name == Info.Name)
      return Unit.get();
  auto Unit = parseUnit(Info.Source);
  CompilationUnit *Raw = Unit.get();
  Units.emplace_back(Info.Name, std::move(Unit));
  return Raw;
}

bool ShaderLab::prepare(const ShaderInfo &Info) {
  CompilationUnit *Unit = unitFor(Info);
  if (!Unit->ok()) {
    LastError = "shader '" + Info.Name + "': " + Unit->Diags.str();
    return false;
  }
  return true;
}

std::vector<float> ShaderLab::defaultControls(const ShaderInfo &Info) {
  std::vector<float> Out;
  Out.reserve(Info.Controls.size());
  for (const ControlParam &Param : Info.Controls)
    Out.push_back(Param.Default);
  return Out;
}

std::vector<float> ShaderLab::sweepValues(const ControlParam &Param,
                                          unsigned Count) const {
  std::vector<float> Out;
  Out.reserve(Count);
  for (unsigned I = 0; I < Count; ++I) {
    float T = Count > 1 ? static_cast<float>(I) / (Count - 1) : 0.0f;
    Out.push_back(Param.SweepMin + (Param.SweepMax - Param.SweepMin) * T);
  }
  return Out;
}

std::optional<SpecializedShader>
ShaderLab::specializePartition(const ShaderInfo &Info, size_t VaryingIndex,
                               const SpecializerOptions &Options) {
  assert(VaryingIndex < Info.Controls.size() && "bad control index");
  CompilationUnit *Unit = unitFor(Info);
  if (!Unit->ok()) {
    LastError = "shader '" + Info.Name + "': " + Unit->Diags.str();
    return std::nullopt;
  }
  auto Compiled = specializeAndCompile(
      *Unit, Info.Name, {Info.Controls[VaryingIndex].Name}, Options);
  if (!Compiled) {
    LastError = "specializing '" + Info.Name + "' on '" +
                Info.Controls[VaryingIndex].Name +
                "': " + Unit->Diags.str();
    return std::nullopt;
  }
  return SpecializedShader(std::move(*Compiled), Info);
}

namespace {

/// Times one call of \p Body in seconds.
template <typename Fn> double timeSeconds(Fn &&Body) {
  auto Start = std::chrono::steady_clock::now();
  Body();
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(End - Start).count();
}

double median(std::vector<double> Samples) {
  std::sort(Samples.begin(), Samples.end());
  return Samples[Samples.size() / 2];
}

} // namespace

std::optional<PartitionReport>
ShaderLab::measurePartition(const ShaderInfo &Info, size_t VaryingIndex,
                            const SpecializerOptions &Options) {
  auto Spec = specializePartition(Info, VaryingIndex, Options);
  if (!Spec)
    return std::nullopt;

  PartitionReport Report;
  Report.ShaderIndex = Info.Index;
  Report.ShaderName = Info.Name;
  Report.ParamName = Info.Controls[VaryingIndex].Name;
  Report.CacheBytes = Spec->compiled().Spec.Layout.totalBytes();
  Report.CacheSlots = Spec->compiled().Spec.Layout.slotCount();

  std::vector<float> Controls = defaultControls(Info);
  std::vector<float> Sweep =
      sweepValues(Info.Controls[VaryingIndex], FramesPerMeasurement);

  // Warm up and verify one loader pass (also fills the arena).
  if (!Spec->load(Engine, Grid, Controls)) {
    LastError = "loader trapped for '" + Info.Name + "' / '" +
                Report.ParamName + "': " + Engine.lastTrap();
    return std::nullopt;
  }

  std::vector<double> OrigTimes, LoadTimes, ReadTimes;
  for (unsigned Frame = 0; Frame < FramesPerMeasurement; ++Frame) {
    Controls[VaryingIndex] = Sweep[Frame];
    bool OK = true;
    OrigTimes.push_back(timeSeconds(
        [&] { OK &= Spec->originalFrame(Engine, Grid, Controls); }));
    ReadTimes.push_back(
        timeSeconds([&] { OK &= Spec->readFrame(Engine, Grid, Controls); }));
    if (!OK) {
      LastError = "frame trapped for '" + Info.Name + "' / '" +
                  Report.ParamName + "': " + Engine.lastTrap();
      return std::nullopt;
    }
  }
  // Loader timing: reinvoked when the fixed context changes.
  Controls = defaultControls(Info);
  for (unsigned Frame = 0; Frame < FramesPerMeasurement; ++Frame) {
    bool OK = true;
    LoadTimes.push_back(
        timeSeconds([&] { OK &= Spec->load(Engine, Grid, Controls); }));
    if (!OK) {
      LastError = "loader trapped for '" + Info.Name +
                  "': " + Engine.lastTrap();
      return std::nullopt;
    }
  }

  Report.OriginalSeconds = median(OrigTimes);
  Report.LoaderSeconds = median(LoadTimes);
  Report.ReaderSeconds = median(ReadTimes);
  Report.Speedup = Report.OriginalSeconds / Report.ReaderSeconds;
  Report.LoaderOverhead = Report.LoaderSeconds / Report.OriginalSeconds;

  // Break-even: smallest k with loadT + (k-1)*readT <= k*origT. The first
  // use runs the loader (which also produces the frame).
  double LoadT = Report.LoaderSeconds;
  double ReadT = Report.ReaderSeconds;
  double OrigT = Report.OriginalSeconds;
  if (LoadT <= OrigT) {
    Report.BreakevenUses = 1;
  } else if (ReadT < OrigT) {
    double K = (LoadT - ReadT) / (OrigT - ReadT);
    Report.BreakevenUses = static_cast<unsigned>(std::ceil(K - 1e-9));
    if (Report.BreakevenUses < 1)
      Report.BreakevenUses = 1;
    if (Report.BreakevenUses > PartitionReport::BreakevenCap)
      Report.BreakevenUses = PartitionReport::BreakevenCap;
  } else {
    Report.BreakevenUses = PartitionReport::BreakevenCap;
  }
  return Report;
}

std::vector<PartitionReport>
ShaderLab::measureAllPartitions(const SpecializerOptions &Options) {
  std::vector<PartitionReport> Reports;
  for (const ShaderInfo &Info : shaderGallery()) {
    for (size_t Index = 0; Index < Info.Controls.size(); ++Index) {
      auto Report = measurePartition(Info, Index, Options);
      if (Report)
        Reports.push_back(std::move(*Report));
    }
  }
  return Reports;
}
