//===- shading/ShaderLab.h - Section 5 measurement driver -------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the paper's Section 5 experiments for one gallery shader and
/// one input partition: compile the original, specialize on "everything
/// fixed except one control parameter", fill the per-pixel cache array
/// with the loader, then time original vs. reader frames while sweeping
/// the varying parameter (simulating the user dragging one slider in the
/// [GKR95] interface). Also computes the paper's per-partition metrics:
/// asymptotic speedup (Figure 7), single-pixel cache bytes (Figure 8),
/// and the break-even use count (Section 5.2).
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_SHADING_SHADERLAB_H
#define DATASPEC_SHADING_SHADERLAB_H

#include "driver/Pipeline.h"
#include "engine/CacheArena.h"
#include "engine/RenderContext.h"
#include "engine/RenderEngine.h"
#include "shading/ShaderGallery.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace dspec {

/// The Section 5 metrics for one (shader, varying-parameter) pair.
struct PartitionReport {
  unsigned ShaderIndex = 0;
  std::string ShaderName;
  std::string ParamName;
  /// Asymptotic per-frame speedup: T(original) / T(reader). Figure 7.
  double Speedup = 0.0;
  /// Single-pixel cache bytes. Figure 8.
  unsigned CacheBytes = 0;
  unsigned CacheSlots = 0;
  /// Minimum number of uses k with loadT + (k-1)*readT <= k*origT
  /// (Section 5.2; capped at BreakevenCap when the reader never wins).
  unsigned BreakevenUses = 0;
  /// Loader-frame cost relative to an original frame.
  double LoaderOverhead = 0.0;
  /// Raw per-frame timings in seconds.
  double OriginalSeconds = 0.0;
  double LoaderSeconds = 0.0;
  double ReaderSeconds = 0.0;

  static constexpr unsigned BreakevenCap = 1000;
};

/// A compiled (shader, partition) specialization bound to a pixel grid,
/// with one packed CacheArena holding every pixel's cache. Reusable
/// across frames; all passes run on a RenderEngine.
class SpecializedShader {
public:
  SpecializedShader(CompiledSpecialization Compiled, const ShaderInfo &Info);

  /// Runs the loader over every pixel (the early phase), filling the
  /// grid's packed cache arena. \p Controls must contain one value per
  /// control parameter. Returns false on any trap.
  bool load(RenderEngine &Engine, const RenderGrid &Grid,
            const std::vector<float> &Controls, Framebuffer *Out = nullptr);

  /// Runs the reader over every pixel. The arena must have been loaded
  /// with identical fixed inputs (only the varying control may differ).
  bool readFrame(RenderEngine &Engine, const RenderGrid &Grid,
                 const std::vector<float> &Controls,
                 Framebuffer *Out = nullptr);

  /// Runs the *original* program over every pixel (baseline).
  bool originalFrame(RenderEngine &Engine, const RenderGrid &Grid,
                     const std::vector<float> &Controls,
                     Framebuffer *Out = nullptr);

  const CompiledSpecialization &compiled() const { return Compiled; }

  /// The packed per-pixel cache storage (for inspection in tests).
  const CacheArena &arena() const { return Arena; }

  /// One pixel's cache decoded into boxed values (test/debug aid).
  std::vector<Value> cacheValuesAt(unsigned Pixel) const {
    return Arena.decode(Pixel);
  }

private:
  CompiledSpecialization Compiled;
  const ShaderInfo &Info;
  CacheArena Arena;
};

/// Top-level experiment driver. Owns the pixel grid and parsed shaders.
class ShaderLab {
public:
  /// \p Width x \p Height pixels per frame; \p FramesPerMeasurement
  /// frames are timed per phase and the *median* frame time is used.
  /// \p Threads sizes the lab's render engine; the default of 1 keeps the
  /// paper's per-frame measurements serial and comparable.
  ShaderLab(unsigned Width = 48, unsigned Height = 32,
            unsigned FramesPerMeasurement = 5, unsigned Threads = 1);

  /// Parses and prepares a gallery shader (cached across calls).
  /// Returns false (and records the message) when the shader does not
  /// compile — which would be a bug, exercised by tests.
  bool prepare(const ShaderInfo &Info);

  /// Builds the specialization for one partition.
  std::optional<SpecializedShader>
  specializePartition(const ShaderInfo &Info, size_t VaryingIndex,
                      const SpecializerOptions &Options = {});

  /// Runs the full measurement for one partition.
  std::optional<PartitionReport>
  measurePartition(const ShaderInfo &Info, size_t VaryingIndex,
                   const SpecializerOptions &Options = {});

  /// Runs every partition of every gallery shader (the Figure 7 / 8 /
  /// Section 5.2 sweep).
  std::vector<PartitionReport>
  measureAllPartitions(const SpecializerOptions &Options = {});

  const RenderGrid &grid() const { return Grid; }
  RenderEngine &engine() { return Engine; }
  const std::string &lastError() const { return LastError; }

  /// Sweep values used for the varying control across frames.
  std::vector<float> sweepValues(const ControlParam &Param,
                                 unsigned Count) const;

  /// Default control vector of a shader.
  static std::vector<float> defaultControls(const ShaderInfo &Info);

private:
  CompilationUnit *unitFor(const ShaderInfo &Info);

  RenderGrid Grid;
  RenderEngine Engine;
  unsigned FramesPerMeasurement;
  std::string LastError;
  std::vector<std::pair<std::string, std::unique_ptr<CompilationUnit>>> Units;
};

} // namespace dspec

#endif // DATASPEC_SHADING_SHADERLAB_H
