//===- engine/RenderContext.h - Per-pixel fixed inputs ---------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Synthetic per-pixel rendering contexts. The paper's shaders receive
/// "the pixel coordinates [and] various rendering information specific to
/// the pixel" from the interactive renderer of [GKR95]; we substitute a
/// procedural scene — a wavy height-field patch with analytic normals and
/// a fixed eye point — that produces the same four standard inputs every
/// gallery shader takes:
///
///   vec2 uv   texture coordinates in [0,1]^2
///   vec3 P    surface position
///   vec3 N    unit surface normal
///   vec3 I    unit direction from the surface point toward the eye
///
/// These are *fixed* inputs in every input partition (the user only drags
/// control parameters), which is what makes one cache per pixel viable.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_ENGINE_RENDERCONTEXT_H
#define DATASPEC_ENGINE_RENDERCONTEXT_H

#include "vm/Value.h"

#include <memory>
#include <vector>

namespace dspec {

/// A W x H grid of per-pixel fixed inputs over the procedural patch.
///
/// The inputs are a pure function of the size, so a grid is a handle to
/// one immutable array per (W, H), shared by every grid of that size in
/// the process: a service's units, spill restores and snapshot warm
/// starts all read the same bytes. The array is built on first use and
/// freed with the last grid that holds it. Copies and moves both share
/// the array, so no grid is ever left without one.
///
/// The array is flat Values in pixel order, InputsPerPixel to a pixel, so
/// a run of pixels is a lane-major argument array that the batched tier
/// reads in place.
class RenderGrid {
public:
  /// Values per pixel: (uv, P, N, I).
  static constexpr unsigned InputsPerPixel = 4;

  RenderGrid(unsigned Width, unsigned Height);
  // Declared so that no move is generated: a move would leave the source
  // without an array, and moving from a grid is then a copy.
  RenderGrid(const RenderGrid &) = default;
  RenderGrid &operator=(const RenderGrid &) = default;

  unsigned width() const { return W; }
  unsigned height() const { return H; }
  unsigned pixelCount() const {
    return static_cast<unsigned>(Inputs->size() / InputsPerPixel);
  }
  /// Every pixel's inputs: pixel I's uv, P, N and I are the Values at
  /// inputs()[I * InputsPerPixel] on.
  const std::vector<Value> &inputs() const { return *Inputs; }
  const Value *pixelInputs(size_t Index) const {
    return Inputs->data() + Index * InputsPerPixel;
  }

private:
  unsigned W;
  unsigned H;
  std::shared_ptr<const std::vector<Value>> Inputs;
};

/// A trivially small framebuffer for the examples: vec3 colors.
class Framebuffer {
public:
  Framebuffer(unsigned Width, unsigned Height)
      : W(Width), H(Height), Pixels(static_cast<size_t>(Width) * Height) {}

  unsigned width() const { return W; }
  unsigned height() const { return H; }
  Value &at(unsigned X, unsigned Y) { return Pixels[size_t(Y) * W + X]; }
  const Value &at(unsigned X, unsigned Y) const {
    return Pixels[size_t(Y) * W + X];
  }

  /// Renders the luminance of the image as ASCII art (examples print it).
  std::string asciiArt() const;

  /// Writes a binary PPM (P6) image file. Returns false on I/O failure.
  bool writePPM(const std::string &Path) const;

private:
  unsigned W;
  unsigned H;
  std::vector<Value> Pixels;
};

} // namespace dspec

#endif // DATASPEC_ENGINE_RENDERCONTEXT_H
