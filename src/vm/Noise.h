//===- vm/Noise.h - Gradient noise library ----------------------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic Perlin-style gradient noise library — the expensive
/// "noise functions" of the shaders' math library (the paper's shaders 3,
/// 4, and 5 owe their up-to-100x speedups to caching noise values). All
/// functions are pure and reproducible across runs.
///
/// The library has one implementation: perlinNoise3Lanes, a branch-free
/// kernel that evaluates four lanes per step with GCC vector extensions
/// (SSE2 at the x86-64 baseline; no intrinsics, no CPU dispatch). Every
/// lane runs the same IEEE float operations, in the same order, as the
/// classic scalar Perlin code, so its output bits do not depend on the
/// lane count or on a lane's position. The scalar entry points are
/// one-lane calls of the lane functions.
///
/// Coordinates whose floor does not fit an int32 (|x| >= 2^31, inf, NaN)
/// get lattice index 0, the value x86's truncating conversion gave.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_VM_NOISE_H
#define DATASPEC_VM_NOISE_H

namespace dspec {

/// 3-D gradient noise in roughly [-1, 1] for \p N lanes:
/// Out[i] = noise(X[i], Y[i], Z[i]). \p Out may alias an input array.
void perlinNoise3Lanes(const float *X, const float *Y, const float *Z,
                       float *Out, unsigned N);

/// Fractal Brownian motion for \p N lanes: Octaves[i] octaves of noise
/// with frequency ratio Lacunarity[i] and amplitude ratio Gain[i].
void fbm3Lanes(const float *X, const float *Y, const float *Z,
               const int *Octaves, const float *Lacunarity,
               const float *Gain, float *Out, unsigned N);

/// Turbulence for \p N lanes: the sum of absolute noise over Octaves[i]
/// octaves, doubling the frequency and halving the amplitude each time.
void turbulence3Lanes(const float *X, const float *Y, const float *Z,
                      const int *Octaves, float *Out, unsigned N);

/// 3-D gradient noise at one point.
inline float perlinNoise3(float X, float Y, float Z) {
  float Out;
  perlinNoise3Lanes(&X, &Y, &Z, &Out, 1);
  return Out;
}

/// Fractal Brownian motion at one point.
inline float fbm3(float X, float Y, float Z, int Octaves, float Lacunarity,
                  float Gain) {
  float Out;
  fbm3Lanes(&X, &Y, &Z, &Octaves, &Lacunarity, &Gain, &Out, 1);
  return Out;
}

/// Turbulence at one point.
inline float turbulence3(float X, float Y, float Z, int Octaves) {
  float Out;
  turbulence3Lanes(&X, &Y, &Z, &Octaves, &Out, 1);
  return Out;
}

} // namespace dspec

#endif // DATASPEC_VM_NOISE_H
