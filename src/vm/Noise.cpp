//===- vm/Noise.cpp - Gradient noise library --------------------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/Noise.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

using namespace dspec;

namespace {

/// Ken Perlin's reference permutation, doubled to avoid index wrapping.
const uint8_t Perm[512] = {
    151, 160, 137, 91,  90,  15,  131, 13,  201, 95,  96,  53,  194, 233, 7,
    225, 140, 36,  103, 30,  69,  142, 8,   99,  37,  240, 21,  10,  23,  190,
    6,   148, 247, 120, 234, 75,  0,   26,  197, 62,  94,  252, 219, 203, 117,
    35,  11,  32,  57,  177, 33,  88,  237, 149, 56,  87,  174, 20,  125, 136,
    171, 168, 68,  175, 74,  165, 71,  134, 139, 48,  27,  166, 77,  146, 158,
    231, 83,  111, 229, 122, 60,  211, 133, 230, 220, 105, 92,  41,  55,  46,
    245, 40,  244, 102, 143, 54,  65,  25,  63,  161, 1,   216, 80,  73,  209,
    76,  132, 187, 208, 89,  18,  169, 200, 196, 135, 130, 116, 188, 159, 86,
    164, 100, 109, 198, 173, 186, 3,   64,  52,  217, 226, 250, 124, 123, 5,
    202, 38,  147, 118, 126, 255, 82,  85,  212, 207, 206, 59,  227, 47,  16,
    58,  17,  182, 189, 28,  42,  223, 183, 170, 213, 119, 248, 152, 2,   44,
    154, 163, 70,  221, 153, 101, 155, 167, 43,  172, 9,   129, 22,  39,  253,
    19,  98,  108, 110, 79,  113, 224, 232, 178, 185, 112, 104, 218, 246, 97,
    228, 251, 34,  242, 193, 238, 210, 144, 12,  191, 179, 162, 241, 81,  51,
    145, 235, 249, 14,  239, 107, 49,  192, 214, 31,  181, 199, 106, 157, 184,
    84,  204, 176, 115, 121, 50,  45,  127, 4,   150, 254, 138, 236, 205, 93,
    222, 114, 67,  29,  24,  72,  243, 141, 128, 195, 78,  66,  215, 61,  156,
    180,
    // repeat
    151, 160, 137, 91,  90,  15,  131, 13,  201, 95,  96,  53,  194, 233, 7,
    225, 140, 36,  103, 30,  69,  142, 8,   99,  37,  240, 21,  10,  23,  190,
    6,   148, 247, 120, 234, 75,  0,   26,  197, 62,  94,  252, 219, 203, 117,
    35,  11,  32,  57,  177, 33,  88,  237, 149, 56,  87,  174, 20,  125, 136,
    171, 168, 68,  175, 74,  165, 71,  134, 139, 48,  27,  166, 77,  146, 158,
    231, 83,  111, 229, 122, 60,  211, 133, 230, 220, 105, 92,  41,  55,  46,
    245, 40,  244, 102, 143, 54,  65,  25,  63,  161, 1,   216, 80,  73,  209,
    76,  132, 187, 208, 89,  18,  169, 200, 196, 135, 130, 116, 188, 159, 86,
    164, 100, 109, 198, 173, 186, 3,   64,  52,  217, 226, 250, 124, 123, 5,
    202, 38,  147, 118, 126, 255, 82,  85,  212, 207, 206, 59,  227, 47,  16,
    58,  17,  182, 189, 28,  42,  223, 183, 170, 213, 119, 248, 152, 2,   44,
    154, 163, 70,  221, 153, 101, 155, 167, 43,  172, 9,   129, 22,  39,  253,
    19,  98,  108, 110, 79,  113, 224, 232, 178, 185, 112, 104, 218, 246, 97,
    228, 251, 34,  242, 193, 238, 210, 144, 12,  191, 179, 162, 241, 81,  51,
    145, 235, 249, 14,  239, 107, 49,  192, 214, 31,  181, 199, 106, 157, 184,
    84,  204, 176, 115, 121, 50,  45,  127, 4,   150, 254, 138, 236, 205, 93,
    222, 114, 67,  29,  24,  72,  243, 141, 128, 195, 78,  66,  215, 61,  156,
    180};

/// Four float lanes and four int32 lanes: one SSE register each at the
/// x86-64 baseline. Comparisons yield I4 lane masks (all ones = true).
typedef float F4 __attribute__((vector_size(16)));
typedef int32_t I4 __attribute__((vector_size(16)));

inline F4 asF4(I4 V) { return std::bit_cast<F4>(V); }
inline I4 asI4(F4 V) { return std::bit_cast<I4>(V); }

inline F4 load4(const float *P) {
  F4 V;
  std::memcpy(&V, P, sizeof V);
  return V;
}

/// Lane-wise M ? A : B.
inline F4 select(I4 M, F4 A, F4 B) {
  return asF4((M & asI4(A)) | (~M & asI4(B)));
}

/// Lane-wise M ? -V : V. Float negation is a sign-bit flip.
inline F4 negateWhere(I4 M, F4 V) { return asF4(asI4(V) ^ (M & INT32_MIN)); }

/// std::floor, lane by lane, by the sequence g++ inlines for it at the
/// x86-64 baseline: below 2^23 in magnitude, truncate, step down where
/// truncation rounded up, and copy X's sign (floor(-0) is -0); from 2^23
/// up, X is integral already, as inf and NaN pass through. \p Index gets
/// the lattice index, floor(X) & 255. Lanes whose floor does not fit an
/// int32 (|X| >= 2^31, NaN) get index 0, and no out-of-range value is
/// ever converted.
inline F4 floorLanes(F4 X, I4 &Index) {
  const F4 Abs = asF4(asI4(X) & INT32_MAX);
  const F4 Safe = select(Abs < 0x1p31f, X, F4{});
  const I4 Trunc = __builtin_convertvector(Safe, I4);
  const F4 TruncF = __builtin_convertvector(Trunc, F4);
  const I4 RoundedUp = TruncF > Safe;
  Index = (Trunc + RoundedUp) & 255;
  const F4 Down = TruncF - asF4(RoundedUp & asI4(F4{} + 1.0f));
  const F4 Signed = asF4((asI4(Down) & INT32_MAX) | (asI4(X) & INT32_MIN));
  return select(Abs < 0x1p23f, Signed, X);
}

inline F4 fade(F4 T) { return T * T * T * (T * (T * 6.0f - 15.0f) + 10.0f); }

inline F4 lerp(F4 T, F4 A, F4 B) { return A + T * (B - A); }

/// Perlin's gradient: Hash & 15 picks U from {X, Y} and V from {X, Y, Z},
/// and its two low bits negate them. Masks stand in for branches, which
/// mispredict because the hash depends on the data.
inline F4 grad(I4 Hash, F4 X, F4 Y, F4 Z) {
  const I4 H = Hash & 15;
  const F4 U = select(H < 8, X, Y);
  const F4 V = select(H < 4, Y, select((H == 12) | (H == 14), X, Z));
  return negateWhere((H & 1) != 0, U) + negateWhere((H & 2) != 0, V);
}

/// Noise at four points.
F4 noise4(F4 X, F4 Y, F4 Z) {
  I4 XI = {}, YI = {}, ZI = {};
  X -= floorLanes(X, XI);
  Y -= floorLanes(Y, YI);
  Z -= floorLanes(Z, ZI);
  const F4 U = fade(X);
  const F4 V = fade(Y);
  const F4 W = fade(Z);

  // The eight corner hashes, one permutation-table walk per lane.
  alignas(16) int32_t Hash[8][4] = {};
  for (unsigned L = 0; L < 4; ++L) {
    const int A = Perm[XI[L]] + YI[L];
    const int AA = Perm[A] + ZI[L];
    const int AB = Perm[A + 1] + ZI[L];
    const int B = Perm[XI[L] + 1] + YI[L];
    const int BA = Perm[B] + ZI[L];
    const int BB = Perm[B + 1] + ZI[L];
    Hash[0][L] = Perm[AA];
    Hash[1][L] = Perm[BA];
    Hash[2][L] = Perm[AB];
    Hash[3][L] = Perm[BB];
    Hash[4][L] = Perm[AA + 1];
    Hash[5][L] = Perm[BA + 1];
    Hash[6][L] = Perm[AB + 1];
    Hash[7][L] = Perm[BB + 1];
  }
  auto G = [&](unsigned Corner, F4 GX, F4 GY, F4 GZ) {
    return grad(std::bit_cast<I4>(Hash[Corner]), GX, GY, GZ);
  };

  const F4 X1 = X - 1.0f, Y1 = Y - 1.0f, Z1 = Z - 1.0f;
  return lerp(W,
              lerp(V, lerp(U, G(0, X, Y, Z), G(1, X1, Y, Z)),
                   lerp(U, G(2, X, Y1, Z), G(3, X1, Y1, Z))),
              lerp(V, lerp(U, G(4, X, Y, Z1), G(5, X1, Y, Z1)),
                   lerp(U, G(6, X, Y1, Z1), G(7, X1, Y1, Z1))));
}

/// The octave loop fbm and turbulence share, four lanes at a time. A lane
/// stops accumulating after its own octave count; its group runs to the
/// largest.
template <bool Turbulence>
void octaveLanes(const float *X, const float *Y, const float *Z,
                 const int *Octaves, const float *Lacunarity,
                 const float *Gain, float *Out, unsigned N) {
  for (unsigned I = 0; I < N; I += 4) {
    const unsigned Group = std::min(4u, N - I);
    float FX[4] = {}, FY[4] = {}, FZ[4] = {}, Noise[4] = {};
    float Sum[4] = {}, Amplitude[4] = {};
    int Most = 0;
    for (unsigned J = 0; J < Group; ++J) {
      FX[J] = X[I + J];
      FY[J] = Y[I + J];
      FZ[J] = Z[I + J];
      Amplitude[J] = 1.0f;
      Most = std::max(Most, Octaves[I + J]);
    }
    for (int Octave = 0; Octave < Most; ++Octave) {
      perlinNoise3Lanes(FX, FY, FZ, Noise, Group);
      for (unsigned J = 0; J < Group; ++J) {
        if (Octave >= Octaves[I + J])
          continue;
        const float Step = Turbulence ? 2.0f : Lacunarity[I + J];
        Sum[J] += Amplitude[J] * (Turbulence ? std::fabs(Noise[J]) : Noise[J]);
        FX[J] *= Step;
        FY[J] *= Step;
        FZ[J] *= Step;
        Amplitude[J] *= Turbulence ? 0.5f : Gain[I + J];
      }
    }
    std::copy(Sum, Sum + Group, Out + I);
  }
}

} // namespace

void dspec::perlinNoise3Lanes(const float *X, const float *Y, const float *Z,
                              float *Out, unsigned N) {
  unsigned I = 0;
  for (; I + 4 <= N; I += 4) {
    const F4 R = noise4(load4(X + I), load4(Y + I), load4(Z + I));
    std::memcpy(Out + I, &R, sizeof R);
  }
  if (I == N)
    return;
  // The last one to three lanes run as one step padded with the point
  // (0, 0, 0), whose results are dropped.
  float TX[4] = {}, TY[4] = {}, TZ[4] = {}, TOut[4] = {};
  std::copy(X + I, X + N, TX);
  std::copy(Y + I, Y + N, TY);
  std::copy(Z + I, Z + N, TZ);
  const F4 R = noise4(load4(TX), load4(TY), load4(TZ));
  std::memcpy(TOut, &R, sizeof R);
  std::copy(TOut, TOut + (N - I), Out + I);
}

void dspec::fbm3Lanes(const float *X, const float *Y, const float *Z,
                      const int *Octaves, const float *Lacunarity,
                      const float *Gain, float *Out, unsigned N) {
  octaveLanes<false>(X, Y, Z, Octaves, Lacunarity, Gain, Out, N);
}

void dspec::turbulence3Lanes(const float *X, const float *Y, const float *Z,
                             const int *Octaves, float *Out, unsigned N) {
  octaveLanes<true>(X, Y, Z, Octaves, nullptr, nullptr, Out, N);
}
