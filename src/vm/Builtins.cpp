//===- vm/Builtins.cpp - Builtin semantics ----------------------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime implementations of the dsc builtin library (lang/Builtins.h):
/// scalar math, vector operations, rotation transforms, the noise family,
/// and the two effectful builtins used to exercise Rule 2.
///
/// Every builtin is lane-wise. callBuiltinLanes switches on the builtin
/// once, then runs a lane loop that reads the argument rows in place: the
/// batched tier calls it once per instruction per tile, the switch
/// interpreter with one lane, so both tiers go through this one dispatch
/// and agree bit for bit. Each lane runs the scalar helpers below; the
/// noise builtins hand four lanes at a time to the kernel in vm/Noise.h.
///
//===----------------------------------------------------------------------===//

#include "lang/Builtins.h"
#include "vm/Noise.h"
#include "vm/VM.h"

#include <algorithm>
#include <cmath>
#include <utility>

using namespace dspec;

namespace {

Value vecOp2(const Value &A, const Value &B, float (*Op)(float, float)) {
  Value Out;
  Out.Kind = A.Kind;
  for (unsigned I = 0; I < A.width(); ++I)
    Out.F[I] = Op(A.F[I], B.F[I]);
  return Out;
}

float dot(const Value &A, const Value &B) {
  float Sum = 0;
  for (unsigned I = 0; I < A.width(); ++I)
    Sum += A.F[I] * B.F[I];
  return Sum;
}

Value normalize(const Value &V) {
  float Len = std::sqrt(dot(V, V));
  Value Out = V;
  if (Len == 0.0f)
    return Out;
  for (unsigned I = 0; I < V.width(); ++I)
    Out.F[I] = V.F[I] / Len;
  return Out;
}

Value mixVec(const Value &A, const Value &B, float T) {
  Value Out = A;
  for (unsigned I = 0; I < A.width(); ++I)
    Out.F[I] = A.F[I] + (B.F[I] - A.F[I]) * T;
  return Out;
}

float smoothstepf(float E0, float E1, float X) {
  if (E0 == E1)
    return X < E0 ? 0.0f : 1.0f;
  float T = (X - E0) / (E1 - E0);
  T = T < 0.0f ? 0.0f : (T > 1.0f ? 1.0f : T);
  return T * T * (3.0f - 2.0f * T);
}

Value rotate(const Value &V, float Angle, unsigned Axis) {
  float C = std::cos(Angle);
  float S = std::sin(Angle);
  float X = V.F[0], Y = V.F[1], Z = V.F[2];
  switch (Axis) {
  case 0:
    return Value::makeVec3(X, C * Y - S * Z, S * Y + C * Z);
  case 1:
    return Value::makeVec3(C * X + S * Z, Y, -S * X + C * Z);
  default:
    return Value::makeVec3(C * X - S * Y, S * X + C * Y, Z);
  }
}

/// float -> int32 by truncation. NaN and values outside int32's range,
/// where the C++ conversion is undefined, give INT32_MIN: what x86's
/// truncating conversion returns for them.
int32_t toInt32(float X) {
  return X >= -0x1p31f && X < 0x1p31f ? static_cast<int32_t>(X) : INT32_MIN;
}

int clampOctaves(int32_t Octaves) {
  return Octaves < 0 ? 0 : (Octaves > 16 ? 16 : Octaves);
}

template <typename Fn, size_t... K>
void lanesOf(std::index_sequence<K...>, const Value *const *Args,
             Value *Dest, unsigned Lanes, Fn F) {
  const Value *Rows[] = {Args[K]...};
  for (unsigned L = 0; L < Lanes; ++L)
    Dest[L] = F(Rows[K][L]...);
}

/// The lane loop of an \p Arity-argument builtin: Dest[L] = F(lane L's
/// arguments). F builds its result in full before the store, so Dest may
/// alias the first argument row.
template <size_t Arity, typename Fn>
void lanes(const Value *const *Args, Value *Dest, unsigned Lanes, Fn F) {
  lanesOf(std::make_index_sequence<Arity>(), Args, Dest, Lanes, F);
}

/// lanes() for a float builtin of float arguments.
template <size_t Arity, typename Fn>
void floatLanes(const Value *const *Args, Value *Dest, unsigned Lanes,
                Fn F) {
  lanes<Arity>(Args, Dest, Lanes, [F](const auto &...X) {
    return Value::makeFloat(F(X.asFloat()...));
  });
}

/// Noise of one point per lane, four lanes per kernel step. Point(V, X,
/// Y, Z) maps a lane's argument to its point. A group reads all of its
/// arguments before it writes Dest, which may alias them.
template <typename PointFn>
void noiseLanes(const Value *Arg, Value *Dest, unsigned Lanes,
                PointFn Point) {
  for (unsigned L = 0; L < Lanes; L += 4) {
    const unsigned Group = std::min(4u, Lanes - L);
    float X[4] = {}, Y[4] = {}, Z[4] = {}, Out[4] = {};
    for (unsigned J = 0; J < Group; ++J)
      Point(Arg[L + J], X[J], Y[J], Z[J]);
    perlinNoise3Lanes(X, Y, Z, Out, Group);
    for (unsigned J = 0; J < Group; ++J)
      Dest[L + J] = Value::makeFloat(Out[J]);
  }
}

/// vnoise: three noise points per lane, one kernel call per group of up
/// to four lanes (point K of lane J at index K * Group + J).
void vnoiseLanes(const Value *Arg, Value *Dest, unsigned Lanes) {
  for (unsigned L = 0; L < Lanes; L += 4) {
    const unsigned Group = std::min(4u, Lanes - L);
    float X[12] = {}, Y[12] = {}, Z[12] = {}, Out[12] = {};
    for (unsigned J = 0; J < Group; ++J) {
      const float *P = Arg[L + J].F;
      X[J] = P[0];
      Y[J] = P[1];
      Z[J] = P[2];
      X[Group + J] = P[1] + 31.7f;
      Y[Group + J] = P[2] + 11.3f;
      Z[Group + J] = P[0] + 5.1f;
      X[2 * Group + J] = P[2] + 71.9f;
      Y[2 * Group + J] = P[0] + 43.1f;
      Z[2 * Group + J] = P[1] + 9.7f;
    }
    perlinNoise3Lanes(X, Y, Z, Out, 3 * Group);
    for (unsigned J = 0; J < Group; ++J)
      Dest[L + J] =
          Value::makeVec3(Out[J], Out[Group + J], Out[2 * Group + J]);
  }
}

/// fbm (point, octaves, lacunarity, gain) and turbulence (point,
/// octaves), four lanes per group.
template <bool Turbulence>
void fbmLanes(const Value *const *Args, Value *Dest, unsigned Lanes) {
  for (unsigned L = 0; L < Lanes; L += 4) {
    const unsigned Group = std::min(4u, Lanes - L);
    float X[4] = {}, Y[4] = {}, Z[4] = {}, Out[4] = {};
    float Lacunarity[4] = {}, Gain[4] = {};
    int Octaves[4] = {};
    for (unsigned J = 0; J < Group; ++J) {
      const float *P = Args[0][L + J].F;
      X[J] = P[0];
      Y[J] = P[1];
      Z[J] = P[2];
      Octaves[J] = clampOctaves(Args[1][L + J].I);
      if constexpr (!Turbulence) {
        Lacunarity[J] = Args[2][L + J].asFloat();
        Gain[J] = Args[3][L + J].asFloat();
      }
    }
    if constexpr (Turbulence)
      turbulence3Lanes(X, Y, Z, Octaves, Out, Group);
    else
      fbm3Lanes(X, Y, Z, Octaves, Lacunarity, Gain, Out, Group);
    for (unsigned J = 0; J < Group; ++J)
      Dest[L + J] = Value::makeFloat(Out[J]);
  }
}

} // namespace

namespace dspec {

void callBuiltinLanes(uint16_t Id, const Value *const *ArgRows, Value *Dest,
                      unsigned Lanes, VM &Machine) {
  using V = const Value &;
  switch (static_cast<BuiltinId>(Id)) {
  case BuiltinId::BI_SqrtF:
    return floatLanes<1>(ArgRows, Dest, Lanes,
                         [](float X) { return std::sqrt(X); });
  case BuiltinId::BI_AbsF:
    return floatLanes<1>(ArgRows, Dest, Lanes,
                         [](float X) { return std::fabs(X); });
  case BuiltinId::BI_AbsI:
    return lanes<1>(ArgRows, Dest, Lanes,
                    [](V X) { return Value::makeInt(X.I < 0 ? -X.I : X.I); });
  case BuiltinId::BI_FloorF:
    return floatLanes<1>(ArgRows, Dest, Lanes,
                         [](float X) { return std::floor(X); });
  case BuiltinId::BI_CeilF:
    return floatLanes<1>(ArgRows, Dest, Lanes,
                         [](float X) { return std::ceil(X); });
  case BuiltinId::BI_FractF:
    return floatLanes<1>(ArgRows, Dest, Lanes,
                         [](float X) { return X - std::floor(X); });
  case BuiltinId::BI_SinF:
    return floatLanes<1>(ArgRows, Dest, Lanes,
                         [](float X) { return std::sin(X); });
  case BuiltinId::BI_CosF:
    return floatLanes<1>(ArgRows, Dest, Lanes,
                         [](float X) { return std::cos(X); });
  case BuiltinId::BI_TanF:
    return floatLanes<1>(ArgRows, Dest, Lanes,
                         [](float X) { return std::tan(X); });
  case BuiltinId::BI_ExpF:
    return floatLanes<1>(ArgRows, Dest, Lanes,
                         [](float X) { return std::exp(X); });
  case BuiltinId::BI_LogF:
    return floatLanes<1>(ArgRows, Dest, Lanes,
                         [](float X) { return std::log(X); });
  case BuiltinId::BI_PowF:
    return floatLanes<2>(ArgRows, Dest, Lanes,
                         [](float X, float Y) { return std::pow(X, Y); });
  case BuiltinId::BI_MinF:
    return floatLanes<2>(ArgRows, Dest, Lanes,
                         [](float X, float Y) { return std::fmin(X, Y); });
  case BuiltinId::BI_MinI:
    return lanes<2>(ArgRows, Dest, Lanes, [](V X, V Y) {
      return Value::makeInt(X.I < Y.I ? X.I : Y.I);
    });
  case BuiltinId::BI_MaxF:
    return floatLanes<2>(ArgRows, Dest, Lanes,
                         [](float X, float Y) { return std::fmax(X, Y); });
  case BuiltinId::BI_MaxI:
    return lanes<2>(ArgRows, Dest, Lanes, [](V X, V Y) {
      return Value::makeInt(X.I > Y.I ? X.I : Y.I);
    });
  case BuiltinId::BI_ClampF:
    return floatLanes<3>(ArgRows, Dest, Lanes, [](float X, float Lo, float Hi) {
      return X < Lo ? Lo : (X > Hi ? Hi : X);
    });
  case BuiltinId::BI_MixF:
    return floatLanes<3>(ArgRows, Dest, Lanes, [](float X, float Y, float T) {
      return X + (Y - X) * T;
    });
  case BuiltinId::BI_StepF:
    return floatLanes<2>(ArgRows, Dest, Lanes, [](float Edge, float X) {
      return X < Edge ? 0.0f : 1.0f;
    });
  case BuiltinId::BI_SmoothStepF:
    return floatLanes<3>(ArgRows, Dest, Lanes, smoothstepf);
  case BuiltinId::BI_ModF:
    return floatLanes<2>(ArgRows, Dest, Lanes,
                         [](float X, float Y) { return std::fmod(X, Y); });
  case BuiltinId::BI_ToInt:
    return lanes<1>(ArgRows, Dest, Lanes,
                    [](V X) { return Value::makeInt(toInt32(X.asFloat())); });
  case BuiltinId::BI_ToFloat:
    return lanes<1>(ArgRows, Dest, Lanes, [](V X) {
      return Value::makeFloat(static_cast<float>(X.I));
    });
  case BuiltinId::BI_Vec2:
    return lanes<2>(ArgRows, Dest, Lanes, [](V X, V Y) {
      return Value::makeVec2(X.asFloat(), Y.asFloat());
    });
  case BuiltinId::BI_Vec3:
    return lanes<3>(ArgRows, Dest, Lanes, [](V X, V Y, V Z) {
      return Value::makeVec3(X.asFloat(), Y.asFloat(), Z.asFloat());
    });
  case BuiltinId::BI_Vec3Splat:
    return lanes<1>(ArgRows, Dest, Lanes, [](V X) {
      const float S = X.asFloat();
      return Value::makeVec3(S, S, S);
    });
  case BuiltinId::BI_Vec4:
    return lanes<4>(ArgRows, Dest, Lanes, [](V X, V Y, V Z, V W) {
      return Value::makeVec4(X.asFloat(), Y.asFloat(), Z.asFloat(),
                             W.asFloat());
    });
  case BuiltinId::BI_Vec4FromVec3:
    return lanes<2>(ArgRows, Dest, Lanes, [](V XYZ, V W) {
      return Value::makeVec4(XYZ.F[0], XYZ.F[1], XYZ.F[2], W.asFloat());
    });
  case BuiltinId::BI_DotV2:
  case BuiltinId::BI_DotV3:
  case BuiltinId::BI_DotV4:
    return lanes<2>(ArgRows, Dest, Lanes,
                    [](V X, V Y) { return Value::makeFloat(dot(X, Y)); });
  case BuiltinId::BI_CrossV3:
    return lanes<2>(ArgRows, Dest, Lanes, [](V X, V Y) {
      return Value::makeVec3(X.F[1] * Y.F[2] - X.F[2] * Y.F[1],
                             X.F[2] * Y.F[0] - X.F[0] * Y.F[2],
                             X.F[0] * Y.F[1] - X.F[1] * Y.F[0]);
    });
  case BuiltinId::BI_LengthV2:
  case BuiltinId::BI_LengthV3:
  case BuiltinId::BI_LengthV4:
    return lanes<1>(ArgRows, Dest, Lanes, [](V X) {
      return Value::makeFloat(std::sqrt(dot(X, X)));
    });
  case BuiltinId::BI_NormalizeV2:
  case BuiltinId::BI_NormalizeV3:
  case BuiltinId::BI_NormalizeV4:
    return lanes<1>(ArgRows, Dest, Lanes, normalize);
  case BuiltinId::BI_DistanceV3:
    return lanes<2>(ArgRows, Dest, Lanes, [](V X, V Y) {
      Value Diff = vecOp2(X, Y, [](float A, float B) { return A - B; });
      return Value::makeFloat(std::sqrt(dot(Diff, Diff)));
    });
  case BuiltinId::BI_ReflectV3:
    // reflect(I, N) = I - 2*dot(N, I)*N
    return lanes<2>(ArgRows, Dest, Lanes, [](V I, V N) {
      float D = 2.0f * dot(N, I);
      return Value::makeVec3(I.F[0] - D * N.F[0], I.F[1] - D * N.F[1],
                             I.F[2] - D * N.F[2]);
    });
  case BuiltinId::BI_FaceForwardV3:
    // faceforward(N, I): N flipped to oppose I.
    return lanes<2>(ArgRows, Dest, Lanes, [](V N, V I) {
      if (!(dot(I, N) > 0.0f))
        return N;
      return Value::makeVec3(-N.F[0], -N.F[1], -N.F[2]);
    });
  case BuiltinId::BI_MixV2:
  case BuiltinId::BI_MixV3:
  case BuiltinId::BI_MixV4:
    return lanes<3>(ArgRows, Dest, Lanes,
                    [](V X, V Y, V T) { return mixVec(X, Y, T.asFloat()); });
  case BuiltinId::BI_ClampV3:
    return lanes<3>(ArgRows, Dest, Lanes, [](V X, V LoV, V HiV) {
      float Lo = LoV.asFloat(), Hi = HiV.asFloat();
      Value Out = X;
      for (unsigned I = 0; I < 3; ++I)
        Out.F[I] = Out.F[I] < Lo ? Lo : (Out.F[I] > Hi ? Hi : Out.F[I]);
      return Out;
    });
  case BuiltinId::BI_MinV3:
    return lanes<2>(ArgRows, Dest, Lanes, [](V X, V Y) {
      return vecOp2(X, Y, [](float A, float B) { return std::fmin(A, B); });
    });
  case BuiltinId::BI_MaxV3:
    return lanes<2>(ArgRows, Dest, Lanes, [](V X, V Y) {
      return vecOp2(X, Y, [](float A, float B) { return std::fmax(A, B); });
    });
  case BuiltinId::BI_RotateXV3:
    return lanes<2>(ArgRows, Dest, Lanes,
                    [](V X, V A) { return rotate(X, A.asFloat(), 0); });
  case BuiltinId::BI_RotateYV3:
    return lanes<2>(ArgRows, Dest, Lanes,
                    [](V X, V A) { return rotate(X, A.asFloat(), 1); });
  case BuiltinId::BI_RotateZV3:
    return lanes<2>(ArgRows, Dest, Lanes,
                    [](V X, V A) { return rotate(X, A.asFloat(), 2); });
  case BuiltinId::BI_Noise1:
    return noiseLanes(ArgRows[0], Dest, Lanes,
                      [](V P, float &X, float &Y, float &Z) {
                        X = P.asFloat();
                        Y = 0.37f;
                        Z = 0.73f;
                      });
  case BuiltinId::BI_Noise2:
    return noiseLanes(ArgRows[0], Dest, Lanes,
                      [](V P, float &X, float &Y, float &Z) {
                        X = P.F[0];
                        Y = P.F[1];
                        Z = 0.5f;
                      });
  case BuiltinId::BI_Noise3:
    return noiseLanes(ArgRows[0], Dest, Lanes,
                      [](V P, float &X, float &Y, float &Z) {
                        X = P.F[0];
                        Y = P.F[1];
                        Z = P.F[2];
                      });
  case BuiltinId::BI_VNoise3:
    return vnoiseLanes(ArgRows[0], Dest, Lanes);
  case BuiltinId::BI_Fbm:
    return fbmLanes<false>(ArgRows, Dest, Lanes);
  case BuiltinId::BI_Turbulence:
    return fbmLanes<true>(ArgRows, Dest, Lanes);
  // The effectful builtins only ever see one lane: BatchSafe keeps their
  // chunks off the batched tier.
  case BuiltinId::BI_Trace:
    for (unsigned L = 0; L < Lanes; ++L) {
      Machine.TraceLog.push_back(ArgRows[0][L].asFloat());
      Dest[L] = Value::makeVoid();
    }
    return;
  case BuiltinId::BI_Clock:
    for (unsigned L = 0; L < Lanes; ++L)
      Dest[L] = Value::makeFloat(static_cast<float>(Machine.ClockCounter++));
    return;
  }
  std::fill(Dest, Dest + Lanes, Value::makeVoid());
}

} // namespace dspec
