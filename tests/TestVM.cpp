//===- tests/TestVM.cpp - Bytecode compiler and VM tests ----------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "lang/Builtins.h"
#include "vm/Noise.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <utility>

using namespace dspec;

namespace {

/// Compiles one function and runs it.
ExecResult runSource(const std::string &Source, const std::string &Name,
                     const std::vector<Value> &Args, VM *Machine = nullptr) {
  auto Unit = parseUnit(Source);
  EXPECT_TRUE(Unit->ok()) << Unit->Diags.str();
  auto Code = compileFunction(*Unit, Name);
  EXPECT_TRUE(Code.has_value());
  VM Local;
  return (Machine ? *Machine : Local).run(*Code, Args);
}

TEST(VM, IntArithmetic) {
  auto R = runSource("int f(int a, int b) { return (a + b) * 2 - b / 2 + "
                     "b % 3; }",
                     "f", {Value::makeInt(5), Value::makeInt(7)});
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Result.asInt(), (5 + 7) * 2 - 7 / 2 + 7 % 3);
}

TEST(VM, FloatArithmeticAndPromotion) {
  auto R = runSource("float f(float a, int b) { return a * b + b / 2; }",
                     "f", {Value::makeFloat(1.5f), Value::makeInt(5)});
  ASSERT_TRUE(R.ok());
  // b / 2 is *integer* division (both operands int), then promotes.
  EXPECT_FLOAT_EQ(R.Result.asFloat(), 1.5f * 5 + 2);
}

TEST(VM, IntDivisionByZeroTraps) {
  auto R = runSource("int f(int a) { return 1 / a; }", "f",
                     {Value::makeInt(0)});
  EXPECT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapMessage.find("division by zero"), std::string::npos);
}

TEST(VM, FloatDivisionByZeroIsInf) {
  auto R = runSource("float f(float a) { return 1.0 / a; }", "f",
                     {Value::makeFloat(0.0f)});
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(std::isinf(R.Result.asFloat()));
}

TEST(VM, ModByZeroTraps) {
  auto R = runSource("int f(int a) { return 7 % a; }", "f",
                     {Value::makeInt(0)});
  EXPECT_TRUE(R.Trapped);
}

TEST(VM, Comparisons) {
  auto R = runSource("bool f(int a, float b) { return a <= b; }", "f",
                     {Value::makeInt(2), Value::makeFloat(2.0f)});
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(R.Result.asBool());
}

TEST(VM, StrictLogicalOperators) {
  // Both sides evaluate (dsc && is strict); semantics still boolean.
  auto R = runSource(
      "bool f(bool a, bool b) { return a && b || !a && !b; }", "f",
      {Value::makeBool(true), Value::makeBool(false)});
  ASSERT_TRUE(R.ok());
  EXPECT_FALSE(R.Result.asBool());
}

TEST(VM, TernarySelectsButEvaluatesBoth) {
  auto R = runSource("float f(bool c) { return c ? 1.0 : 2.0; }", "f",
                     {Value::makeBool(false)});
  ASSERT_TRUE(R.ok());
  EXPECT_FLOAT_EQ(R.Result.asFloat(), 2.0f);
}

TEST(VM, WhileLoopAccumulates) {
  auto R = runSource(R"(
int f(int n) {
  int total = 0;
  int i = 0;
  while (i < n) {
    total = total + i * i;
    i = i + 1;
  }
  return total;
})",
                     "f", {Value::makeInt(5)});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Result.asInt(), 0 + 1 + 4 + 9 + 16);
}

TEST(VM, NestedLoops) {
  auto R = runSource(R"(
int f(int n) {
  int total = 0;
  for (int i = 0; i < n; i = i + 1) {
    for (int j = 0; j <= i; j = j + 1) {
      total = total + 1;
    }
  }
  return total;
})",
                     "f", {Value::makeInt(4)});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Result.asInt(), 1 + 2 + 3 + 4);
}

TEST(VM, InstructionBudgetStopsRunaways) {
  auto Unit = parseUnit("int f() { while (true) { int x = 0; } return 0; }");
  ASSERT_TRUE(Unit->ok());
  auto Code = compileFunction(*Unit, "f");
  VM Machine;
  Machine.InstructionBudget = 10000;
  auto R = Machine.run(*Code, {});
  EXPECT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapMessage.find("budget"), std::string::npos);
}

TEST(VM, VectorOpsAndMembers) {
  auto R = runSource(R"(
float f(vec3 a, vec3 b, float s) {
  vec3 c = (a + b) * s;
  vec3 d = c / 2.0;
  return d.x + d.y * 10.0 + d.z * 100.0;
})",
                     "f",
                     {Value::makeVec3(1, 2, 3), Value::makeVec3(4, 5, 6),
                      Value::makeFloat(2.0f)});
  ASSERT_TRUE(R.ok());
  EXPECT_FLOAT_EQ(R.Result.asFloat(), 5.0f + 70.0f + 900.0f);
}

TEST(VM, ZeroInitializedDecl) {
  auto R = runSource("float f() { float x; return x + 1.0; }", "f", {});
  ASSERT_TRUE(R.ok());
  EXPECT_FLOAT_EQ(R.Result.asFloat(), 1.0f);
}

TEST(VM, ShadowedVariablesGetDistinctSlots) {
  auto R = runSource(R"(
int f(int p) {
  int x = 1;
  if (p > 0) {
    int x = 100;
    x = x + 1;
  }
  return x;
})",
                     "f", {Value::makeInt(5)});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Result.asInt(), 1);
}

TEST(VM, ParamCountMismatchTraps) {
  auto Unit = parseUnit("int f(int a) { return a; }");
  auto Code = compileFunction(*Unit, "f");
  VM Machine;
  auto R = Machine.run(*Code, {});
  EXPECT_TRUE(R.Trapped);
}

TEST(VM, IntArgPromotesToFloatParam) {
  auto Unit = parseUnit("float f(float a) { return a * 2.0; }");
  auto Code = compileFunction(*Unit, "f");
  VM Machine;
  auto R = Machine.run(*Code, {Value::makeInt(3)});
  ASSERT_TRUE(R.ok());
  EXPECT_FLOAT_EQ(R.Result.asFloat(), 6.0f);
}

TEST(VM, CacheAccessWithoutCacheTraps) {
  // A reader requires its cache: build one via the specializer, then run
  // it with no cache bound.
  auto Unit = parseUnit("float f(float a, float b) { return sqrt(a) * b; }");
  auto Spec = specializeAndCompile(*Unit, "f", {"b"});
  ASSERT_TRUE(Spec.has_value());
  VM Machine;
  auto R = Machine.run(Spec->ReaderChunk,
                       {Value::makeFloat(4.0f), Value::makeFloat(2.0f)});
  EXPECT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapMessage.find("cache"), std::string::npos);
}

TEST(VM, TraceBuiltinRecords) {
  VM Machine;
  auto R = runSource("void f(float x) { dsc_trace(x); dsc_trace(x * 2.0); }",
                     "f", {Value::makeFloat(3.0f)}, &Machine);
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(Machine.traceLog().size(), 2u);
  EXPECT_FLOAT_EQ(Machine.traceLog()[0], 3.0f);
  EXPECT_FLOAT_EQ(Machine.traceLog()[1], 6.0f);
}

TEST(VM, ClockAdvances) {
  VM Machine;
  auto Unit = parseUnit("float f() { return dsc_clock(); }");
  auto Code = compileFunction(*Unit, "f");
  auto First = Machine.run(*Code, {});
  auto Second = Machine.run(*Code, {});
  ASSERT_TRUE(First.ok());
  ASSERT_TRUE(Second.ok());
  EXPECT_LT(First.Result.asFloat(), Second.Result.asFloat());
}

TEST(VM, InstructionCountIsReported) {
  auto R = runSource("int f() { return 1 + 2; }", "f", {});
  ASSERT_TRUE(R.ok());
  EXPECT_GT(R.InstructionsExecuted, 0u);
  EXPECT_LT(R.InstructionsExecuted, 10u);
}

TEST(VM, DisassemblyMentionsOpcodes) {
  auto Unit = parseUnit("int f(int a) { if (a > 0) { return 1; } return 0; }");
  auto Code = compileFunction(*Unit, "f");
  std::string Text = Code->disassemble();
  EXPECT_NE(Text.find("jfalse"), std::string::npos) << Text;
  EXPECT_NE(Text.find("ret"), std::string::npos);
}

TEST(Builtins, ScalarMathMatchesLibm) {
  auto R = runSource(
      "float f(float x) { return sqrt(x) + sin(x) + cos(x) + exp(x) + "
      "log(x) + pow(x, 2.5) + floor(x) + ceil(x) + fract(x) + tan(x); }",
      "f", {Value::makeFloat(1.75f)});
  ASSERT_TRUE(R.ok());
  float X = 1.75f;
  float Expected = std::sqrt(X) + std::sin(X) + std::cos(X) + std::exp(X) +
                   std::log(X) + std::pow(X, 2.5f) + std::floor(X) +
                   std::ceil(X) + (X - std::floor(X)) + std::tan(X);
  EXPECT_FLOAT_EQ(R.Result.asFloat(), Expected);
}

/// toInt truncates; NaN and values outside int32's range give INT32_MIN
/// (the x86 result) instead of an undefined conversion.
TEST(Builtins, ToIntTruncatesAndPinsOutOfRange) {
  const float Inf = std::numeric_limits<float>::infinity();
  const std::pair<float, int32_t> Cases[] = {
      {2.9f, 2},
      {-2.9f, -2},
      {-0x1p31f, INT32_MIN},
      {0x1p31f, INT32_MIN},
      {1e30f, INT32_MIN},
      {-1e30f, INT32_MIN},
      {Inf, INT32_MIN},
      {-Inf, INT32_MIN},
      {std::numeric_limits<float>::quiet_NaN(), INT32_MIN}};
  for (const auto &[In, Out] : Cases) {
    auto R = runSource("int f(float x) { return toInt(x); }", "f",
                       {Value::makeFloat(In)});
    ASSERT_TRUE(R.ok()) << R.TrapMessage;
    EXPECT_EQ(R.Result.asInt(), Out) << "toInt(" << In << ")";
  }
}

TEST(Builtins, MinMaxClampMixStep) {
  auto R = runSource(
      "float f(float a, float b) { return min(a, b) + max(a, b) * 10.0 + "
      "clamp(a, 0.0, 1.0) * 100.0 + mix(a, b, 0.5) * 1000.0 + "
      "step(a, b) * 10000.0 + smoothstep(0.0, 1.0, 0.5) * 100000.0; }",
      "f", {Value::makeFloat(2.0f), Value::makeFloat(3.0f)});
  ASSERT_TRUE(R.ok());
  EXPECT_FLOAT_EQ(R.Result.asFloat(),
                  2.0f + 30.0f + 100.0f + 2500.0f + 10000.0f + 50000.0f);
}

TEST(Builtins, VectorOps) {
  auto R = runSource(R"(
float f(vec3 a, vec3 b) {
  vec3 c = cross(a, b);
  float d = dot(a, b);
  float l = length(b);
  vec3 n = normalize(b);
  return c.x + d + l + length(n);
})",
                     "f",
                     {Value::makeVec3(1, 0, 0), Value::makeVec3(0, 2, 0)});
  ASSERT_TRUE(R.ok());
  // cross((1,0,0),(0,2,0)) = (0,0,2); dot = 0; |b| = 2; |n| = 1.
  EXPECT_FLOAT_EQ(R.Result.asFloat(), 0.0f + 0.0f + 2.0f + 1.0f);
}

TEST(Builtins, ReflectAndRotate) {
  auto R = runSource(R"(
float f(vec3 v, vec3 n) {
  vec3 r = reflect(v, n);
  vec3 rx = rotateZ(vec3(1.0, 0.0, 0.0), 1.5707964);
  return r.y + rx.y;
})",
                     "f",
                     {Value::makeVec3(1, -1, 0), Value::makeVec3(0, 1, 0)});
  ASSERT_TRUE(R.ok());
  // reflect((1,-1,0), (0,1,0)) = (1,1,0); rotateZ(x-axis, pi/2) = y-axis.
  EXPECT_NEAR(R.Result.asFloat(), 1.0f + 1.0f, 1e-5f);
}

TEST(Noise, DeterministicAndBounded) {
  float A = perlinNoise3(0.3f, 1.7f, -2.2f);
  float B = perlinNoise3(0.3f, 1.7f, -2.2f);
  EXPECT_EQ(A, B);
  for (float X = -3.0f; X < 3.0f; X += 0.37f) {
    float N = perlinNoise3(X, X * 0.5f, -X);
    EXPECT_GE(N, -1.2f);
    EXPECT_LE(N, 1.2f);
  }
}

TEST(Noise, LatticeZeros) {
  // Gradient noise vanishes on integer lattice points.
  EXPECT_FLOAT_EQ(perlinNoise3(0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(perlinNoise3(1, 2, 3), 0.0f);
  EXPECT_FLOAT_EQ(perlinNoise3(-4, 7, 11), 0.0f);
}

TEST(Noise, NotConstant) {
  float A = perlinNoise3(0.5f, 0.5f, 0.5f);
  float B = perlinNoise3(0.9f, 0.1f, 0.4f);
  EXPECT_NE(A, B);
}

TEST(Noise, FbmAndTurbulence) {
  float Single = perlinNoise3(0.4f, 0.6f, 0.8f);
  float One = fbm3(0.4f, 0.6f, 0.8f, 1, 2.0f, 0.5f);
  EXPECT_FLOAT_EQ(Single, One);
  float Turb = turbulence3(0.4f, 0.6f, 0.8f, 6);
  EXPECT_GE(Turb, 0.0f);
  // Adding octaves adds magnitude (absolute noise sums).
  EXPECT_GE(turbulence3(0.4f, 0.6f, 0.8f, 8), Turb - 1e-6f);
}


//===----------------------------------------------------------------------===//
// Lane-wise noise and builtins
//===----------------------------------------------------------------------===//

/// Ken Perlin's reference permutation.
const uint8_t PermBase[256] = {
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

/// The branchy scalar Perlin noise the 4-lane kernel replaced, kept as its
/// reference. One change: a floor outside int32's range, or NaN, maps to
/// lattice index 0 (what x86's truncating conversion gave) instead of
/// being converted, which is undefined.
float referenceNoise(float X, float Y, float Z) {
  auto Perm = [](int I) { return static_cast<int>(PermBase[I & 255]); };
  auto Lattice = [](float F) {
    return std::fabs(F) < 0x1p31f ? static_cast<int>(F) & 255 : 0;
  };
  auto Fade = [](float T) { return T * T * T * (T * (T * 6 - 15) + 10); };
  auto Lerp = [](float T, float A, float B) { return A + T * (B - A); };
  auto Grad = [](int Hash, float X, float Y, float Z) {
    int H = Hash & 15;
    float U = H < 8 ? X : Y;
    float V = H < 4 ? Y : (H == 12 || H == 14 ? X : Z);
    return ((H & 1) == 0 ? U : -U) + ((H & 2) == 0 ? V : -V);
  };
  int XI = Lattice(std::floor(X));
  int YI = Lattice(std::floor(Y));
  int ZI = Lattice(std::floor(Z));
  X -= std::floor(X);
  Y -= std::floor(Y);
  Z -= std::floor(Z);
  float U = Fade(X);
  float V = Fade(Y);
  float W = Fade(Z);

  int A = Perm(XI) + YI;
  int AA = Perm(A) + ZI;
  int AB = Perm(A + 1) + ZI;
  int B = Perm(XI + 1) + YI;
  int BA = Perm(B) + ZI;
  int BB = Perm(B + 1) + ZI;

  return Lerp(
      W,
      Lerp(V, Lerp(U, Grad(Perm(AA), X, Y, Z), Grad(Perm(BA), X - 1, Y, Z)),
           Lerp(U, Grad(Perm(AB), X, Y - 1, Z),
                Grad(Perm(BB), X - 1, Y - 1, Z))),
      Lerp(V,
           Lerp(U, Grad(Perm(AA + 1), X, Y, Z - 1),
                Grad(Perm(BA + 1), X - 1, Y, Z - 1)),
           Lerp(U, Grad(Perm(AB + 1), X, Y - 1, Z - 1),
                Grad(Perm(BB + 1), X - 1, Y - 1, Z - 1))));
}

uint32_t floatBits(float F) {
  uint32_t U;
  std::memcpy(&U, &F, sizeof U);
  return U;
}

/// Lane counts that run the kernel's 4-lane steps, its tail, and both.
const unsigned kLaneCounts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 128, 131};

/// The kernel over every point, at every lane count, against the scalar
/// reference: equal bits, or a NaN wherever the reference is NaN.
TEST(Noise, LanesMatchScalarReference) {
  std::vector<float> X, Y, Z;
  auto Add = [&](float A, float B, float C) {
    X.push_back(A);
    Y.push_back(B);
    Z.push_back(C);
  };
  const float Inf = std::numeric_limits<float>::infinity();
  // Lattice boundaries n - ulp, n and n + ulp, on each axis in turn.
  for (int N = -257; N <= 257; ++N) {
    const float F = static_cast<float>(N);
    for (float V : {std::nextafter(F, -Inf), F, std::nextafter(F, Inf)})
      for (float Other : {0.37f, -5.81f}) {
        Add(V, Other, -Other);
        Add(Other, V, -Other);
        Add(-Other, Other, V);
      }
  }
  // Zeros, denormals and the values whose floor leaves int32, as every
  // coordinate triple.
  const float Special[] = {0.0f,
                           -0.0f,
                           std::numeric_limits<float>::denorm_min(),
                           -std::numeric_limits<float>::denorm_min(),
                           1e-39f,
                           -1e-39f,
                           0.5f,
                           -0.5f,
                           0x1p31f,
                           -0x1p31f,
                           1e30f,
                           -1e30f,
                           Inf,
                           -Inf,
                           std::numeric_limits<float>::quiet_NaN()};
  for (float A : Special)
    for (float B : Special)
      for (float C : Special)
        Add(A, B, C);
  // Seeded random finite values, magnitudes 1e-38 to 1e9.
  std::mt19937 Rng(20261017);
  std::uniform_real_distribution<float> Exponent(-38.0f, 9.0f);
  std::bernoulli_distribution Negative(0.5);
  auto Random = [&] {
    float M = std::pow(10.0f, Exponent(Rng));
    return Negative(Rng) ? -M : M;
  };
  for (unsigned I = 0; I < 20000; ++I)
    Add(Random(), Random(), Random());

  const size_t Count = X.size();
  std::vector<float> Ref(Count);
  for (size_t I = 0; I < Count; ++I)
    Ref[I] = referenceNoise(X[I], Y[I], Z[I]);

  for (unsigned Lanes : kLaneCounts) {
    std::vector<float> Out(Count);
    for (size_t I = 0; I < Count; I += Lanes)
      perlinNoise3Lanes(&X[I], &Y[I], &Z[I], &Out[I],
                        static_cast<unsigned>(std::min<size_t>(Lanes,
                                                               Count - I)));
    for (size_t I = 0; I < Count; ++I) {
      if (std::isnan(Ref[I])) {
        ASSERT_TRUE(std::isnan(Out[I]))
            << "noise(" << X[I] << ", " << Y[I] << ", " << Z[I] << ") at "
            << Lanes << " lanes";
        continue;
      }
      ASSERT_EQ(floatBits(Out[I]), floatBits(Ref[I]))
          << "noise(" << X[I] << ", " << Y[I] << ", " << Z[I] << ") at "
          << Lanes << " lanes: " << Out[I] << " vs " << Ref[I];
    }
  }
}

bool sameBits(const Value &A, const Value &B) {
  return A.Kind == B.Kind && A.I == B.I &&
         std::memcmp(A.F, B.F, sizeof(A.F)) == 0;
}

/// Each noise builtin, over seven lanes, is the noise library at the
/// points its definition names. fbm and turbulence are checked against
/// their octave loops written out over perlinNoise3, with octave counts
/// that differ per lane and hit both ends of the [0, 16] clamp.
TEST(Builtins, NoiseBuiltinsMatchNoiseLibrary) {
  const unsigned Lanes = 7;
  std::mt19937 Rng(11);
  std::uniform_real_distribution<float> Coord(-50.0f, 50.0f);
  std::vector<Value> P1, P2, P3, Octaves, Lacunarity, Gain;
  for (unsigned L = 0; L < Lanes; ++L) {
    P1.push_back(Value::makeFloat(Coord(Rng)));
    P2.push_back(Value::makeVec2(Coord(Rng), Coord(Rng)));
    P3.push_back(Value::makeVec3(Coord(Rng), Coord(Rng), Coord(Rng)));
    Octaves.push_back(Value::makeInt(static_cast<int32_t>(L) * 4 - 6));
    Lacunarity.push_back(Value::makeFloat(1.9f + 0.05f * L));
    Gain.push_back(Value::makeFloat(0.45f + 0.01f * L));
  }
  VM Machine;
  auto Call = [&](BuiltinId Id, std::vector<std::vector<Value>> Rows) {
    std::vector<const Value *> RowPtrs;
    for (const auto &Row : Rows)
      RowPtrs.push_back(Row.data());
    std::vector<Value> Out(Lanes);
    callBuiltinLanes(static_cast<uint16_t>(Id), RowPtrs.data(), Out.data(),
                     Lanes, Machine);
    return Out;
  };
  auto Noise1 = Call(BuiltinId::BI_Noise1, {P1});
  auto Noise2 = Call(BuiltinId::BI_Noise2, {P2});
  auto Noise3 = Call(BuiltinId::BI_Noise3, {P3});
  auto VNoise = Call(BuiltinId::BI_VNoise3, {P3});
  auto Fbm = Call(BuiltinId::BI_Fbm, {P3, Octaves, Lacunarity, Gain});
  auto Turb = Call(BuiltinId::BI_Turbulence, {P3, Octaves});

  for (unsigned L = 0; L < Lanes; ++L) {
    const float *P = P3[L].F;
    EXPECT_EQ(floatBits(Noise1[L].F[0]),
              floatBits(perlinNoise3(P1[L].F[0], 0.37f, 0.73f)));
    EXPECT_EQ(floatBits(Noise2[L].F[0]),
              floatBits(perlinNoise3(P2[L].F[0], P2[L].F[1], 0.5f)));
    EXPECT_EQ(floatBits(Noise3[L].F[0]),
              floatBits(perlinNoise3(P[0], P[1], P[2])));
    const float VExpect[3] = {
        perlinNoise3(P[0], P[1], P[2]),
        perlinNoise3(P[1] + 31.7f, P[2] + 11.3f, P[0] + 5.1f),
        perlinNoise3(P[2] + 71.9f, P[0] + 43.1f, P[1] + 9.7f)};
    EXPECT_EQ(VNoise[L].Kind, TypeKind::TK_Vec3);
    for (unsigned K = 0; K < 3; ++K)
      EXPECT_EQ(floatBits(VNoise[L].F[K]), floatBits(VExpect[K]))
          << "vnoise component " << K << ", lane " << L;

    const int Count = std::clamp(Octaves[L].I, 0, 16);
    float FbmSum = 0.0f, TurbSum = 0.0f;
    float FbmAmp = 1.0f, TurbAmp = 1.0f;
    float F[3] = {P[0], P[1], P[2]}, T[3] = {P[0], P[1], P[2]};
    for (int Octave = 0; Octave < Count; ++Octave) {
      FbmSum += FbmAmp * perlinNoise3(F[0], F[1], F[2]);
      TurbSum += TurbAmp * std::fabs(perlinNoise3(T[0], T[1], T[2]));
      for (unsigned K = 0; K < 3; ++K) {
        F[K] *= Lacunarity[L].F[0];
        T[K] *= 2.0f;
      }
      FbmAmp *= Gain[L].F[0];
      TurbAmp *= 0.5f;
    }
    EXPECT_EQ(floatBits(Fbm[L].F[0]), floatBits(FbmSum)) << "lane " << L;
    EXPECT_EQ(floatBits(Turb[L].F[0]), floatBits(TurbSum)) << "lane " << L;
  }
}

/// Every pure builtin over seeded argument rows, with the result written
/// over the first argument row as on the batched stack: each lane's bits
/// equal a one-lane call on that lane's arguments, at every lane count.
TEST(Builtins, LanesMatchOneLaneForEveryBuiltin) {
  const float Inf = std::numeric_limits<float>::infinity();
  const float Pool[] = {0.0f,  -0.0f,  Inf,   -Inf,
                        std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::denorm_min(),
                        -1e-40f, 1.0f,  -1.0f, 0.5f,
                        2.0f,  1e30f,  -3e9f};
  std::mt19937 Rng(7);
  std::uniform_int_distribution<size_t> PickSpecial(0, std::size(Pool) - 1);
  std::uniform_real_distribution<float> Finite(-40.0f, 40.0f);
  std::uniform_int_distribution<int32_t> SmallInt(-20, 20);
  std::bernoulli_distribution Special(0.25);
  auto RandomFloat = [&] {
    return Special(Rng) ? Pool[PickSpecial(Rng)] : Finite(Rng);
  };
  auto RandomValue = [&](Type T) {
    switch (T.kind()) {
    case TypeKind::TK_Int:
      return Value::makeInt(SmallInt(Rng));
    case TypeKind::TK_Vec2:
      return Value::makeVec2(RandomFloat(), RandomFloat());
    case TypeKind::TK_Vec3:
      return Value::makeVec3(RandomFloat(), RandomFloat(), RandomFloat());
    case TypeKind::TK_Vec4:
      return Value::makeVec4(RandomFloat(), RandomFloat(), RandomFloat(),
                             RandomFloat());
    default:
      return Value::makeFloat(RandomFloat());
    }
  };

  const unsigned MaxLanes = 131;
  VM Machine;
  unsigned Covered = 0;
  for (const BuiltinInfo &Info : allBuiltins()) {
    if (Info.HasGlobalEffect)
      continue;
    ++Covered;
    const uint16_t Id = static_cast<uint16_t>(Info.Id);
    const size_t Argc = Info.ParamTypes.size();
    std::vector<std::vector<Value>> Rows(Argc);
    for (size_t A = 0; A < Argc; ++A)
      for (unsigned L = 0; L < MaxLanes; ++L)
        Rows[A].push_back(RandomValue(Info.ParamTypes[A]));

    for (unsigned Lanes : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, MaxLanes}) {
      std::vector<std::vector<Value>> Tile = Rows;
      std::vector<const Value *> TileRows;
      for (auto &Row : Tile)
        TileRows.push_back(Row.data());
      callBuiltinLanes(Id, TileRows.data(), Tile[0].data(), Lanes, Machine);
      for (unsigned L = 0; L < Lanes; ++L) {
        std::vector<Value> LaneArgs;
        std::vector<const Value *> LaneRows;
        for (size_t A = 0; A < Argc; ++A)
          LaneArgs.push_back(Rows[A][L]);
        for (const Value &Arg : LaneArgs)
          LaneRows.push_back(&Arg);
        Value One;
        callBuiltinLanes(Id, LaneRows.data(), &One, 1, Machine);
        ASSERT_TRUE(sameBits(Tile[0][L], One))
            << Info.Name << " lane " << L << " of " << Lanes << ": "
            << Tile[0][L].str() << " vs " << One.str();
      }
    }
  }
  EXPECT_EQ(Covered, allBuiltins().size() - 2);
}

} // namespace
