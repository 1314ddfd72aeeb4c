//===- tests/TestEquivalenceProperties.cpp - Randomized properties ------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based tests over a family of fragments and option
/// configurations: for any fragment, any input partition, and any
/// specializer options, (1) the loader computes the original's result
/// while filling the cache, and (2) the reader computes the original's
/// result for arbitrary varying inputs given a cache loaded with the same
/// fixed inputs. Inputs are driven by a deterministic LCG so failures
/// reproduce.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "engine/CacheArena.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

using namespace dspec;

namespace {

/// Deterministic pseudo-random floats in [-4, 4].
struct Lcg {
  uint64_t State;
  explicit Lcg(uint64_t Seed) : State(Seed) {}
  float next() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    uint32_t Bits = static_cast<uint32_t>(State >> 33);
    return (static_cast<float>(Bits % 8000) / 1000.0f) - 4.0f;
  }
};

/// One fragment of the test family: all parameters are floats.
struct FragmentCase {
  const char *Name;
  const char *Source;
  unsigned NumParams;
};

const FragmentCase Fragments[] = {
    {"straightline", R"(
float straightline(float a, float b, float c, float d) {
  float x = sin(a) * cos(b) + pow(abs(a) + 1.0, 0.5);
  float y = x * c - sqrt(abs(b) + 1.0);
  return y + x * d;
})",
     4},
    {"branchy", R"(
float branchy(float a, float b, float c, float d) {
  float r = 0.0;
  if (a > b) {
    r = pow(abs(a), 1.5) + c;
  } else {
    if (c > 0.0) { r = a * b; } else { r = a - b + d; }
  }
  if (r > 2.0) { r = r * 0.5; }
  return r + exp(0.1 * b);
})",
     4},
    {"loopy", R"(
float loopy(float a, float b, float c, float d) {
  float sum = 0.0;
  for (int i = 0; i < 5; i = i + 1) {
    sum = sum + noise(vec3(a, b, toFloat(i)));
  }
  float post = sum * sum + sqrt(abs(a * b) + 1.0);
  return post * c + d;
})",
     4},
    {"vectorish", R"(
float vectorish(float a, float b, float c, float d) {
  vec3 p = normalize(vec3(a, b, a + b + 0.125));
  vec3 q = cross(p, vec3(0.0, 1.0, 0.0));
  float m = dot(p, q) + length(q) * c;
  return mix(m, d, clamp(c * 0.1, 0.0, 1.0));
})",
     4},
    {"earlyreturn", R"(
float earlyreturn(float a, float b, float c, float d) {
  if (a > b) {
    return sin(a) * c;
  }
  if (c > 2.0) {
    return 1.0;
  }
  float tail = pow(abs(a) + 1.0, 0.75) + noise(vec3(a, b, 0.5));
  return tail * d;
})",
     4},
    {"mixedint", R"(
float mixedint(float a, float b, float c, float d) {
  int k = toInt(clamp(a, 0.0, 6.0));
  float acc = 0.0;
  while (k > 0) {
    acc = acc + b * toFloat(k % 3);
    k = k - 1;
  }
  return acc + c * d;
})",
     4},
};

struct PropertyCase {
  FragmentCase Fragment;
  unsigned PartitionMask; // bit i set => param i varies
  bool Reassociate;
  bool Speculate;
};

std::vector<PropertyCase> allCases() {
  std::vector<PropertyCase> Out;
  for (const FragmentCase &F : Fragments) {
    for (unsigned Mask = 0; Mask < (1u << F.NumParams); Mask += 3) {
      // Masks 0, 3, 6, 9, 12, 15: a spread of partition shapes including
      // empty (0) and everything-varies (15).
      Out.push_back({F, Mask, (Mask % 2) == 0, (Mask % 4) == 0});
    }
  }
  return Out;
}

class SpecializationProperty : public ::testing::TestWithParam<PropertyCase> {
};

TEST_P(SpecializationProperty, LoaderAndReaderMatchOriginal) {
  const PropertyCase &Case = GetParam();
  auto Unit = parseUnit(Case.Fragment.Source);
  ASSERT_TRUE(Unit->ok()) << Unit->Diags.str();

  const char *ParamNames[] = {"a", "b", "c", "d"};
  std::vector<std::string> Varying;
  for (unsigned I = 0; I < Case.Fragment.NumParams; ++I)
    if (Case.PartitionMask & (1u << I))
      Varying.push_back(ParamNames[I]);

  SpecializerOptions Options;
  Options.EnableReassociate = Case.Reassociate;
  Options.AllowSpeculation = Case.Speculate;
  // Float reassociation changes rounding; keep chains int-only so results
  // stay bit-identical under every configuration.
  Options.Reassoc.AllowFloatReassociation = false;

  auto Spec = specializeAndCompile(*Unit, Case.Fragment.Name, Varying,
                                   Options);
  ASSERT_TRUE(Spec.has_value()) << Unit->Diags.str();

  VM Machine;
  Lcg Random(0xD5 * 1024 + Case.PartitionMask * 8 +
             (&Case.Fragment - Fragments));

  for (unsigned Trial = 0; Trial < 6; ++Trial) {
    // Fresh fixed inputs for each trial.
    std::vector<Value> Fixed(Case.Fragment.NumParams);
    for (auto &V : Fixed)
      V = Value::makeFloat(Random.next());

    CacheArena Slots(1, Spec->Spec.Layout);
    auto Load = Machine.run(Spec->LoaderChunk, Fixed, Slots.view(0));
    auto OrigAtLoad = Machine.run(Spec->OriginalChunk, Fixed);
    ASSERT_TRUE(Load.ok()) << Load.TrapMessage;
    ASSERT_TRUE(OrigAtLoad.ok()) << OrigAtLoad.TrapMessage;
    EXPECT_TRUE(Load.Result.equals(OrigAtLoad.Result))
        << "loader diverged (trial " << Trial << ")";

    // Sweep the varying inputs with the cache held fixed.
    for (unsigned Sweep = 0; Sweep < 4; ++Sweep) {
      std::vector<Value> Args = Fixed;
      for (unsigned I = 0; I < Case.Fragment.NumParams; ++I)
        if (Case.PartitionMask & (1u << I))
          Args[I] = Value::makeFloat(Random.next());
      auto Read = Machine.run(Spec->ReaderChunk, Args, Slots.view(0));
      auto Orig = Machine.run(Spec->OriginalChunk, Args);
      ASSERT_TRUE(Read.ok()) << Read.TrapMessage;
      ASSERT_TRUE(Orig.ok()) << Orig.TrapMessage;
      EXPECT_TRUE(Read.Result.equals(Orig.Result))
          << Case.Fragment.Name << " mask=" << Case.PartitionMask
          << " trial=" << Trial << " sweep=" << Sweep << ": "
          << Read.Result.str() << " vs " << Orig.Result.str();
    }
  }
}

std::string caseName(const ::testing::TestParamInfo<PropertyCase> &Info) {
  std::string Name = Info.param.Fragment.Name;
  Name += "_mask" + std::to_string(Info.param.PartitionMask);
  if (Info.param.Reassociate)
    Name += "_reassoc";
  if (Info.param.Speculate)
    Name += "_spec";
  return Name;
}

INSTANTIATE_TEST_SUITE_P(Family, SpecializationProperty,
                         ::testing::ValuesIn(allCases()), caseName);

} // namespace
