//===- perfbench/Workloads.cpp - Seeded request streams -------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "driver/Pipeline.h"
#include "engine/RenderEngine.h"
#include "service/Service.h"
#include "shading/ShaderGallery.h"
#include "shading/ShaderLab.h"
#include "support/ByteStream.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <tuple>

using namespace dspec;
using namespace perfbench;

const std::vector<WorkloadDef> &perfbench::workloads() {
  static const std::vector<WorkloadDef> Defs = {
      {"slider_hits",
       "slider drags over 40 warm units: reader, reply encode/CRC and socket "
       "do all the work, the specializer none",
       Mix::Slider, 2, false, 0.0, 0, {}},
      {"partition_churn",
       "every request a new partition or fixed value: parse, specialize, "
       "compile and the loader pass on each request",
       Mix::Churn, 1, false, 0.0, 0, {}},
      {"spill_revisit",
       "96 units cycling through the 64-unit cache: every request a spill "
       "restore beside an eviction write",
       Mix::Spill, 1, false, 0.0, 0, {}},
      {"overload",
       "the slider mix open-loop at 1.5x its capacity with a 200 ms "
       "deadline: queue wait and admission decide the result",
       Mix::Slider, 2, true, 400.0, 200, {"--client-queue", "8"}},
  };
  return Defs;
}

const WorkloadDef *perfbench::findWorkload(const std::string &Name) {
  for (const WorkloadDef &W : workloads())
    if (Name == W.Name)
      return &W;
  return nullptr;
}

namespace {

/// Warm units per gallery shader in the slider mix (40 in all, under the
/// service's 64-unit cache).
constexpr unsigned kSliderPartitions = 4;
/// Distinct slider values per unit in the slider mix.
constexpr unsigned kSliderValues = 4;
/// Units the spill workload cycles through, and values per unit.
constexpr unsigned kSpillUnits = 96;
constexpr unsigned kSpillValues = 2;
/// partition_churn is sized for this many requests per second of
/// window, several times what one connection can drive.
constexpr double kChurnMaxRate = 150.0;

using Rng = std::mt19937_64;

float sweepValue(Rng &R, const ControlParam &P) {
  std::uniform_real_distribution<float> D(P.SweepMin, P.SweepMax);
  return D(R);
}

std::vector<float> randomControls(Rng &R, const ShaderInfo &Info) {
  std::vector<float> C;
  for (const ControlParam &P : Info.Controls)
    C.push_back(sweepValue(R, P));
  return C;
}

uint64_t mixSeed(uint64_t Seed, const char *Mix) {
  return fnv1a64(Mix, std::char_traits<char>::length(Mix),
                 Seed * 0x9e3779b97f4a7c15ull + 1);
}

/// The UnitCache shard \p Key lands in (mirrors UnitCache::shardFor).
unsigned shardOf(const UnitKey &Key, unsigned Shards) {
  uint64_t H = UnitKeyHasher()(Key);
  H = fnv1a64(&H, sizeof(H), 0x9e3779b97f4a7c15ull);
  return static_cast<unsigned>(H % std::max(1u, Shards));
}

/// The UnitCache shard the server files \p U under.
unsigned shardOfUnit(const Unit &U) {
  const ShaderInfo &Info = shaderGallery()[U.Shader];
  RenderRequest Probe;
  Probe.Shader = Info.Name;
  Probe.Width = kWidth;
  Probe.Height = kHeight;
  Probe.Varying = {Info.Controls[U.Varying].Name};
  Probe.Controls = U.Base;
  return shardOf(unitKeyOf(Probe), ServiceConfig().CacheShards);
}

/// Takes units from \p Candidates in order, skipping any whose cache
/// shard already holds \p PerShard units (counted in \p Taken, one entry
/// per shard), until \p Count are taken.
std::vector<Unit> pickPerShard(std::vector<Unit> Candidates, unsigned PerShard,
                               size_t Count, std::vector<unsigned> &Taken) {
  std::vector<Unit> Out;
  for (Unit &U : Candidates) {
    if (Out.size() == Count)
      break;
    if (unsigned &N = Taken[shardOfUnit(U)]; N < PerShard) {
      ++N;
      Out.push_back(std::move(U));
    }
  }
  return Out;
}

/// Adds \p Values seeded values of each unit's varying control to the
/// pool; unit U's values are entries U * Values ... U * Values + Values-1.
void addSweepValues(Traffic &T, Rng &R, unsigned Values) {
  for (const Unit &U : T.Units) {
    const ControlParam &P = shaderGallery()[U.Shader].Controls[U.Varying];
    for (unsigned V = 0; V < Values; ++V) {
      PoolEntry E{U.Shader, U.Base, 0};
      E.Controls[U.Varying] = sweepValue(R, P);
      T.Pool.push_back(std::move(E));
    }
  }
}

/// The slider mix: kSliderPartitions partitions per shader at the default
/// fixed values, no cache shard holding more than it can keep, each unit
/// with kSliderValues seeded slider values. The partitions are the same
/// for every seed, so the seed moves values and order but not the cost
/// of the mix. Each connection picks units at random; successive visits
/// of one connection to a unit walk that unit's values, so consecutive
/// requests for a unit never repeat a value.
bool sliderMix(Traffic &T, const WorkloadDef &W, uint64_t Seed,
               double Seconds, std::string &Error) {
  Rng R(mixSeed(Seed, "slider"));
  const auto &Gallery = shaderGallery();
  ServiceConfig Defaults;
  unsigned Shards = std::max(1u, Defaults.CacheShards);
  std::vector<unsigned> Taken(Shards, 0);
  for (unsigned S = 0; S < Gallery.size(); ++S) {
    // Spread over the control list: 0, n/4, n/2, 3n/4, then the rest.
    unsigned Count = static_cast<unsigned>(Gallery[S].Controls.size());
    std::vector<unsigned> Order;
    for (unsigned K = 0; K < kSliderPartitions; ++K)
      Order.push_back(K * Count / kSliderPartitions);
    for (unsigned C = 0; C < Count; ++C)
      if (std::find(Order.begin(), Order.end(), C) == Order.end())
        Order.push_back(C);
    std::vector<Unit> Candidates;
    for (unsigned C : Order)
      Candidates.push_back({S, C, ShaderLab::defaultControls(Gallery[S])});
    std::vector<Unit> Picked =
        pickPerShard(std::move(Candidates), Defaults.CacheUnits / Shards,
                     kSliderPartitions, Taken);
    if (Picked.size() != kSliderPartitions) {
      Error = "the slider units do not fit the unit cache's shards";
      return false;
    }
    T.Units.insert(T.Units.end(), Picked.begin(), Picked.end());
  }
  addSweepValues(T, R, kSliderValues);
  for (uint32_t U = 0; U < T.Units.size(); ++U)
    T.Warmup.push_back({U, U * kSliderValues});
  std::shuffle(T.Warmup.begin(), T.Warmup.end(), R);

  size_t Length = static_cast<size_t>(std::max(1.0, Seconds) * 1000.0);
  std::uniform_int_distribution<uint32_t> PickUnit(
      0, static_cast<uint32_t>(T.Units.size() - 1));
  for (unsigned C = 0; C < W.Connections; ++C) {
    std::vector<uint32_t> Visits(T.Units.size(), 1);
    std::vector<Item> Seq;
    Seq.reserve(Length);
    for (size_t I = 0; I < Length; ++I) {
      uint32_t U = PickUnit(R);
      Seq.push_back({U, U * kSliderValues + Visits[U]++ % kSliderValues});
    }
    T.PerConn.push_back(std::move(Seq));
  }
  return true;
}

/// Walks all 131 partitions in a fresh seeded order per lap, with fresh
/// seeded values for every control each lap. The order is stratified:
/// each shader's partitions are spread evenly through the lap, so any
/// stretch of the stream holds the shaders in the lap's proportions and a
/// window's cost does not depend on where it cut the lap. All partitions
/// of one shader in one lap share that lap's control vector, so one
/// reference serves them, yet every request is a distinct cache key.
/// Set-up sends one request per shader from a lap of its own.
void churnMix(Traffic &T, uint64_t Seed, double Seconds) {
  Rng R(mixSeed(Seed, "churn"));
  const auto &Gallery = shaderGallery();
  size_t Partitions = totalPartitionCount();
  size_t Laps =
      static_cast<size_t>(std::ceil(Seconds * kChurnMaxRate / Partitions)) + 1;
  std::uniform_real_distribution<double> Phase(0.0, 1.0);
  std::vector<Item> Seq;
  for (size_t L = 0; L <= Laps; ++L) {
    // (position in the lap, pool entry, varying control)
    std::vector<std::tuple<double, uint32_t, unsigned>> Lap;
    for (unsigned S = 0; S < Gallery.size(); ++S) {
      uint32_t Entry = static_cast<uint32_t>(T.Pool.size());
      T.Pool.push_back({S, randomControls(R, Gallery[S]), 0});
      std::vector<unsigned> Controls(Gallery[S].Controls.size());
      for (unsigned C = 0; C < Controls.size(); ++C)
        Controls[C] = C;
      std::shuffle(Controls.begin(), Controls.end(), R);
      double Offset = Phase(R);
      // The set-up lap sends one partition of each shader.
      size_t Count = L == 0 ? 1 : Controls.size();
      for (unsigned K = 0; K < Count; ++K)
        Lap.emplace_back((K + Offset) / Controls.size(), Entry, Controls[K]);
    }
    std::sort(Lap.begin(), Lap.end());
    for (auto [Position, Entry, C] : Lap) {
      (L == 0 ? T.Warmup : Seq)
          .push_back({static_cast<uint32_t>(T.Units.size()), Entry});
      T.Units.push_back({T.Pool[Entry].Shader, C, T.Pool[Entry].Controls});
    }
  }
  T.PerConn.push_back(std::move(Seq));
  T.Wraps = false;
}

/// kSpillUnits units, an equal share in every UnitCache shard and more
/// per shard than a shard holds, visited in one fixed seeded cycle: under
/// LRU every visit misses memory and restores from the spill directory.
/// The units are the same for every seed (partitions taken round-robin
/// over the shaders, at the default and then the mid-sweep fixed values);
/// the seed draws the cycle order and the slider values. Set-up builds
/// every unit (lap 0) and runs one restore lap (lap 1).
bool spillMix(Traffic &T, uint64_t Seed, double Seconds, std::string &Error) {
  Rng R(mixSeed(Seed, "spill"));
  const auto &Gallery = shaderGallery();
  ServiceConfig Defaults;
  unsigned Shards = std::max(1u, Defaults.CacheShards);
  unsigned PerShard = kSpillUnits / Shards;
  if (PerShard * Shards != kSpillUnits ||
      PerShard <= (Defaults.CacheUnits + Shards - 1) / Shards) {
    Error = "spill_revisit needs more units per shard than a shard holds";
    return false;
  }
  std::vector<Unit> Candidates;
  for (bool Mid : {false, true}) {
    size_t MaxControls = 0;
    for (const ShaderInfo &Info : Gallery)
      MaxControls = std::max(MaxControls, Info.Controls.size());
    for (unsigned C = 0; C < MaxControls; ++C)
      for (unsigned S = 0; S < Gallery.size(); ++S) {
        if (C >= Gallery[S].Controls.size())
          continue;
        std::vector<float> Base = ShaderLab::defaultControls(Gallery[S]);
        if (Mid)
          for (size_t I = 0; I < Base.size(); ++I)
            Base[I] = (Gallery[S].Controls[I].SweepMin +
                       Gallery[S].Controls[I].SweepMax) / 2;
        Candidates.push_back({S, C, std::move(Base)});
      }
  }
  std::vector<unsigned> Taken(Shards, 0);
  T.Units = pickPerShard(std::move(Candidates), PerShard, kSpillUnits, Taken);
  if (T.Units.size() != kSpillUnits) {
    Error = "could not balance spill units across cache shards";
    return false;
  }
  addSweepValues(T, R, kSpillValues);
  std::vector<uint32_t> Cycle(T.Units.size());
  for (uint32_t I = 0; I < Cycle.size(); ++I)
    Cycle[I] = I;
  std::shuffle(Cycle.begin(), Cycle.end(), R);
  auto Visit = [&](size_t I) {
    uint32_t U = Cycle[I % Cycle.size()];
    return Item{U, U * kSpillValues +
                       static_cast<uint32_t>(I / Cycle.size()) % kSpillValues};
  };
  for (size_t I = 0; I < 2 * Cycle.size(); ++I)
    T.Warmup.push_back(Visit(I));
  // Whole laps only, so wrapping around keeps the cycle intact.
  size_t Laps = static_cast<size_t>(std::ceil(Seconds * 400.0 / kSpillUnits));
  std::vector<Item> Seq;
  for (size_t I = 0; I < std::max<size_t>(Laps, 2) * Cycle.size(); ++I)
    Seq.push_back(Visit(I + 2 * Cycle.size()));
  T.PerConn.push_back(std::move(Seq));
  return true;
}

} // namespace

bool perfbench::generate(const WorkloadDef &W, uint64_t Seed, double Seconds,
                         Traffic &Out, std::string &Error) {
  Out = Traffic();
  switch (W.Kind) {
  case Mix::Slider:
    return sliderMix(Out, W, Seed, Seconds, Error);
  case Mix::Churn:
    churnMix(Out, Seed, Seconds);
    return true;
  case Mix::Spill:
    return spillMix(Out, Seed, Seconds, Error);
  }
  return false;
}

bool perfbench::computeReferences(Traffic &T, std::string &Error) {
  const auto &Gallery = shaderGallery();
  std::vector<std::optional<Chunk>> Originals(Gallery.size());
  for (unsigned S = 0; S < Gallery.size(); ++S) {
    auto Unit = parseUnit(Gallery[S].Source);
    if (Unit->ok())
      Originals[S] = compileFunction(*Unit, Gallery[S].Name);
    if (!Originals[S]) {
      Error = "cannot compile " + Gallery[S].Name + ": " + Unit->Diags.str();
      return false;
    }
  }
  RenderEngine Engine(std::max(1u, std::thread::hardware_concurrency()));
  Engine.setExecTier(ExecTier::Switch);
  RenderGrid Grid(kWidth, kHeight);
  for (PoolEntry &E : T.Pool) {
    Framebuffer Fb(kWidth, kHeight);
    if (!Engine.plainPass(*Originals[E.Shader], Grid, E.Controls, &Fb)) {
      Error = "reference plain pass trapped: " + Engine.lastTrap();
      return false;
    }
    E.RefCrc = pixelCrc(RenderReply::fromFramebuffer(Fb).Pixels);
  }
  return true;
}

RenderRequest perfbench::unitRequest(const WorkloadDef &W, const Traffic &T,
                                     uint32_t U) {
  const Unit &Spec = T.Units[U];
  const ShaderInfo &Info = shaderGallery()[Spec.Shader];
  RenderRequest R;
  R.Shader = Info.Name;
  R.Width = kWidth;
  R.Height = kHeight;
  R.Varying = {Info.Controls[Spec.Varying].Name};
  R.Controls = Spec.Base;
  R.DeadlineMillis = W.DeadlineMillis;
  return R;
}

RenderRequest perfbench::makeRequest(const WorkloadDef &W, const Traffic &T,
                                     const Item &I) {
  RenderRequest R = unitRequest(W, T, I.Unit);
  R.Controls = T.Pool[I.Entry].Controls;
  return R;
}

UnitKey perfbench::unitKeyOf(const RenderRequest &Request) {
  const ShaderInfo *Info = findShader(Request.Shader);
  ByteWriter W;
  W.writeU32(Request.Width);
  W.writeU32(Request.Height);
  W.writeU32(static_cast<uint32_t>(Request.Varying.size()));
  for (const std::string &Name : Request.Varying)
    W.writeString(Name);
  for (size_t I = 0; I < Request.Controls.size(); ++I)
    if (!Info || std::find(Request.Varying.begin(), Request.Varying.end(),
                           Info->Controls[I].Name) == Request.Varying.end()) {
      W.writeU32(static_cast<uint32_t>(I));
      W.writeF32(Request.Controls[I]);
    }
  UnitKey Key;
  Key.Shader = Request.Shader;
  Key.InvariantHash = fnv1a64(W.bytes().data(), W.size());
  Key.OptionsFingerprint = optionsFingerprint(Request.toOptions());
  return Key;
}
