//===- service/UnitCache.cpp - Keyed cache of specialization units ----------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/UnitCache.h"

#include "shading/ShaderGallery.h"
#include "support/ByteStream.h"

#include <algorithm>
#include <cassert>

using namespace dspec;

uint64_t dspec::invariantHash(const ShaderInfo &Info, unsigned Width,
                              unsigned Height,
                              const std::vector<std::string> &Varying,
                              const std::vector<float> &Controls) {
  assert(Controls.size() == Info.Controls.size() &&
         "one value per control of the shader");
  // These bytes name spill files on disk; changing them orphans every
  // file a previous build spilled.
  ByteWriter W;
  W.writeU32(Width);
  W.writeU32(Height);
  W.writeU32(static_cast<uint32_t>(Varying.size()));
  for (const std::string &Name : Varying)
    W.writeString(Name);
  for (size_t I = 0; I < Controls.size(); ++I)
    if (std::find(Varying.begin(), Varying.end(), Info.Controls[I].Name) ==
        Varying.end()) {
      W.writeU32(static_cast<uint32_t>(I));
      W.writeF32(Controls[I]);
    }
  return fnv1a64(W.bytes().data(), W.size());
}

uint64_t dspec::optionsFingerprint(const SpecializerOptions &Options) {
  // Serialize the fields through the little-endian writer so the
  // fingerprint is stable across hosts (it may end up in logs and on the
  // wire, not just in process-local keys).
  ByteWriter W;
  W.writeU8(Options.EnableJoinNormalize ? 1 : 0);
  W.writeU8(Options.EnableReassociate ? 1 : 0);
  W.writeU8(Options.Reassoc.AllowFloatReassociation ? 1 : 0);
  W.writeU8(Options.AllowSpeculation ? 1 : 0);
  W.writeU8(Options.WeightVictimBySize ? 1 : 0);
  W.writeU8(Options.CacheByteLimit.has_value() ? 1 : 0);
  W.writeU32(Options.CacheByteLimit.value_or(0));
  // Two retired fields, the measured-bytes cache bound (u64) and its
  // pixel count (u32), written as the zeros they held by default: every
  // fingerprint, and with it every key's shard and spill file name,
  // stays as it was.
  W.writeU64(0);
  W.writeU32(0);
  W.writeU32(Options.Cost.LoopMultiplier);
  W.writeU32(Options.Cost.CondDivisor);
  W.writeU32(Options.Cost.CacheRefCost);
  W.writeU8(Options.CollectExplanation ? 1 : 0);
  return fnv1a64(W.bytes().data(), W.size());
}

UnitCache::UnitCache(unsigned Capacity, unsigned ShardCount)
    : Shards(ShardCount == 0 ? 1 : ShardCount),
      TotalCapacity(Capacity == 0 ? 1 : Capacity) {
  unsigned N = static_cast<unsigned>(Shards.size());
  ShardCapacity = (TotalCapacity + N - 1) / N;
  if (ShardCapacity == 0)
    ShardCapacity = 1;
}

UnitPtr UnitCache::lookup(const UnitKey &Key) {
  Shard &S = shardFor(Key);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Map.find(Key);
  if (It == S.Map.end()) {
    ++S.Misses;
    return nullptr;
  }
  ++S.Hits;
  S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
  return It->second->second;
}

void UnitCache::forEachUnit(
    const std::function<void(const UnitPtr &)> &Fn) const {
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    for (const auto &Entry : S.Lru)
      Fn(Entry.second);
  }
}

void UnitCache::publish(Shard &S, const UnitKey &Key, const UnitPtr &Unit) {
  std::vector<std::pair<UnitKey, UnitPtr>> Evicted;
  {
    std::lock_guard<std::mutex> Lock(S.M);
    auto It = S.Map.find(Key);
    if (It != S.Map.end()) {
      // A racing build of the same key already published; keep the
      // existing entry (units for one key are interchangeable by
      // construction).
      S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
      return;
    }
    S.Lru.emplace_front(Key, Unit);
    S.Map[Key] = S.Lru.begin();
    while (S.Lru.size() > ShardCapacity) {
      // Dropping the shared_ptr only releases the map's reference;
      // requests still holding the unit keep it alive until they finish.
      S.Map.erase(S.Lru.back().first);
      Evicted.push_back(std::move(S.Lru.back()));
      S.Lru.pop_back();
      ++S.Evictions;
    }
  }
  // The sink may wait for room in the spill queue; run it after the
  // shard lock is gone so that never blocks the hot lookup path.
  if (OnEvict)
    for (const auto &[EvictedKey, EvictedUnit] : Evicted)
      OnEvict(EvictedKey, EvictedUnit);
}

UnitPtr UnitCache::getOrBuild(const UnitKey &Key, const Builder &Build,
                              bool *WasHit, std::string *Error) {
  Shard &S = shardFor(Key);
  std::shared_ptr<InFlight> Flight;
  bool Leader = false;

  {
    std::lock_guard<std::mutex> Lock(S.M);
    auto It = S.Map.find(Key);
    if (It != S.Map.end()) {
      ++S.Hits;
      S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
      if (WasHit)
        *WasHit = true;
      return It->second->second;
    }
    auto Building = S.Building.find(Key);
    if (Building != S.Building.end()) {
      ++S.CoalescedWaits;
      Flight = Building->second;
    } else {
      ++S.Misses;
      Flight = std::make_shared<InFlight>();
      S.Building.emplace(Key, Flight);
      Leader = true;
    }
  }
  if (WasHit)
    *WasHit = false;

  if (!Leader) {
    // Single-flight follower: block until the leader finishes.
    std::unique_lock<std::mutex> Lock(Flight->M);
    Flight->Ready.wait(Lock, [&] { return Flight->Done; });
    if (!Flight->Result && Error)
      *Error = Flight->Error;
    return Flight->Result;
  }

  // Single-flight leader: build outside every lock.
  std::string BuildError;
  UnitPtr Unit = Build(BuildError);

  {
    std::lock_guard<std::mutex> Lock(S.M);
    S.Building.erase(Key);
    if (!Unit)
      ++S.BuildFailures;
  }
  if (Unit)
    publish(S, Key, Unit);

  {
    std::lock_guard<std::mutex> Lock(Flight->M);
    Flight->Done = true;
    Flight->Result = Unit;
    Flight->Error = BuildError;
  }
  Flight->Ready.notify_all();

  if (!Unit && Error)
    *Error = BuildError;
  return Unit;
}

UnitCache::Stats UnitCache::stats() const {
  Stats Out;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    Out.Hits += S.Hits;
    Out.Misses += S.Misses;
    Out.Evictions += S.Evictions;
    Out.CoalescedWaits += S.CoalescedWaits;
    Out.BuildFailures += S.BuildFailures;
    Out.Entries += S.Lru.size();
  }
  return Out;
}
