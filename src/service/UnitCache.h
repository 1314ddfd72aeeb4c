//===- service/UnitCache.h - Keyed cache of specialization units -*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memoised heart of the specialization service: a sharded,
/// capacity-bounded LRU cache of *specialization units*, keyed by
/// (shader name, invariant-input hash, SpecializerOptions fingerprint).
/// One unit is everything the paper says you pay for once per input
/// partition — the compiled cache loader and reader plus a loader-warmed
/// packed CacheArena — so a cache hit turns a render request into pure
/// reader frames. This is the memo-table view of specialization
/// (Leuschel & Bruynooghe) realized for data specialization: one cache
/// entry per invariant-input partition.
///
/// Concurrency contract:
///  - getOrBuild is safe from any number of threads; concurrent misses on
///    one key run the builder exactly once (single-flight), with the
///    other callers blocking until the build finishes (counted as
///    coalesced waits, not extra misses).
///  - Units are immutable once published and handed out as
///    shared_ptr<const ...>, so an eviction never frees a unit that an
///    in-flight request is still reading.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_SERVICE_UNITCACHE_H
#define DATASPEC_SERVICE_UNITCACHE_H

#include "driver/Pipeline.h"
#include "engine/CacheArena.h"
#include "engine/RenderContext.h"
#include "specialize/SpecializerOptions.h"
#include "vm/Bytecode.h"

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace dspec {

struct ShaderInfo;

/// One cached specialization: the compiled unit and the loader-warmed
/// arena for one (shader, invariant inputs, options) partition.
/// Immutable after construction; shared by every request that hits it.
struct SpecializationUnit {
  std::string Shader;
  Chunk Loader;
  Chunk Reader;
  CacheLayout Layout;
  RenderGrid Grid;
  CacheArena Arena;
  /// Canonical varying-parameter names and the full control vector the
  /// loader ran with (varying slots hold the build request's values;
  /// cached slots never depend on them).
  std::vector<std::string> Varying;
  std::vector<float> LoadControls;
  /// Set by perfbench/Replay.cpp only and read by nothing: see
  /// VariantKey (driver/Pipeline.h).
  VariantKey Variant;
  std::string VariantLabel = "generic";
  /// Wall-clock cost of specialize + compile + loader pass (what a miss
  /// pays and a hit amortizes).
  double BuildSeconds = 0.0;
  /// The options this unit was specialized under — provenance for the
  /// spill store's snapshot META section.
  SpecializerOptions Options;

  SpecializationUnit(unsigned Width, unsigned Height) : Grid(Width, Height) {}
};

using UnitPtr = std::shared_ptr<const SpecializationUnit>;

/// FNV-1a 64-bit hash (seedable for incremental use).
inline uint64_t fnv1a64(const void *Data, size_t Size,
                        uint64_t Seed = 0xcbf29ce484222325ull) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  uint64_t H = Seed;
  for (size_t I = 0; I < Size; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

/// Fingerprint of every SpecializerOptions field that changes the
/// generated unit. Two requests whose options fingerprints differ must
/// never share a cache entry, even for identical inputs.
uint64_t optionsFingerprint(const SpecializerOptions &Options);

/// The InvariantHash of a UnitKey (below) for shader \p Info at \p Width x
/// \p Height: the grid size, the varying-parameter names in the order
/// given, then the index and value of every control whose name \p Varying
/// does not list. \p Controls holds one value per control of \p Info.
/// A spill file's META carries all of these inputs, so a restore can
/// check a file against the key it was found under.
uint64_t invariantHash(const ShaderInfo &Info, unsigned Width,
                       unsigned Height,
                       const std::vector<std::string> &Varying,
                       const std::vector<float> &Controls);

/// Cache key: one entry per (shader, invariant-input partition, options).
/// InvariantHash covers the grid dimensions, the varying-parameter set,
/// and the values of every *fixed* control — the varying controls' values
/// are deliberately excluded, which is exactly what makes the entry
/// reusable across frames of a parameter drag.
struct UnitKey {
  std::string Shader;
  uint64_t InvariantHash = 0;
  uint64_t OptionsFingerprint = 0;

  bool operator==(const UnitKey &RHS) const = default;
};

struct UnitKeyHasher {
  size_t operator()(const UnitKey &Key) const {
    uint64_t H = fnv1a64(Key.Shader.data(), Key.Shader.size());
    H = fnv1a64(&Key.InvariantHash, sizeof(Key.InvariantHash), H);
    H = fnv1a64(&Key.OptionsFingerprint, sizeof(Key.OptionsFingerprint), H);
    // Keys once ended with a property-variant hash, the same constant on
    // every key the service built. Folding it in keeps every key's hash,
    // and so its shard, as it was: perfbench picks its workloads' units
    // per shard through this hash.
    const uint64_t RetiredVariantHash = 0x8f462907235ab4d9ull;
    H = fnv1a64(&RetiredVariantHash, sizeof(RetiredVariantHash), H);
    return static_cast<size_t>(H);
  }
};

/// Sharded LRU cache of specialization units with single-flight misses.
class UnitCache {
public:
  /// Builds a unit on a miss. Returns null with \p Error set on failure;
  /// failures are reported to every coalesced waiter and never cached.
  using Builder = std::function<UnitPtr(std::string &Error)>;

  /// Aggregated counters (summed over shards).
  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
    /// Callers that blocked behind another caller's in-flight build.
    uint64_t CoalescedWaits = 0;
    uint64_t BuildFailures = 0;
    uint64_t Entries = 0;
  };

  /// Called with each (key, unit) a capacity eviction pushes out, outside
  /// the shard lock so it may block (the service's sink queues a spill
  /// write, and waits while the queue is full). The unit is still alive
  /// (shared_ptr) for the duration of the call.
  using EvictionSink = std::function<void(const UnitKey &, const UnitPtr &)>;

  /// \p Capacity total units across \p Shards shards (each shard holds up
  /// to ceil(Capacity/Shards); both are clamped to at least 1).
  explicit UnitCache(unsigned Capacity, unsigned ShardCount = 4);

  /// Installs the eviction sink. Call before concurrent use (the sink is
  /// read without synchronization on the publish path).
  void setEvictionSink(EvictionSink Sink) { OnEvict = std::move(Sink); }

  /// Returns the unit for \p Key, running \p Build at most once across
  /// all concurrent callers on a miss. \p WasHit (optional) reports
  /// whether this caller was served from the cache without waiting on a
  /// build. Returns null with \p Error set if the build failed.
  UnitPtr getOrBuild(const UnitKey &Key, const Builder &Build,
                     bool *WasHit = nullptr, std::string *Error = nullptr);

  /// Cache lookup without building; counts a hit/miss.
  UnitPtr lookup(const UnitKey &Key);

  /// Visits every cached unit, shard by shard under that shard's lock
  /// (keep the callback cheap — this exists for /statsz arena
  /// aggregation).
  void forEachUnit(const std::function<void(const UnitPtr &)> &Fn) const;

  Stats stats() const;
  unsigned capacity() const { return TotalCapacity; }

private:
  /// Rendezvous for one in-flight build.
  struct InFlight {
    std::mutex M;
    std::condition_variable Ready;
    bool Done = false;
    UnitPtr Result;
    std::string Error;
  };

  struct Shard {
    mutable std::mutex M;
    /// Front = most recently used.
    std::list<std::pair<UnitKey, UnitPtr>> Lru;
    std::unordered_map<UnitKey,
                       std::list<std::pair<UnitKey, UnitPtr>>::iterator,
                       UnitKeyHasher>
        Map;
    std::unordered_map<UnitKey, std::shared_ptr<InFlight>, UnitKeyHasher>
        Building;
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
    uint64_t CoalescedWaits = 0;
    uint64_t BuildFailures = 0;
  };

  Shard &shardFor(const UnitKey &Key) {
    // Remix the key hash under a different seed before picking the shard.
    // Reusing UnitKeyHasher's value directly would make every key in a
    // shard share its low bits — the very bits the shard's unordered_map
    // buckets on — degrading the intra-shard maps toward linked lists.
    uint64_t H = UnitKeyHasher()(Key);
    H = fnv1a64(&H, sizeof(H), 0x9e3779b97f4a7c15ull);
    return Shards[H % Shards.size()];
  }

  /// Publishes a built unit into \p S, evicting LRU entries past the
  /// shard capacity. Caller must not hold the shard mutex.
  void publish(Shard &S, const UnitKey &Key, const UnitPtr &Unit);

  std::vector<Shard> Shards;
  unsigned TotalCapacity;
  unsigned ShardCapacity;
  EvictionSink OnEvict;
};

} // namespace dspec

#endif // DATASPEC_SERVICE_UNITCACHE_H
