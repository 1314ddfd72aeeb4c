//===- tests/TestUnitCache.cpp - Specialization unit cache tests ------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/SpillStore.h"
#include "service/UnitCache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace dspec;

namespace {

UnitKey keyFor(const std::string &Shader, uint64_t InvariantHash = 1,
               uint64_t Fingerprint = 1) {
  UnitKey Key;
  Key.Shader = Shader;
  Key.InvariantHash = InvariantHash;
  Key.OptionsFingerprint = Fingerprint;
  return Key;
}

UnitPtr dummyUnit(const std::string &Shader) {
  auto Unit = std::make_shared<SpecializationUnit>(2u, 2u);
  Unit->Shader = Shader;
  return Unit;
}

UnitCache::Builder builderFor(const std::string &Shader,
                              std::atomic<unsigned> *Builds = nullptr) {
  return [Shader, Builds](std::string &) {
    if (Builds)
      ++*Builds;
    return dummyUnit(Shader);
  };
}

TEST(UnitCache, HitReturnsSameUnitAndCounts) {
  UnitCache Cache(4, 1);
  std::atomic<unsigned> Builds{0};
  bool WasHit = true;
  UnitPtr First = Cache.getOrBuild(keyFor("a"), builderFor("a", &Builds),
                                   &WasHit);
  ASSERT_TRUE(First);
  EXPECT_FALSE(WasHit);
  UnitPtr Second = Cache.getOrBuild(keyFor("a"), builderFor("a", &Builds),
                                    &WasHit);
  EXPECT_TRUE(WasHit);
  EXPECT_EQ(First.get(), Second.get());
  EXPECT_EQ(Builds, 1u);

  UnitCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_EQ(S.Evictions, 0u);
}

TEST(UnitCache, EvictsLeastRecentlyUsed) {
  // One shard of capacity 3, so eviction order is fully deterministic.
  UnitCache Cache(3, 1);
  Cache.getOrBuild(keyFor("a"), builderFor("a"));
  Cache.getOrBuild(keyFor("b"), builderFor("b"));
  Cache.getOrBuild(keyFor("c"), builderFor("c"));

  // Touch "a" so "b" becomes the LRU victim.
  EXPECT_TRUE(Cache.lookup(keyFor("a")));

  Cache.getOrBuild(keyFor("d"), builderFor("d"));
  EXPECT_EQ(Cache.stats().Evictions, 1u);

  EXPECT_TRUE(Cache.lookup(keyFor("a")));
  EXPECT_FALSE(Cache.lookup(keyFor("b"))); // evicted
  EXPECT_TRUE(Cache.lookup(keyFor("c")));
  EXPECT_TRUE(Cache.lookup(keyFor("d")));
  EXPECT_EQ(Cache.stats().Entries, 3u);
}

TEST(UnitCache, EvictionOrderFollowsUse) {
  UnitCache Cache(2, 1);
  Cache.getOrBuild(keyFor("a"), builderFor("a"));
  Cache.getOrBuild(keyFor("b"), builderFor("b"));
  // "a" is LRU; inserting "c" must evict it.
  Cache.getOrBuild(keyFor("c"), builderFor("c"));
  EXPECT_FALSE(Cache.lookup(keyFor("a")));
  EXPECT_TRUE(Cache.lookup(keyFor("b")));
  // Now "c" is LRU... but looking "b" up just made "b" MRU, so "c" is the
  // victim of the next insert.
  Cache.getOrBuild(keyFor("d"), builderFor("d"));
  EXPECT_FALSE(Cache.lookup(keyFor("c")));
  EXPECT_TRUE(Cache.lookup(keyFor("b")));
  EXPECT_TRUE(Cache.lookup(keyFor("d")));
}

TEST(UnitCache, EvictionNeverFreesHeldUnits) {
  UnitCache Cache(1, 1);
  UnitPtr Held = Cache.getOrBuild(keyFor("a"), builderFor("a"));
  ASSERT_TRUE(Held);
  // Evict "a" while we still hold a reference to it.
  Cache.getOrBuild(keyFor("b"), builderFor("b"));
  EXPECT_FALSE(Cache.lookup(keyFor("a")));
  // The held unit is still alive and readable (ASan would flag this).
  EXPECT_EQ(Held->Shader, "a");
  EXPECT_EQ(Held->Grid.width(), 2u);
}

TEST(UnitCache, OptionsFingerprintSeparatesEntries) {
  SpecializerOptions Defaults;
  SpecializerOptions Reassoc;
  Reassoc.EnableReassociate = true;
  SpecializerOptions Limited;
  Limited.CacheByteLimit = 16;
  uint64_t FpDefaults = optionsFingerprint(Defaults);
  uint64_t FpReassoc = optionsFingerprint(Reassoc);
  uint64_t FpLimited = optionsFingerprint(Limited);
  EXPECT_NE(FpDefaults, FpReassoc);
  EXPECT_NE(FpDefaults, FpLimited);
  EXPECT_NE(FpReassoc, FpLimited);
  // Same options => same fingerprint (it must be a pure function).
  EXPECT_EQ(FpDefaults, optionsFingerprint(SpecializerOptions{}));

  // Identical shader and invariant hash but different fingerprints must
  // occupy distinct cache entries.
  UnitCache Cache(8, 1);
  std::atomic<unsigned> Builds{0};
  bool WasHit = true;
  Cache.getOrBuild(keyFor("a", 7, FpDefaults), builderFor("a", &Builds),
                   &WasHit);
  EXPECT_FALSE(WasHit);
  Cache.getOrBuild(keyFor("a", 7, FpReassoc), builderFor("a", &Builds),
                   &WasHit);
  EXPECT_FALSE(WasHit);
  EXPECT_EQ(Builds, 2u);
  EXPECT_EQ(Cache.stats().Entries, 2u);
}

TEST(UnitCache, FingerprintDriftsOnEveryOptionField) {
  // Every SpecializerOptions field must reach the fingerprint: a knob
  // that two units disagree on while sharing a cache entry would serve
  // one unit's code under the other's key. Perturb each field in turn
  // and demand a distinct fingerprint from the default and from every
  // other perturbation.
  const uint64_t Base = optionsFingerprint(SpecializerOptions{});
  std::vector<std::pair<const char *, SpecializerOptions>> Perturbed;
  auto Add = [&](const char *Name, auto Mutate) {
    SpecializerOptions O;
    Mutate(O);
    Perturbed.emplace_back(Name, O);
  };
  Add("EnableJoinNormalize",
      [](SpecializerOptions &O) { O.EnableJoinNormalize = false; });
  Add("EnableReassociate",
      [](SpecializerOptions &O) { O.EnableReassociate = true; });
  Add("Reassoc.AllowFloatReassociation", [](SpecializerOptions &O) {
    O.Reassoc.AllowFloatReassociation = false;
  });
  Add("AllowSpeculation",
      [](SpecializerOptions &O) { O.AllowSpeculation = true; });
  Add("WeightVictimBySize",
      [](SpecializerOptions &O) { O.WeightVictimBySize = true; });
  Add("CacheByteLimit=16",
      [](SpecializerOptions &O) { O.CacheByteLimit = 16; });
  // A present-but-zero limit is a real configuration (cache nothing) and
  // must not collide with "no limit".
  Add("CacheByteLimit=0",
      [](SpecializerOptions &O) { O.CacheByteLimit = 0; });
  Add("Cost.LoopMultiplier",
      [](SpecializerOptions &O) { O.Cost.LoopMultiplier += 1; });
  Add("Cost.CondDivisor",
      [](SpecializerOptions &O) { O.Cost.CondDivisor += 1; });
  Add("Cost.CacheRefCost",
      [](SpecializerOptions &O) { O.Cost.CacheRefCost += 1; });
  Add("CollectExplanation",
      [](SpecializerOptions &O) { O.CollectExplanation = true; });

  std::vector<uint64_t> Seen = {Base};
  for (const auto &[Name, Options] : Perturbed) {
    uint64_t Fp = optionsFingerprint(Options);
    for (uint64_t Other : Seen)
      EXPECT_NE(Fp, Other) << Name << " does not drift the fingerprint";
    Seen.push_back(Fp);
  }
}

TEST(UnitCache, KeyHashesAndSpillNamesStayPinned) {
  // Computed by the build that still had property variants, whose every
  // key carried the generic variant: perfbench picks units per shard
  // through UnitKeyHasher, and spill files are found again by name, so
  // neither value may move.
  EXPECT_EQ(UnitKeyHasher()(keyFor("a", 7, 9)), 0x2746c1984966a857ull);
  EXPECT_EQ(UnitKeyHasher()(keyFor("marble", 1, 1)), 0xb2345ca88395e5c9ull);

  SpillStore Store;
  std::string Error;
  const std::string Dir = testing::TempDir() + "dspec_spill_names";
  ASSERT_TRUE(Store.open(Dir, /*MaxBytes=*/0, &Error)) << Error;
  EXPECT_EQ(Store.pathFor(keyFor("marble", 1, 1)),
            Dir + "/71b395d967bc4040.dsnp");
}

TEST(UnitCache, ConcurrentDistinctKeysOnOneShardStayCoherent) {
  // Many threads hammering getOrBuild with *distinct* keys that all land
  // on one shard (single-shard cache) drive insertion and LRU eviction
  // concurrently. The invariants: every caller gets the unit its key
  // names, the entry count never exceeds capacity, accounting adds up,
  // and eviction happened.
  constexpr unsigned Capacity = 4;
  constexpr unsigned NumThreads = 8;
  constexpr unsigned KeysPerThread = 64;
  UnitCache Cache(Capacity, 1);
  std::atomic<unsigned> Builds{0};

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&Cache, &Builds, T] {
      for (unsigned I = 0; I < KeysPerThread; ++I) {
        // 16 distinct keys shared across threads, visited in per-thread
        // orders so hits, misses, coalesced waits, and evictions all
        // interleave on the single shard.
        std::string Shader = "s" + std::to_string((T * 5 + I * 3) % 16);
        UnitPtr Unit = Cache.getOrBuild(
            keyFor(Shader), builderFor(Shader, &Builds));
        ASSERT_TRUE(Unit);
        EXPECT_EQ(Unit->Shader, Shader);
      }
    });
  for (std::thread &T : Threads)
    T.join();

  UnitCache::Stats S = Cache.stats();
  EXPECT_LE(S.Entries, Capacity);
  EXPECT_EQ(S.Hits + S.Misses + S.CoalescedWaits,
            NumThreads * KeysPerThread);
  // 16 live keys through a 4-entry shard must evict...
  EXPECT_GT(S.Evictions, 0u);
  // ...and every eviction was preceded by a build of that key.
  EXPECT_EQ(Builds.load(), S.Misses);
  EXPECT_GE(S.Misses, 16u);
}

TEST(UnitCache, SingleFlightBuildsOnceAcrossThreads) {
  UnitCache Cache(4, 1);
  constexpr unsigned NumThreads = 8;
  std::atomic<unsigned> Builds{0};
  std::atomic<unsigned> Ready{0};

  UnitCache::Builder SlowBuild = [&](std::string &) -> UnitPtr {
    ++Builds;
    // Hold the build open long enough that every other thread arrives
    // while it is in flight.
    while (Ready.load() < NumThreads)
      std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return dummyUnit("slow");
  };

  std::vector<UnitPtr> Results(NumThreads);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      ++Ready;
      Results[T] = Cache.getOrBuild(keyFor("slow"), SlowBuild);
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Builds, 1u);
  for (const UnitPtr &R : Results) {
    ASSERT_TRUE(R);
    EXPECT_EQ(R.get(), Results[0].get()); // all callers share one unit
  }
  UnitCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.CoalescedWaits, NumThreads - 1);
}

TEST(UnitCache, BuildFailureReportsAndIsNotCached) {
  UnitCache Cache(4, 1);
  std::atomic<unsigned> Builds{0};
  UnitCache::Builder Failing = [&](std::string &Error) -> UnitPtr {
    ++Builds;
    Error = "synthetic failure";
    return nullptr;
  };
  std::string Error;
  EXPECT_FALSE(Cache.getOrBuild(keyFor("bad"), Failing, nullptr, &Error));
  EXPECT_EQ(Error, "synthetic failure");
  EXPECT_EQ(Cache.stats().BuildFailures, 1u);
  EXPECT_EQ(Cache.stats().Entries, 0u);

  // A failure is not negative-cached: the next call retries the build.
  bool WasHit = true;
  EXPECT_TRUE(Cache.getOrBuild(keyFor("bad"), builderFor("bad", &Builds),
                               &WasHit));
  EXPECT_FALSE(WasHit);
  EXPECT_EQ(Builds, 2u);
}

TEST(UnitCache, ShardedStressKeepsCapacityBound) {
  UnitCache Cache(8, 4);
  constexpr unsigned NumThreads = 4;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&Cache, T] {
      for (unsigned I = 0; I < 200; ++I) {
        std::string Shader = "s" + std::to_string((T * 7 + I) % 32);
        UnitPtr Unit = Cache.getOrBuild(keyFor(Shader), builderFor(Shader));
        ASSERT_TRUE(Unit);
        EXPECT_EQ(Unit->Shader, Shader);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  UnitCache::Stats S = Cache.stats();
  // Per-shard capacity is ceil(8/4)=2, so at most 8 entries survive.
  EXPECT_LE(S.Entries, 8u);
  EXPECT_EQ(S.Hits + S.Misses + S.CoalescedWaits, NumThreads * 200u);
  EXPECT_GT(S.Evictions, 0u);
}

} // namespace
