//===- service/Metrics.cpp - Service counters and latency stats -------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Metrics.h"

#include "support/StringUtil.h"

#include <algorithm>
#include <cmath>

using namespace dspec;

double dspec::percentileOf(std::vector<double> Samples, double Pct) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  // Nearest-rank: the smallest sample with at least Pct% of the mass at
  // or below it.
  double Rank = std::ceil(Pct / 100.0 * static_cast<double>(Samples.size()));
  size_t Index = Rank < 1.0 ? 0 : static_cast<size_t>(Rank) - 1;
  if (Index >= Samples.size())
    Index = Samples.size() - 1;
  return Samples[Index];
}

double MetricsSnapshot::cacheHitRate() const {
  uint64_t Total = Cache.Hits + Cache.Misses;
  return Total == 0 ? 0.0
                    : static_cast<double>(Cache.Hits) /
                          static_cast<double>(Total);
}

std::string MetricsSnapshot::toJson() const {
  std::string SpillJson;
  if (SpillEnabled)
    SpillJson = formatString(
        ",\"spill\":{\"disk_hits\":%llu,\"writes\":%llu,\"errors\":%llu,"
        "\"evicted_files\":%llu,\"files\":%llu,\"bytes\":%llu}",
        static_cast<unsigned long long>(SpillDiskHits),
        static_cast<unsigned long long>(SpillWrites),
        static_cast<unsigned long long>(SpillErrors),
        static_cast<unsigned long long>(SpillEvictedFiles),
        static_cast<unsigned long long>(SpillFiles),
        static_cast<unsigned long long>(SpillBytes));
  std::string NetSection;
  if (!NetJson.empty())
    NetSection = ",\"net\":" + NetJson;
  std::string ArenaJson = formatString(
      "\"arena\":{\"units\":%llu,\"physical_bytes\":%llu,"
      "\"hot_frame_bytes\":%llu,\"max_hot_frame_bytes\":%llu,"
      "\"llc_bytes\":%llu,\"fits_llc\":%s}",
      static_cast<unsigned long long>(ArenaUnits),
      static_cast<unsigned long long>(ArenaPhysicalBytes),
      static_cast<unsigned long long>(ArenaHotFrameBytes),
      static_cast<unsigned long long>(ArenaMaxHotFrameBytes),
      static_cast<unsigned long long>(ArenaLlcBytes),
      ArenaFitsLlc ? "true" : "false");
  std::string Served;
  for (uint64_t N : DispatcherServed)
    Served += (Served.empty() ? "" : ",") + std::to_string(N);
  std::string DispatchersJson = formatString(
      "\"dispatchers\":{\"count\":%llu,\"idle\":%llu,\"served\":[%s]}",
      static_cast<unsigned long long>(DispatcherServed.size()),
      static_cast<unsigned long long>(IdleDispatchers), Served.c_str());
  return formatString(
      "{\"requests\":{\"total\":%llu,\"ok\":%llu,\"cache_hit\":%llu,"
      "\"loader_frame_replies\":%llu,\"bad_request\":%llu,"
      "\"specialize_error\":%llu,\"render_trap\":%llu,"
      "\"shed_queue_full\":%llu,\"shed_deadline\":%llu,\"shed_quota\":%llu,"
      "\"rejected_draining\":%llu},"
      "\"unit_cache\":{\"hits\":%llu,\"misses\":%llu,\"evictions\":%llu,"
      "\"coalesced_waits\":%llu,\"build_failures\":%llu,\"entries\":%llu,"
      "\"capacity\":%llu,\"hit_rate\":%.4f}%s,"
      "\"exec_tier\":\"%s\","
      "%s,"
      "\"queue_depth\":%llu,"
      "%s,"
      "\"latency_seconds\":{\"samples\":%llu,\"p50\":%.9f,\"p95\":%.9f,"
      "\"p99\":%.9f}%s}",
      static_cast<unsigned long long>(RequestsTotal),
      static_cast<unsigned long long>(RequestsOk),
      static_cast<unsigned long long>(CacheHitRequests),
      static_cast<unsigned long long>(LoaderFrameReplies),
      static_cast<unsigned long long>(BadRequests),
      static_cast<unsigned long long>(SpecializeErrors),
      static_cast<unsigned long long>(RenderTraps),
      static_cast<unsigned long long>(ShedQueueFull),
      static_cast<unsigned long long>(ShedDeadline),
      static_cast<unsigned long long>(ShedQuota),
      static_cast<unsigned long long>(RejectedDraining),
      static_cast<unsigned long long>(Cache.Hits),
      static_cast<unsigned long long>(Cache.Misses),
      static_cast<unsigned long long>(Cache.Evictions),
      static_cast<unsigned long long>(Cache.CoalescedWaits),
      static_cast<unsigned long long>(Cache.BuildFailures),
      static_cast<unsigned long long>(Cache.Entries),
      static_cast<unsigned long long>(CacheCapacity), cacheHitRate(),
      SpillJson.c_str(), ExecTier.c_str(), ArenaJson.c_str(),
      static_cast<unsigned long long>(QueueDepth), DispatchersJson.c_str(),
      static_cast<unsigned long long>(LatencySamples), LatencyP50, LatencyP95,
      LatencyP99, NetSection.c_str());
}

ServiceMetrics::ServiceMetrics(size_t ReservoirSize)
    : Latencies(ReservoirSize == 0 ? 1 : ReservoirSize, 0.0) {}

void ServiceMetrics::recordLatency(double Seconds) {
  std::lock_guard<std::mutex> Lock(LatencyMutex);
  Latencies[LatencyNext] = Seconds;
  LatencyNext = (LatencyNext + 1) % Latencies.size();
  if (LatencyCount < Latencies.size())
    ++LatencyCount;
}

void ServiceMetrics::recordOk(double LatencySeconds, bool CacheHit) {
  ++RequestsTotal;
  ++RequestsOk;
  if (CacheHit)
    ++CacheHitRequests;
  recordLatency(LatencySeconds);
}

void ServiceMetrics::recordSpecializeError(double LatencySeconds) {
  ++RequestsTotal;
  ++SpecializeErrors;
  recordLatency(LatencySeconds);
}

void ServiceMetrics::recordRenderTrap(double LatencySeconds) {
  ++RequestsTotal;
  ++RenderTraps;
  recordLatency(LatencySeconds);
}

MetricsSnapshot ServiceMetrics::snapshot() const {
  MetricsSnapshot Out;
  Out.RequestsTotal = RequestsTotal;
  Out.RequestsOk = RequestsOk;
  Out.CacheHitRequests = CacheHitRequests;
  Out.LoaderFrameReplies = LoaderFrameReplies;
  Out.BadRequests = BadRequests;
  Out.SpecializeErrors = SpecializeErrors;
  Out.RenderTraps = RenderTraps;
  Out.ShedQueueFull = ShedQueueFull;
  Out.ShedDeadline = ShedDeadline;
  Out.ShedQuota = ShedQuota;
  Out.RejectedDraining = RejectedDraining;

  std::vector<double> Samples;
  {
    std::lock_guard<std::mutex> Lock(LatencyMutex);
    Samples.assign(Latencies.begin(),
                   Latencies.begin() + static_cast<long>(LatencyCount));
  }
  Out.LatencySamples = Samples.size();
  Out.LatencyP50 = percentileOf(Samples, 50.0);
  Out.LatencyP95 = percentileOf(Samples, 95.0);
  Out.LatencyP99 = percentileOf(Samples, 99.0);
  return Out;
}
