//===- service/Metrics.h - Service counters and latency stats ---*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Observability for the specialization service: cheap atomic counters on
/// the request path, a bounded reservoir of recent request latencies, and
/// a /statsz-style snapshot (requests, outcome breakdown, cache hit rate,
/// evictions, shed counts, p50/p95/p99 latency) rendered as JSON — what
/// you would scrape from a production server's metrics endpoint.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_SERVICE_METRICS_H
#define DATASPEC_SERVICE_METRICS_H

#include "service/UnitCache.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace dspec {

/// Percentile over a sample set (nearest-rank); 0 for an empty set.
double percentileOf(std::vector<double> Samples, double Pct);

/// Everything one statsz scrape reports. Plain data, so tests can assert
/// on fields instead of parsing JSON.
struct MetricsSnapshot {
  uint64_t RequestsTotal = 0;
  uint64_t RequestsOk = 0;
  uint64_t CacheHitRequests = 0;
  /// Misses answered with the frame their unit's loader pass rendered,
  /// so no reader pass ran for them.
  uint64_t LoaderFrameReplies = 0;
  uint64_t BadRequests = 0;
  uint64_t SpecializeErrors = 0;
  uint64_t RenderTraps = 0;
  uint64_t ShedQueueFull = 0;
  uint64_t ShedDeadline = 0;
  uint64_t RejectedDraining = 0;
  /// Shed by the network front end's per-client fairness (token bucket
  /// or in-queue cap) before reaching the service queue.
  uint64_t ShedQuota = 0;

  UnitCache::Stats Cache;
  uint64_t CacheCapacity = 0;

  /// Disk-spill accounting (zero when no spill directory is configured).
  /// DiskHits counts units restored from a spilled snapshot instead of
  /// being respecialized — separate from in-memory Cache.Hits.
  uint64_t SpillDiskHits = 0;
  uint64_t SpillWrites = 0;
  uint64_t SpillErrors = 0;
  uint64_t SpillEvictedFiles = 0;
  uint64_t SpillFiles = 0;
  uint64_t SpillBytes = 0;
  /// Evictions queued for the spill writer or being written (a gauge),
  /// and restores that waited for their key's queued write.
  uint64_t SpillPendingWrites = 0;
  uint64_t SpillLoadWaits = 0;
  bool SpillEnabled = false;

  /// The execution tier every dispatcher's engine runs (the configured
  /// ServiceConfig::Tier).
  std::string ExecTier = "batched";

  /// Arena accounting, aggregated over the live unit cache at snapshot
  /// time: the units, their arena bytes summed, and the largest unit's
  /// arena — the bytes one reader frame streams (stride x pixels).
  uint64_t ArenaUnits = 0;
  uint64_t ArenaPhysicalBytes = 0;
  uint64_t ArenaMaxHotFrameBytes = 0;

  uint64_t QueueDepth = 0;
  /// Dispatchers parked on an empty queue, and the requests each
  /// dispatcher has finished (its size is the dispatcher count).
  uint64_t IdleDispatchers = 0;
  std::vector<uint64_t> DispatcherServed;
  uint64_t LatencySamples = 0;
  double LatencyP50 = 0.0;
  double LatencyP95 = 0.0;
  double LatencyP99 = 0.0;

  /// A preformatted JSON object the network front end contributes
  /// (connections, quota sheds, reaps); empty = no "net" section.
  std::string NetJson;

  /// Total sheds (queue-full + deadline + quota), the admission-control
  /// signal.
  uint64_t shedTotal() const {
    return ShedQueueFull + ShedDeadline + ShedQuota;
  }

  /// Hits / (hits + misses); 0 when the cache is untouched.
  double cacheHitRate() const;

  /// One-line-per-scrape JSON document.
  std::string toJson() const;
};

/// Request-path counters plus a latency reservoir. All record methods are
/// thread-safe and cheap enough for the hot path.
class ServiceMetrics {
public:
  /// Keeps the most recent \p ReservoirSize latency samples.
  explicit ServiceMetrics(size_t ReservoirSize = 4096);

  void recordOk(double LatencySeconds, bool CacheHit);
  /// Counts an Ok reply whose pixels came from the build's loader pass.
  void recordLoaderFrameReply() { ++LoaderFrameReplies; }
  void recordBadRequest() { ++RequestsTotal; ++BadRequests; }
  void recordSpecializeError(double LatencySeconds);
  void recordRenderTrap(double LatencySeconds);
  void recordShedQueueFull() { ++RequestsTotal; ++ShedQueueFull; }
  void recordShedDeadline() { ++RequestsTotal; ++ShedDeadline; }
  void recordShedQuota() { ++RequestsTotal; ++ShedQuota; }
  void recordRejectedDraining() { ++RequestsTotal; ++RejectedDraining; }

  /// Fills the counter and latency fields (cache/queue fields are the
  /// caller's — the service composes the full snapshot).
  MetricsSnapshot snapshot() const;

private:
  void recordLatency(double Seconds);

  std::atomic<uint64_t> RequestsTotal{0};
  std::atomic<uint64_t> RequestsOk{0};
  std::atomic<uint64_t> CacheHitRequests{0};
  std::atomic<uint64_t> LoaderFrameReplies{0};
  std::atomic<uint64_t> BadRequests{0};
  std::atomic<uint64_t> SpecializeErrors{0};
  std::atomic<uint64_t> RenderTraps{0};
  std::atomic<uint64_t> ShedQueueFull{0};
  std::atomic<uint64_t> ShedDeadline{0};
  std::atomic<uint64_t> ShedQuota{0};
  std::atomic<uint64_t> RejectedDraining{0};

  mutable std::mutex LatencyMutex;
  std::vector<double> Latencies; // ring buffer
  size_t LatencyNext = 0;
  size_t LatencyCount = 0;
};

} // namespace dspec

#endif // DATASPEC_SERVICE_METRICS_H
