//===- service/Service.h - The specialization render service ---*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived, multi-client specialization service — the paper's
/// "pay specialization once, execute many times" split turned into a
/// server. A request names a gallery shader, an image size, the set of
/// varying controls, and this frame's control values. The service:
///
///   1. admits it through a bounded queue (full queue => shed with a
///      reason, never unbounded growth);
///   2. resolves its specialization *unit* — compiled loader/reader plus
///      a loader-warmed cache arena — through the keyed UnitCache, where
///      concurrent misses on one key specialize exactly once;
///   3. renders reader frames in tile jobs on the render engine's
///      thread pool, batching queued same-key requests behind one unit
///      resolution;
///   4. answers with a framebuffer that is bit-identical to running the
///      unspecialized shader directly (the paper's equivalence guarantee,
///      now end-to-end through the server).
///
/// Structured like a production inference server: admission control in
/// front, memoised specialization in the middle, deterministic kernels
/// underneath, /statsz on the side.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_SERVICE_SERVICE_H
#define DATASPEC_SERVICE_SERVICE_H

#include "engine/RenderEngine.h"
#include "service/Metrics.h"
#include "service/Protocol.h"
#include "service/SpillStore.h"
#include "service/UnitCache.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace dspec {

/// Sizing knobs for one service instance.
struct ServiceConfig {
  /// Tile workers per render engine, so per dispatcher: N dispatchers
  /// render on up to N x RenderThreads threads (0 = one per hardware
  /// thread). Tile parallelism at the default awaits its measurement
  /// against two dispatchers (ROADMAP item 3).
  unsigned RenderThreads = 1;
  unsigned TilePixels = 128;
  /// Capacity of the unit cache, in specialization units.
  unsigned CacheUnits = 64;
  unsigned CacheShards = 4;
  /// Bounded request queue; submissions past this are shed.
  unsigned QueueCapacity = 256;
  /// Max same-key requests rendered behind one unit resolution.
  unsigned MaxBatch = 16;
  /// Dispatcher threads, each with its own render engine. Two, so a
  /// second request in flight renders beside the first. Four served no
  /// more on perfbench's `slider_hits` and `overload`, and each
  /// dispatcher that has rendered keeps up to ~0.9 MB in its malloc
  /// arena: peak RSS read +1.5-3.8% at two over one, and +4-7% more on
  /// `overload` at four.
  unsigned Dispatchers = 2;
  /// Per-request image size ceiling (pixels).
  unsigned MaxPixels = 1u << 20;
  /// Execution tier for every engine (`dspec serve --exec-tier`); all
  /// tiers render bit-identical frames, so this is a pure speed knob.
  ExecTier Tier = ExecTier::Batched;
  /// Unused: see ArenaLayoutConfig (engine/RenderEngine.h).
  ArenaLayoutConfig ArenaLayout;
  /// Measured Section 4.3 bound: when nonzero, every specialization
  /// evicts minimum-benefit hot terms until its hot bytes x pixel count
  /// fits this many bytes (`--llc-bytes`; detectLlcBytes() is the usual
  /// source). 0 disables the working-set limiter.
  uint64_t LlcBytes = 0;
  /// Directory evicted-but-warm units spill to as snapshot files (and
  /// are restored from on a later miss — including after a restart).
  /// Empty disables spilling.
  std::string SpillDir;
  /// Byte cap on the spill directory (LRU files deleted past it).
  uint64_t SpillMaxBytes = 256u << 20;
};

/// The service. Thread-safe: submit/render/statsz may be called from any
/// number of connection threads.
class SpecializationService {
public:
  explicit SpecializationService(const ServiceConfig &Config = {});
  ~SpecializationService();

  SpecializationService(const SpecializationService &) = delete;
  SpecializationService &operator=(const SpecializationService &) = delete;

  /// Completion callback for submitAsync. Runs exactly once — on a
  /// dispatcher thread for admitted requests, or synchronously on the
  /// submitting thread for immediate rejections.
  using RenderCallback = std::function<void(RenderReply)>;

  /// Enqueues a request and calls \p Done with the outcome — a
  /// framebuffer, or a structured rejection (shed, draining, bad
  /// request). Rejections complete immediately without queueing. This is
  /// the event-loop front end's entry point: no future, no blocking.
  void submitAsync(RenderRequest Request, RenderCallback Done);

  /// Enqueues a request. The future always becomes ready — with a
  /// framebuffer, or with a structured rejection (shed, draining, bad
  /// request). Rejections resolve immediately without queueing.
  std::future<RenderReply> submit(RenderRequest Request);

  /// submit + wait.
  RenderReply render(RenderRequest Request);

  /// Counts a request the network front end shed for per-client
  /// fairness (token bucket / in-queue cap) before it reached the queue.
  void recordShedQuota() { Metrics.recordShedQuota(); }

  /// Counts a request the network front end answered BadRequest because
  /// its payload did not decode, so it never reached submitAsync.
  void recordBadRequest() { Metrics.recordBadRequest(); }

  /// Installs a provider whose JSON object becomes the /statsz "net"
  /// section (the network front end's counters). Call before serving.
  void setNetStatsProvider(std::function<std::string()> Provider) {
    NetStatsProvider = std::move(Provider);
  }

  /// Stops admitting work (new submissions answer Draining), finishes
  /// every queued request, joins the dispatchers, and lands every queued
  /// spill write. Idempotent; called by the destructor.
  void drain();

  /// The /statsz snapshot: request counters, cache stats, latency
  /// percentiles, queue depth, dispatcher occupancy.
  MetricsSnapshot statsz() const;

  const ServiceConfig &config() const { return Config; }

private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    RenderRequest Request;
    UnitKey Key;
    RenderCallback Done;
    Clock::time_point Enqueued;
    Clock::time_point Deadline; // only meaningful when HasDeadline
    bool HasDeadline = false;
  };

  /// Canonicalizes (fills default controls/varying, sorts the varying
  /// set) and validates a request; computes its cache key. Returns false
  /// with a BadRequest reason in \p Error.
  bool canonicalize(RenderRequest &Request, UnitKey &Key,
                    std::string &Error) const;

  /// The request's SpecializerOptions plus the service-level overlay:
  /// the measured Section 4.3 bound (Config.LlcBytes + the request's
  /// pixel count). Used both for the cache-key fingerprint and the
  /// build, so entries limited under different bounds never collide.
  SpecializerOptions effectiveOptions(const RenderRequest &Request) const;

  /// One dispatcher thread and what it alone owns.
  struct Dispatcher {
    explicit Dispatcher(const ServiceConfig &Config)
        : Engine(Config.RenderThreads, Config.TilePixels) {}
    RenderEngine Engine;
    /// Its own wake-up slot. Signalled is set and read under QueueMutex,
    /// so a wake-up between the queue check and the wait is not lost.
    std::condition_variable Wake;
    bool Signalled = false;
    /// Requests it answered, for /statsz.
    std::atomic<uint64_t> Served{0};
    std::thread Thread;
  };

  void dispatcherLoop(Dispatcher &Self);

  /// Resolves the batch's unit once and answers every member, on
  /// \p Engine.
  void serveBatch(std::vector<std::unique_ptr<Pending>> Batch,
                  RenderEngine &Engine);

  /// Builds the specialization unit for \p Request on \p Engine
  /// (parse + specialize + compile + loader pass). The loader pass
  /// renders \p Request's frame into \p LoaderFrame.
  UnitPtr buildUnit(const RenderRequest &Request, RenderEngine &Engine,
                    Framebuffer &LoaderFrame, std::string &Error) const;

  /// Resolves a unit for \p P: spilled snapshot from disk (a disk hit —
  /// no specializer run) or a fresh build. \p FromDisk reports which; a
  /// fresh build also leaves P's frame in \p LoaderFrame.
  UnitPtr loadOrBuildUnit(const Pending &P, RenderEngine &Engine,
                          bool &FromDisk,
                          std::optional<Framebuffer> &LoaderFrame,
                          std::string &Error) const;

  /// Renders one request against a resolved unit and fulfills it. A
  /// non-null \p LoaderFrame is P's frame from the build's loader pass,
  /// which stands in for the reader pass.
  void finish(Pending &P, const UnitPtr &Unit, bool CacheHit,
              RenderEngine &Engine, const Framebuffer *LoaderFrame);

  void reject(Pending &P, RenderStatus Status, std::string Reason);

  double secondsSince(Clock::time_point Start) const {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  }

  ServiceConfig Config;
  UnitCache Cache;
  ServiceMetrics Metrics;
  /// Disk spill of evicted units (enabled iff Config.SpillDir is set).
  std::unique_ptr<SpillStore> Spill;
  std::function<std::string()> NetStatsProvider;

  mutable std::mutex QueueMutex;
  std::deque<std::unique_ptr<Pending>> Queue;
  /// Parked dispatchers, the most recently parked last. A submission
  /// wakes the last one: back-to-back requests from one connection stay
  /// on the dispatcher whose caches and malloc arena are warm, and only
  /// a second request in flight wakes a second dispatcher.
  std::vector<Dispatcher *> Idle;
  bool Draining = false;

  /// Serializes drain() callers (destructor vs. an explicit drain).
  std::mutex DrainMutex;

  std::vector<std::unique_ptr<Dispatcher>> Dispatchers;
};

} // namespace dspec

#endif // DATASPEC_SERVICE_SERVICE_H
