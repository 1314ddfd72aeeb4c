//===- perfbench/perfbench.cpp - The service benchmark --------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One workload against `dspec serve` on a unix socket:
///
///   1. generate the seeded traffic and compute the plain-pass reference
///      CRC of every control vector it will send;
///   2. set the server up (spawn, socket ready, warm-up) several times and
///      keep the median set-up time; the last server is measured;
///   3. drive the timed window from this process (closed loop, or open
///      loop at a fixed arrival rate), checking every reply bit for bit;
///   4. check the window against the server's own /statsz counters, drain
///      the server with SIGTERM and require exit status 0;
///   5. with --trace 1, replay the stream in-process with spans around the
///      public calls of each module and report per-layer figures.
///
/// The last line of standard output is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// with the end-to-end metrics (--trace 0) or the per-layer ones
/// (--trace 1). --repeat N runs N seeds and reports each metric's median
/// and quartile spread; --describe prints BENCHMARK.json.
///
//===----------------------------------------------------------------------===//

#include "Replay.h"
#include "Server.h"
#include "Stats.h"
#include "Workloads.h"

#include "service/Protocol.h"
#include "service/Transport.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace dspec;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
  const char *Better;
  /// End-to-end only: the share of the parent's median by which the
  /// metric may worsen before a change counts as a regression.
  double Bound;
};

const MetricDef kEndToEnd[] = {
    {"req_p50_ms", "ms", "lower", 0.24},
    {"req_p99_ms", "ms", "lower", 0.24},
    {"req_per_s", "1/s", "higher", 0.24},
    {"ok_ratio", "ratio", "higher", 0.24},
    {"server_cpu_ms_per_req", "ms", "lower", 0.24},
    {"peak_rss_mb", "MB", "lower", 0.1},
    {"setup_s", "s", "lower", 0.25},
};

const MetricDef kPerLayer[] = {
    {"net.rtt_minus_service_us", "us", "lower", 0},
    {"net.protocol_errors", "count", "lower", 0},
    {"net.backpressure_closes", "count", "lower", 0},
    {"protocol.reply_encode_us", "us", "lower", 0},
    {"protocol.reply_decode_us", "us", "lower", 0},
    {"service.p50_us", "us", "lower", 0},
    {"service.render_us", "us", "lower", 0},
    {"service.render_self_us", "us", "lower", 0},
    {"service.shed_queue_full", "count", "lower", 0},
    {"service.shed_deadline", "count", "lower", 0},
    {"service.shed_quota", "count", "lower", 0},
    {"unitcache.hit_ratio", "ratio", "higher", 0},
    {"unitcache.evictions", "count", "lower", 0},
    {"unitcache.coalesced_waits", "count", "lower", 0},
    {"spill.store_us", "us", "lower", 0},
    {"spill.load_us", "us", "lower", 0},
    {"spill.bytes_per_unit", "bytes", "lower", 0},
    {"spill.disk_hits", "count", "higher", 0},
    {"spill.writes", "count", "lower", 0},
    {"lang.parse_sema_us", "us", "lower", 0},
    {"specialize.compile_us", "us", "lower", 0},
    {"specialize.cache_bytes_per_pixel", "bytes", "lower", 0},
    {"specialize.reader_instrs", "count", "lower", 0},
    {"engine.loader_pass_us", "us", "lower", 0},
    {"engine.reader_pass_us", "us", "lower", 0},
    {"engine.plain_pass_us", "us", "lower", 0},
    {"engine.reader_speedup", "ratio", "higher", 0},
    {"engine.batch_active_fraction", "ratio", "higher", 0},
    {"engine.bailed_tile_ratio", "ratio", "lower", 0},
    {"loadgen.verify_us", "us", "lower", 0},
    {"loadgen.lag_p99_ms", "ms", "lower", 0},
    {"trace.replayed_requests", "count", "higher", 0},
    {"trace.untraced_req_p50_us", "us", "lower", 0},
    {"trace.attributed_us", "us", "lower", 0},
    {"trace.unattributed_us", "us", "lower", 0},
};

/// Servers per untraced run. Each is set up and measured for a share of
/// the window: thread placement on a shared machine varies from process
/// to process, and pooling several processes steadies the figures.
/// setup_s and peak_rss_mb are medians over them.
constexpr unsigned kServers = 3;
/// A window during which the hypervisor stole more than this share of the
/// host's CPU time ran on a machine slowed by other guests; it is measured
/// again on a fresh server, at most kExtraServers times per run.
constexpr double kMaxStealShare = 0.02;
constexpr unsigned kExtraServers = 2;
/// An open-loop run whose generator ran later than this share of the
/// request deadline at p99 is invalid: the generator, not the server,
/// would be shaping the load.
constexpr double kLagBoundShare = 0.25;
/// Wall-clock ceiling of one run, after which the server is killed.
constexpr unsigned kRunCeilingSeconds = 170;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  /// The window; BENCHMARK.json's run_seconds.
  double Seconds = 15.0;
  bool Trace = false;
  unsigned Repeat = 1;
  std::string Dspec = ".bench_build/tools/dspec";
  std::string WorkDir = ".bench_build/run";
  bool Describe = false;
};

struct RunResult {
  std::map<std::string, double> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Problems;
  bool correct() const { return Problems.empty(); }
};

/// What one client connection observed in the timed window.
struct ConnResult {
  Tally Count;
  std::vector<double> LatencyMs;     ///< served replies
  std::vector<double> NetMicros;     ///< RTT - ServiceMicros
  std::vector<double> ServiceMicros; ///< from the wire
  std::vector<double> LagMs;         ///< open loop: send time - due time
  /// Latency of the item at each stream position (-1: not served).
  std::vector<double> ByItem;
  bool Exhausted = false;
  std::string Error;
};

/// Records one reply (or transport failure) into \p Out. Latency runs
/// from \p From (the send time, or in open loop the scheduled send time)
/// to the verified reply; the RTT from \p Sent to \p Received.
void account(const WorkloadDef &W, const Traffic &T,
             const std::vector<Item> &Seq, size_t Index,
             const std::optional<RenderReply> &Reply, Clock::time_point From,
             Clock::time_point Sent, Clock::time_point Received,
             ConnResult &Out) {
  const Item &It = Seq[Index % Seq.size()];
  if (!Reply) {
    Out.Count.record(Outcome::Error);
    return;
  }
  bool Shed = Reply->Status == RenderStatus::ShedQueueFull ||
              Reply->Status == RenderStatus::ShedDeadline ||
              Reply->Status == RenderStatus::ShedQuota;
  bool Error = !Reply->ok() && !Shed;
  bool Match =
      Reply->ok() && pixelCrc(Reply->Pixels) == T.Pool[It.Entry].RefCrc;
  double LatencyMs = openLoopLatencyMs(From, Clock::now());
  Outcome O = classify(Shed, Error, Match, LatencyMs, W.DeadlineMillis);
  Out.Count.record(O);
  if (O == Outcome::Ok || O == Outcome::Late) {
    double Service = static_cast<double>(Reply->ServiceMicros);
    Out.LatencyMs.push_back(LatencyMs);
    if (Index < Out.ByItem.size())
      Out.ByItem[Index] = LatencyMs;
    Out.ServiceMicros.push_back(Service);
    Out.NetMicros.push_back(
        std::chrono::duration<double, std::micro>(Received - Sent).count() -
        Service);
  }
  if (Error && Out.Error.empty())
    Out.Error = "server answered " +
                std::string(renderStatusName(Reply->Status)) + ": " +
                Reply->Error;
}

/// One closed-loop connection: send, wait for the reply, verify, repeat
/// until \p End.
void closedLoop(const ServerProcess &Server, const WorkloadDef &W,
                const Traffic &T, const std::vector<Item> &Seq,
                size_t &Cursor, Clock::time_point End, ConnResult &Out) {
  auto Conn = Server.connect(Out.Error);
  if (!Conn)
    return;
  Out.ByItem.assign(Seq.size(), -1.0);
  for (size_t &I = Cursor; Clock::now() < End; ++I) {
    if (I == Seq.size() && !T.Wraps) {
      Out.Exhausted = true;
      return;
    }
    RenderRequest Request = makeRequest(W, T, Seq[I % Seq.size()]);
    std::string Error;
    Clock::time_point Sent = Clock::now();
    std::optional<RenderReply> Reply = requestRender(*Conn, Request, &Error);
    account(W, T, Seq, I, Reply, Sent, Sent, Clock::now(), Out);
    if (!Reply) {
      if (Out.Error.empty())
        Out.Error = Error;
      return; // the connection is gone
    }
  }
}

/// One open-loop connection: a sender thread that sends on a fixed
/// schedule whatever the replies do, and this thread receiving replies in
/// order and timing each from its scheduled send time.
void openLoop(const ServerProcess &Server, const WorkloadDef &W,
              const Traffic &T, const std::vector<Item> &Seq,
              Clock::time_point Start, Clock::time_point End,
              Clock::duration Interval, ConnResult &Out) {
  auto Conn = Server.connect(Out.Error);
  if (!Conn)
    return;
  struct Sent {
    Clock::time_point Due;
    Clock::time_point At;
    size_t Index;
  };
  std::mutex M;
  std::condition_variable Ready;
  std::deque<Sent> InFlight;
  bool SenderDone = false;

  Out.ByItem.assign(Seq.size(), -1.0);
  std::thread Sender([&] {
    for (size_t I = 0;; ++I) {
      Clock::time_point Due = Start + Interval * static_cast<long>(I);
      if (Due >= End)
        break;
      std::this_thread::sleep_until(Due);
      const Item &It = Seq[I % Seq.size()];
      ByteWriter Payload;
      encodeRenderRequest(Payload, makeRequest(W, T, It));
      Clock::time_point At = Clock::now();
      {
        std::lock_guard<std::mutex> Lock(M);
        InFlight.push_back({Due, At, I});
        Out.LagMs.push_back(
            std::chrono::duration<double, std::milli>(At - Due).count());
      }
      Ready.notify_one();
      if (!writeFrame(*Conn, FrameType::RenderRequest, Payload.bytes()))
        break;
    }
    std::lock_guard<std::mutex> Lock(M);
    SenderDone = true;
    Ready.notify_one();
  });

  for (;;) {
    Sent S;
    {
      std::unique_lock<std::mutex> Lock(M);
      Ready.wait(Lock, [&] { return !InFlight.empty() || SenderDone; });
      if (InFlight.empty())
        break;
      S = InFlight.front();
      InFlight.pop_front();
    }
    FrameType Type;
    std::vector<unsigned char> Payload;
    std::string Error;
    std::optional<RenderReply> Reply;
    if (readFrame(*Conn, Type, Payload, &Error) &&
        Type == FrameType::RenderReply) {
      ByteReader R(Payload);
      RenderReply Decoded;
      if (decodeRenderReply(R, Decoded, &Error))
        Reply = std::move(Decoded);
    }
    account(W, T, Seq, S.Index, Reply, S.Due, S.At, Clock::now(), Out);
    if (!Reply) {
      if (Out.Error.empty())
        Out.Error = Error.empty() ? "connection closed" : Error;
      Conn->shutdown(); // unblocks the sender
      std::lock_guard<std::mutex> Lock(M);
      for (size_t I = 0; I < InFlight.size(); ++I)
        Out.Count.record(Outcome::Error);
      InFlight.clear();
    }
  }
  Sender.join();
}

double median(std::vector<double> V) { return quartiles(std::move(V)).Median; }

/// Sends \p Items one at a time and checks every reply against its
/// reference (the warm-up of a set-up).
bool warm(const ServerProcess &Server, const WorkloadDef &W, const Traffic &T,
          const std::vector<Item> &Items, std::string &Error) {
  auto Conn = Server.connect(Error);
  if (!Conn)
    return false;
  for (const Item &It : Items) {
    std::optional<RenderReply> Reply =
        requestRender(*Conn, makeRequest(W, T, It), &Error);
    if (!Reply || !Reply->ok() ||
        pixelCrc(Reply->Pixels) != T.Pool[It.Entry].RefCrc) {
      Error = "warm-up reply " +
              std::string(Reply ? (Reply->ok() ? "differs from the reference"
                                               : Reply->Error)
                                : Error);
      return false;
    }
  }
  return true;
}

/// Kills the live server and ends the process if the benchmark outlives
/// \p Ceiling; disarmed by destruction.
class Watchdog {
public:
  explicit Watchdog(std::chrono::seconds Ceiling)
      : Thread([this, Ceiling] {
          std::unique_lock<std::mutex> Lock(M);
          if (Disarm.wait_for(Lock, Ceiling, [this] { return Done; }))
            return;
          killLiveServer();
          std::fprintf(stderr, "error: run exceeded %lld s\n",
                       static_cast<long long>(Ceiling.count()));
          std::_Exit(3);
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Done = true;
    }
    Disarm.notify_one();
    Thread.join();
  }
  Watchdog(const Watchdog &) = delete;
  Watchdog &operator=(const Watchdog &) = delete;

private:
  std::mutex M;
  std::condition_variable Disarm;
  bool Done = false;
  std::thread Thread; // last: starts after the members it uses
};

/// One server's life: set-up, a timed window, drain.
struct ServerRun {
  double SetupSeconds = 0.0;
  std::vector<ConnResult> Conns;
  double Elapsed = 0.0;
  double CpuMillis = 0.0;
  /// Share of the host's CPU time the hypervisor stole during the window.
  double StealShare = 0.0;
  Statsz Before, After;
  ServerProcess::Exit Exit;
};

/// Spawns a server, sets it up (timed: spawn until the workload can start
/// timing), drives a \p Seconds window from the per-connection stream
/// positions in \p Cursors, and drains it.
bool runServer(const Options &O, const WorkloadDef &W, const Traffic &T,
               double Seconds, std::vector<size_t> &Cursors, ServerRun &R,
               std::string &Error) {
  std::vector<std::string> Args = W.ServerArgs;
  const std::string SpillDir = O.WorkDir + "/spill";
  std::error_code Ec;
  std::filesystem::remove_all(SpillDir, Ec);
  if (W.Kind == Mix::Spill)
    Args.insert(Args.end(), {"--spill-dir", SpillDir});

  auto SetupStart = Clock::now();
  ServerProcess Server(O.Dspec, O.WorkDir + "/serve.sock", Args,
                       O.WorkDir + "/serve.log");
  if (!Server.waitReady(30.0, Error) || !warm(Server, W, T, T.Warmup, Error)) {
    Error = "set-up: " + Error;
    return false;
  }
  R.SetupSeconds =
      std::chrono::duration<double>(Clock::now() - SetupStart).count();

  auto Control = Server.connect(Error);
  if (!Control || !scrapeStatsz(*Control, R.Before, Error)) {
    Error = "statsz: " + Error;
    return false;
  }
  R.Conns.resize(W.Connections);
  // Cyclic streams restart at the top for every server (spill_revisit's
  // cycle must start where its set-up lap did); partition_churn
  // continues, so no cache key repeats within a run.
  if (T.Wraps)
    std::fill(Cursors.begin(), Cursors.end(), 0);
  double Cpu0 = Server.cpuMillis();
  HostTicks Host0 = hostTicks();
  auto Start = Clock::now();
  auto End = Start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Seconds));
  auto Interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(W.Connections /
                                    std::max(1.0, W.RatePerSecond)));
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < W.Connections; ++C)
    Threads.emplace_back([&, C] {
      if (W.OpenLoop)
        openLoop(Server, W, T, T.PerConn[C],
                 Start + Interval * C / W.Connections, End, Interval,
                 R.Conns[C]);
      else
        closedLoop(Server, W, T, T.PerConn[C], Cursors[C], End, R.Conns[C]);
    });
  for (std::thread &Th : Threads)
    Th.join();
  R.Elapsed = std::chrono::duration<double>(Clock::now() - Start).count();
  R.CpuMillis = Server.cpuMillis() - Cpu0;
  HostTicks Host1 = hostTicks();
  if (Host1.Total > Host0.Total)
    R.StealShare = static_cast<double>(Host1.Steal - Host0.Steal) /
                   static_cast<double>(Host1.Total - Host0.Total);
  if (!scrapeStatsz(*Control, R.After, Error)) {
    Error = "statsz: " + Error;
    return false;
  }
  Control.reset();
  R.Exit = Server.drain();
  return true;
}

RunResult runOnce(const Options &O, const WorkloadDef &W, uint64_t Seed) {
  RunResult Result;
  auto Fail = [&](const std::string &Why) {
    Result.Problems.push_back(Why);
    return Result;
  };
  std::error_code Ec;
  std::filesystem::create_directories(O.WorkDir, Ec);

  Traffic T;
  std::string Error;
  auto RefStart = Clock::now();
  if (!generate(W, Seed, O.Seconds, T, Error) ||
      !computeReferences(T, Error))
    return Fail(Error);
  std::printf("# %s seed %llu: %zu units, %zu reference frames (%.2f s)\n",
              W.Name, static_cast<unsigned long long>(Seed), T.Units.size(),
              T.Pool.size(),
              std::chrono::duration<double>(Clock::now() - RefStart).count());

  size_t Wanted = O.Trace ? 1 : kServers;
  std::vector<ServerRun> Runs;
  std::vector<size_t> Cursors(W.Connections, 0);
  for (unsigned Spare = kExtraServers; Runs.size() < Wanted;) {
    ServerRun R;
    if (!runServer(O, W, T, O.Seconds / Wanted, Cursors, R, Error))
      return Fail(Error);
    bool Again = R.StealShare > kMaxStealShare && Spare > 0;
    std::printf("# server: set-up %.3f s, peak RSS %.1f MB, drain status %d, "
                "%.1f%% of host CPU stolen%s\n",
                R.SetupSeconds, R.Exit.PeakRssMb, R.Exit.Status,
                100.0 * R.StealShare, Again ? ": measuring again" : "");
    if (!R.Exit.Clean)
      Result.Problems.push_back("drain exited with status " +
                                std::to_string(R.Exit.Status));
    if (Again)
      --Spare;
    else
      Runs.push_back(std::move(R));
  }

  ConnResult All;
  double Elapsed = 0.0, CpuMillis = 0.0;
  std::vector<double> Setups, PeakRss;
  for (const ServerRun &R : Runs) {
    Elapsed += R.Elapsed;
    CpuMillis += R.CpuMillis;
    Setups.push_back(R.SetupSeconds);
    PeakRss.push_back(R.Exit.PeakRssMb);
    for (const ConnResult &C : R.Conns) {
      All.Count.merge(C.Count);
      for (auto V : {&ConnResult::LatencyMs, &ConnResult::NetMicros,
                     &ConnResult::ServiceMicros, &ConnResult::LagMs})
        (All.*V).insert((All.*V).end(), (C.*V).begin(), (C.*V).end());
      if (C.Exhausted)
        Result.Problems.push_back(
            "the request stream ran out inside the window");
      if (!C.Error.empty() && All.Error.empty())
        All.Error = C.Error;
    }
  }
  const Tally &N = All.Count;
  Result.Attempted = N.Attempted;
  Result.Failed = N.broken();
  if (N.broken() != 0)
    Result.Problems.push_back(std::to_string(N.Wrong) + " wrong and " +
                              std::to_string(N.Errors) + " failed requests (" +
                              All.Error + ")");
  uint64_t Served = N.Ok + N.Late;
  if (Served == 0)
    return Fail("no request was served");

  // Validity, from the servers' own counters.
  auto Delta = [&](const char *Section, const char *Key) {
    double Sum = 0.0;
    for (const ServerRun &R : Runs)
      Sum += R.After.get(Section, Key) - R.Before.get(Section, Key);
    return Sum;
  };
  double Attempted = static_cast<double>(N.Attempted);
  double Misses = Delta("unit_cache", "misses");
  double Hits = Delta("unit_cache", "hits");
  double Sheds = Delta("requests", "shed_queue_full") +
                 Delta("requests", "shed_deadline") +
                 Delta("requests", "shed_quota");
  auto Check = [&](bool Ok, const std::string &Why) {
    if (!Ok)
      Result.Problems.push_back("invalid workload: " + Why);
  };
  Check(Delta("requests", "total") == Attempted,
        "the server counted requests the generator did not send");
  double LagP99 = W.OpenLoop ? percentile(All.LagMs, 99.0) : 0.0;
  switch (W.Kind) {
  case Mix::Slider:
    Check(W.OpenLoop || Misses == 0, "slider_hits had unit-cache misses");
    Check(!W.OpenLoop || Sheds == static_cast<double>(N.Shed),
          "server-side sheds differ from the sheds the client saw");
    Check(LagP99 <= kLagBoundShare * W.DeadlineMillis,
          "load generator p99 lag over its bound");
    break;
  case Mix::Churn:
    Check(Misses == Attempted, "partition_churn requests that did not miss");
    break;
  case Mix::Spill: {
    double Writes = Delta("spill", "writes");
    Check(Delta("spill", "disk_hits") == Attempted,
          "spill_revisit requests that were not disk restores");
    Check(std::abs(Writes - Attempted) <= std::max(1.0, 0.01 * Attempted),
          "spill writes differ from requests");
    break;
  }
  }

  const std::vector<double> &Lat = All.LatencyMs;
  double P50 = percentile(Lat, 50.0);
  double P99 = percentile(Lat, 99.0);
  std::printf("# %s: %llu attempted, %llu ok, %llu late, %llu shed, %zu "
              "latency samples (%zu beyond p99%s), %.2f s window\n",
              W.Name, static_cast<unsigned long long>(N.Attempted),
              static_cast<unsigned long long>(N.Ok),
              static_cast<unsigned long long>(N.Late),
              static_cast<unsigned long long>(N.Shed), Lat.size(),
              countAbove(Lat, P99),
              tailSupported(Lat, 99.0) ? "" : ": too few to support p99",
              Elapsed);

  auto &M = Result.Metrics;
  if (!O.Trace) {
    M["req_p50_ms"] = P50;
    M["req_p99_ms"] = P99;
    M["req_per_s"] = N.goodputPerSecond(Elapsed);
    M["ok_ratio"] = 1.0 - N.failRatio();
    M["server_cpu_ms_per_req"] = CpuMillis / static_cast<double>(Served);
    M["peak_rss_mb"] = median(PeakRss);
    M["setup_s"] = median(Setups);
    return Result;
  }

  M["net.rtt_minus_service_us"] = percentile(All.NetMicros, 50.0);
  M["net.protocol_errors"] = Delta("net", "protocol_errors");
  M["net.backpressure_closes"] = Delta("net", "backpressure_closes");
  M["service.p50_us"] = percentile(All.ServiceMicros, 50.0);
  M["service.shed_queue_full"] = Delta("requests", "shed_queue_full");
  M["service.shed_deadline"] = Delta("requests", "shed_deadline");
  M["service.shed_quota"] = Delta("requests", "shed_quota");
  M["unitcache.hit_ratio"] = Hits + Misses > 0 ? Hits / (Hits + Misses) : 0.0;
  M["unitcache.evictions"] = Delta("unit_cache", "evictions");
  M["unitcache.coalesced_waits"] = Delta("unit_cache", "coalesced_waits");
  const Statsz &Last = Runs.back().After;
  double Files = Last.get("spill", "files");
  M["spill.bytes_per_unit"] =
      Files > 0 ? Last.get("spill", "bytes") / Files : 0.0;
  M["spill.disk_hits"] = Delta("spill", "disk_hits");
  M["spill.writes"] = Delta("spill", "writes");
  M["loadgen.lag_p99_ms"] = LagP99;

  // The replay covers a prefix of connection 0's stream; compare its
  // attributed time with the untraced latency of those same requests.
  std::map<std::string, double> Layers;
  std::map<uint64_t, double> Attributed;
  double Budget = std::clamp(O.Seconds * 0.5, 3.0, 8.0);
  if (!replayTraced(W, T, O.WorkDir, Budget, Layers, Attributed, Error))
    return Fail("traced replay: " + Error);
  M.insert(Layers.begin(), Layers.end());
  std::vector<double> Untraced, Parts;
  for (auto [Id, Micros] : Attributed)
    if (const auto &ByItem = Runs.front().Conns.front().ByItem;
        Id < ByItem.size() && ByItem[Id] >= 0.0) {
      Untraced.push_back(ByItem[Id] * 1000.0);
      Parts.push_back(Micros);
    }
  M["trace.untraced_req_p50_us"] = percentile(Untraced, 50.0);
  M["trace.attributed_us"] = percentile(Parts, 50.0);
  M["trace.unattributed_us"] =
      M["trace.untraced_req_p50_us"] - M["trace.attributed_us"];
  return Result;
}

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

template <size_t N>
void printResult(const MetricDef (&Defs)[N], const RunResult &R,
                 const std::map<std::string, Quartiles> *Spread) {
  for (const MetricDef &D : Defs) {
    auto It = R.Metrics.find(D.Name);
    double V = It == R.Metrics.end() ? 0.0 : It->second;
    if (Spread) {
      const Quartiles &Q = Spread->at(D.Name);
      std::printf("%-34s %14.6f %-6s q1 %.6f q3 %.6f spread %.4f\n", D.Name,
                  Q.Median, D.Unit, Q.Q1, Q.Q3, Q.spread());
    } else {
      std::printf("%-34s %14.6f %s\n", D.Name, V, D.Unit);
    }
  }
  for (const std::string &P : R.Problems)
    std::printf("# problem: %s\n", P.c_str());
  std::string Json = "{\"correct\": " +
                     std::string(R.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(R.Attempted) +
                     ", \"failed\": " + std::to_string(R.Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I < N; ++I) {
    auto It = R.Metrics.find(Defs[I].Name);
    Json += std::string(I ? ", " : "") + "\"" + Defs[I].Name +
            "\": {\"value\": " +
            jsonNumber(It == R.Metrics.end() ? 0.0 : It->second) +
            ", \"unit\": \"" + Defs[I].Unit + "\"}";
  }
  std::printf("%s}}\n", Json.c_str());
  std::fflush(stdout);
}

void printDescription(unsigned RunSeconds) {
  std::printf("{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n"
              "  \"paths\": [\"perfbench\"],\n  \"run_seconds\": %u,\n"
              "  \"workloads\": [\n",
              RunSeconds);
  const auto &Ws = workloads();
  for (size_t I = 0; I < Ws.size(); ++I)
    std::printf("    {\"name\": \"%s\", \"why\": \"%s\"}%s\n", Ws[I].Name,
                Ws[I].Why, I + 1 < Ws.size() ? "," : "");
  std::printf("  ],\n  \"end_to_end\": [\n");
  size_t N = std::size(kEndToEnd);
  for (size_t I = 0; I < N; ++I)
    std::printf("    {\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\", "
                "\"bound\": %g}%s\n",
                kEndToEnd[I].Name, kEndToEnd[I].Unit, kEndToEnd[I].Better,
                kEndToEnd[I].Bound, I + 1 < N ? "," : "");
  std::printf("  ],\n  \"per_layer\": [\n");
  N = std::size(kPerLayer);
  for (size_t I = 0; I < N; ++I)
    std::printf("    {\"name\": \"%s\", \"unit\": \"%s\", \"better\": "
                "\"%s\"}%s\n",
                kPerLayer[I].Name, kPerLayer[I].Unit, kPerLayer[I].Better,
                I + 1 < N ? "," : "");
  std::printf("  ]\n}\n");
}

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--repeat N] [--dspec PATH] "
               "[--workdir DIR]\n       perfbench --describe\n",
               Why);
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + Arg).c_str());
      return Argv[++I];
    };
    if (Arg == "--workload")
      O.Workload = Value();
    else if (Arg == "--seed")
      O.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (Arg == "--seconds")
      O.Seconds = std::strtod(Value().c_str(), nullptr);
    else if (Arg == "--trace")
      O.Trace = Value() == "1";
    else if (Arg == "--repeat")
      O.Repeat =
          static_cast<unsigned>(std::strtoul(Value().c_str(), nullptr, 10));
    else if (Arg == "--dspec")
      O.Dspec = Value();
    else if (Arg == "--workdir")
      O.WorkDir = Value();
    else if (Arg == "--describe")
      O.Describe = true;
    else
      usage(("unknown argument " + Arg).c_str());
  }
  if (O.Describe) {
    printDescription(static_cast<unsigned>(O.Seconds));
    return 0;
  }
  const WorkloadDef *W = findWorkload(O.Workload);
  if (!W)
    usage(("unknown workload '" + O.Workload + "'").c_str());
  if (O.Seconds <= 0 || O.Repeat == 0)
    usage("--seconds and --repeat must be positive");
  if (::access(O.Dspec.c_str(), X_OK) != 0)
    usage(("no dspec executable at " + O.Dspec).c_str());

  // A wedged server must not wedge the benchmark: past the ceiling, kill
  // it (pending reads then fail and the run reports the failure).
  Watchdog Guard(std::chrono::seconds(kRunCeilingSeconds * O.Repeat));

  if (O.Repeat == 1) {
    RunResult R = runOnce(O, *W, O.Seed);
    if (O.Trace)
      printResult(kPerLayer, R, nullptr);
    else
      printResult(kEndToEnd, R, nullptr);
    return R.correct() ? 0 : 1;
  }

  // Steadiness mode: one run per seed, then each metric's quartiles.
  std::map<std::string, std::vector<double>> Values;
  RunResult Summary;
  for (unsigned I = 0; I < O.Repeat; ++I) {
    RunResult R = runOnce(O, *W, O.Seed + I);
    for (auto &[Name, V] : R.Metrics)
      Values[Name].push_back(V);
    Summary.Attempted += R.Attempted;
    Summary.Failed += R.Failed;
    Summary.Problems.insert(Summary.Problems.end(), R.Problems.begin(),
                            R.Problems.end());
  }
  std::map<std::string, Quartiles> Spread;
  for (auto &[Name, V] : Values) {
    Spread[Name] = quartiles(V);
    Summary.Metrics[Name] = Spread[Name].Median;
  }
  for (const MetricDef &D : kEndToEnd)
    Spread.try_emplace(D.Name);
  for (const MetricDef &D : kPerLayer)
    Spread.try_emplace(D.Name);
  if (O.Trace)
    printResult(kPerLayer, Summary, &Spread);
  else
    printResult(kEndToEnd, Summary, &Spread);
  return Summary.correct() ? 0 : 1;
}
