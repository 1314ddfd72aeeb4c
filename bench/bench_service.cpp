//===- bench/bench_service.cpp - Service cold/hit latency and shedding -------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the specialization service end to end over the loopback
/// transport — the full client path of frame encode, CRC, dispatch,
/// unit-cache resolution, tiled reader render, and reply decode:
///
///   cold    first request for a key: pays parse + specialize + compile
///           + loader pass before the reader frame;
///   hit     subsequent frames against the cached unit (varying-control
///           value changes per frame, so these are genuine re-renders,
///           not response memoization).
///
/// The cold/hit gap is the paper's specialization cost amortized behind a
/// server cache: hits should be several times cheaper at p50. A second
/// phase bursts requests into a deliberately tiny queue to demonstrate
/// load shedding (the run fails if nothing is shed — admission control
/// that never triggers is untested code).
///
/// Two more phases exercise the event-loop TCP front end (src/net/):
///
///   open-loop load   32 concurrent TCP clients sending at a fixed
///                    arrival rate regardless of replies, measuring
///                    sustained qps and client-observed p50/p95/p99
///                    (the run fails if p99 blows the request deadline);
///   hot vs fair      a victim's p99 with a quota-throttled hot
///                    neighbor blasting the same server must stay
///                    within 2x of its solo p99 — per-client fairness
///                    measured, not asserted.
///
/// Emits BENCH_service.json.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "net/NetServer.h"
#include "service/Protocol.h"
#include "service/Service.h"
#include "service/Transport.h"

#include <benchmark/benchmark.h>

#include <atomic>
#include <future>
#include <thread>

using namespace dspec;
using namespace dspec::bench;

namespace {

struct ServiceRow {
  std::string Shader;
  double ColdSeconds = 0.0; // single cold sample (one miss per key)
  std::vector<double> HitSeconds;
};

/// One full client round trip; aborts on transport or render failure.
double timedRoundTrip(Transport &Client, const RenderRequest &Request) {
  auto Start = std::chrono::steady_clock::now();
  std::string Error;
  auto Reply = requestRender(Client, Request, &Error);
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  if (!Reply || !Reply->ok()) {
    std::fprintf(stderr, "!! %s: %s\n", Request.Shader.c_str(),
                 Reply ? Reply->Error.c_str() : Error.c_str());
    std::abort();
  }
  return Seconds;
}

void runColdVsHit(BenchJson &Json) {
  banner("Service latency: cold (specialize on miss) vs unit-cache hit",
         "a server-side unit cache amortizes specialization across "
         "requests the way staging amortizes it across frames");

  const unsigned W = benchWidth(), H = benchHeight();
  const unsigned Frames = std::max(benchFrames() * 4u, 20u);

  ServiceConfig Config;
  Config.RenderThreads = 1;
  SpecializationService Service(Config);
  auto [Client, ServerEnd] = makeLoopbackPair();
  std::thread Server(
      [&ServerEnd, &Service] { serveConnection(*ServerEnd, Service); });

  std::vector<ServiceRow> Rows;
  std::vector<double> AllHits;
  std::vector<double> AllColds;
  for (const ShaderInfo &Info : shaderGallery()) {
    ServiceRow Row;
    Row.Shader = Info.Name;
    RenderRequest Request;
    Request.Shader = Info.Name;
    Request.Width = W;
    Request.Height = H;
    Request.Controls = ShaderLab::defaultControls(Info);

    Row.ColdSeconds = timedRoundTrip(*Client, Request);
    AllColds.push_back(Row.ColdSeconds);

    const ControlParam &Sweep = Info.Controls.front();
    for (unsigned F = 0; F < Frames; ++F) {
      // A new varying-control value each frame: every hit is a fresh
      // reader render against the cached arena.
      Request.Controls[0] =
          Sweep.SweepMin + (Sweep.SweepMax - Sweep.SweepMin) *
                               static_cast<float>(F) /
                               static_cast<float>(Frames);
      Row.HitSeconds.push_back(timedRoundTrip(*Client, Request));
    }
    AllHits.insert(AllHits.end(), Row.HitSeconds.begin(),
                   Row.HitSeconds.end());
    Rows.push_back(std::move(Row));
  }

  MetricsSnapshot Stats = Service.statsz();
  Client->shutdown();
  Server.join();

  std::printf("%ux%u pixels, 1 cold + %u hit frames per shader:\n\n", W, H,
              Frames);
  std::printf("%-12s %10s %10s %10s %10s %8s\n", "shader", "cold ms",
              "hit p50", "hit p95", "hit p99", "gap");
  char Row[320];
  for (const ServiceRow &R : Rows) {
    double HitP50 = p50(R.HitSeconds);
    std::printf("%-12s %10.3f %10.3f %10.3f %10.3f %7.1fx\n",
                R.Shader.c_str(), R.ColdSeconds * 1e3, HitP50 * 1e3,
                p95(R.HitSeconds) * 1e3, p99(R.HitSeconds) * 1e3,
                R.ColdSeconds / HitP50);
    std::snprintf(Row, sizeof(Row),
                  "{\"shader\":%s,\"cold_seconds\":%.9f,%s,"
                  "\"cold_over_hit_p50\":%.3f}",
                  jsonQuote(R.Shader).c_str(), R.ColdSeconds,
                  latencyPercentilesJson(R.HitSeconds).c_str(),
                  R.ColdSeconds / p50(R.HitSeconds));
    Json.addRow(Row);
  }

  double ColdP50 = p50(AllColds), HitP50 = p50(AllHits);
  std::printf("\ngallery p50: cold %.3f ms, hit %.3f ms => %.1fx; cache "
              "%llu hit / %llu miss\n",
              ColdP50 * 1e3, HitP50 * 1e3, ColdP50 / HitP50,
              static_cast<unsigned long long>(Stats.Cache.Hits),
              static_cast<unsigned long long>(Stats.Cache.Misses));
  Json.config("cold_p50_seconds", std::to_string(ColdP50));
  Json.config("hit_p50_seconds", std::to_string(HitP50));
  Json.config("cold_over_hit_p50",
              std::to_string(HitP50 > 0 ? ColdP50 / HitP50 : 0.0));

  if (Stats.Cache.Misses != shaderGallery().size() ||
      Stats.Cache.Hits !=
          static_cast<uint64_t>(shaderGallery().size()) * Frames) {
    std::fprintf(stderr, "!! unexpected cache traffic: every shader should "
                         "miss once then hit\n");
    std::exit(1);
  }
}

void runOverloadShed(BenchJson &Json) {
  banner("Service load shedding under a forced overload burst",
         "admission control: a bounded queue rejects with a reason "
         "instead of growing without bound");

  // A tiny queue and no batching, so a burst must overflow while the
  // dispatcher is busy with the first (cold, ms-scale) build.
  ServiceConfig Config;
  Config.QueueCapacity = 4;
  Config.MaxBatch = 1;
  Config.Dispatchers = 1;
  SpecializationService Service(Config);

  constexpr unsigned Burst = 200;
  RenderRequest Request;
  Request.Shader = "rings";
  Request.Width = benchWidth();
  Request.Height = benchHeight();
  std::vector<std::future<RenderReply>> Futures;
  Futures.reserve(Burst);
  for (unsigned I = 0; I < Burst; ++I)
    Futures.push_back(Service.submit(Request));

  unsigned Ok = 0, Shed = 0, Other = 0;
  for (std::future<RenderReply> &F : Futures) {
    RenderReply Reply = F.get();
    if (Reply.ok())
      ++Ok;
    else if (Reply.Status == RenderStatus::ShedQueueFull)
      ++Shed;
    else
      ++Other;
  }
  MetricsSnapshot Stats = Service.statsz();

  std::printf("burst of %u same-key requests into a %u-deep queue: %u "
              "rendered, %u shed, %u other\n",
              Burst, Config.QueueCapacity, Ok, Shed, Other);
  Json.configUnsigned("overload_burst", Burst);
  Json.configUnsigned("overload_queue_capacity", Config.QueueCapacity);
  Json.configUnsigned("overload_rendered", Ok);
  Json.configUnsigned("overload_shed", Shed);

  if (Shed == 0 || Other != 0 ||
      Stats.ShedQueueFull != Shed) {
    std::fprintf(stderr,
                 "!! expected a nonzero shed count under overload "
                 "(shed=%u other=%u statsz=%llu)\n",
                 Shed, Other,
                 static_cast<unsigned long long>(Stats.ShedQueueFull));
    std::exit(1);
  }
}

//===----------------------------------------------------------------------===//
// TCP open-loop load and fairness
//===----------------------------------------------------------------------===//

/// A service plus a NetServer on an ephemeral TCP port.
struct TcpBenchServer {
  explicit TcpBenchServer(const ServiceConfig &ServiceCfg,
                          NetServerConfig NetCfg)
      : Service(ServiceCfg) {
    NetCfg.TcpHostPort = "127.0.0.1:0";
    Server = std::make_unique<NetServer>(Service, std::move(NetCfg));
    std::string Error;
    if (!Server->start(&Error)) {
      std::fprintf(stderr, "!! cannot start TCP server: %s\n", Error.c_str());
      std::abort();
    }
  }
  ~TcpBenchServer() {
    Server->shutdownServer();
    Service.drain();
  }
  std::unique_ptr<Transport> connect() {
    std::string Error;
    auto T = connectTcp("127.0.0.1", Server->boundTcpPort(), &Error);
    if (!T) {
      std::fprintf(stderr, "!! connect: %s\n", Error.c_str());
      std::abort();
    }
    return T;
  }
  SpecializationService Service;
  std::unique_ptr<NetServer> Server;
};

struct LoadClientResult {
  std::vector<double> LatSeconds;
  unsigned Ok = 0, Shed = 0, Other = 0;
};

/// One open-loop client: the sender paces requests on the arrival
/// schedule no matter how fast replies come back (so server-side queueing
/// shows up as client latency, not a slower offered load); the receiver
/// matches replies to send timestamps — valid because the front end
/// serializes replies in strict request order per connection.
void runOpenLoopClient(Transport &T, const RenderRequest &Request,
                       unsigned Count, double Rate,
                       std::chrono::steady_clock::time_point Epoch,
                       LoadClientResult &Out) {
  ByteWriter Payload;
  encodeRenderRequest(Payload, Request);
  std::vector<unsigned char> Frame =
      encodeFrame(FrameType::RenderRequest, Payload.bytes());

  std::vector<std::atomic<uint64_t>> SentNanos(Count);
  std::thread Receiver([&] {
    for (unsigned N = 0; N < Count; ++N) {
      FrameType Type;
      std::vector<unsigned char> Reply;
      std::string Error;
      if (!readFrame(T, Type, Reply, &Error) ||
          Type != FrameType::RenderReply) {
        ++Out.Other;
        continue;
      }
      double Now = std::chrono::duration<double, std::nano>(
                       std::chrono::steady_clock::now().time_since_epoch())
                       .count();
      Out.LatSeconds.push_back(
          (Now - static_cast<double>(SentNanos[N].load())) * 1e-9);
      RenderReply Decoded;
      ByteReader R(Reply);
      if (!decodeRenderReply(R, Decoded, &Error))
        ++Out.Other;
      else if (Decoded.ok())
        ++Out.Ok;
      else if (Decoded.Status == RenderStatus::ShedQuota ||
               Decoded.Status == RenderStatus::ShedQueueFull ||
               Decoded.Status == RenderStatus::ShedDeadline)
        ++Out.Shed;
      else
        ++Out.Other;
    }
  });

  for (unsigned N = 0; N < Count; ++N) {
    std::this_thread::sleep_until(
        Epoch + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(N / Rate)));
    SentNanos[N].store(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count()));
    if (!T.writeAll(Frame.data(), Frame.size()))
      break;
  }
  Receiver.join();
}

void runTcpOpenLoopLoad(BenchJson &Json) {
  banner("Open-loop TCP load: 32 concurrent clients at a fixed arrival rate",
         "the event-loop front end multiplexes every connection on a few "
         "IO threads; client-observed tail latency is the contract");

  constexpr unsigned Clients = 32;
  constexpr double RatePerClient = 40.0; // 1280 qps offered
  constexpr unsigned PerClient = 80;     // ~2 s of traffic
  constexpr uint32_t DeadlineMillis = 500;

  ServiceConfig Cfg;
  NetServerConfig Net;
  Net.IoThreads = 2;
  TcpBenchServer S(Cfg, Net);

  RenderRequest Request;
  Request.Shader = "plastic";
  Request.Width = benchWidth();
  Request.Height = benchHeight();
  Request.DeadlineMillis = DeadlineMillis;

  { // Warm the unit, so the load phase measures hits, not one odd build.
    auto Warm = S.connect();
    std::string Error;
    if (!requestRender(*Warm, Request, &Error))
      std::abort();
  }

  std::vector<LoadClientResult> Results(Clients);
  std::vector<std::unique_ptr<Transport>> Conns;
  for (unsigned I = 0; I < Clients; ++I)
    Conns.push_back(S.connect());

  auto Epoch = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(100);
  auto Start = std::chrono::steady_clock::now();
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < Clients; ++I)
    Threads.emplace_back([&, I] {
      runOpenLoopClient(*Conns[I], Request, PerClient, RatePerClient, Epoch,
                        Results[I]);
    });
  for (std::thread &T : Threads)
    T.join();
  double Elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();

  std::vector<double> All;
  unsigned Ok = 0, Shed = 0, Other = 0;
  for (const LoadClientResult &R : Results) {
    All.insert(All.end(), R.LatSeconds.begin(), R.LatSeconds.end());
    Ok += R.Ok;
    Shed += R.Shed;
    Other += R.Other;
  }
  unsigned Total = Clients * PerClient;
  double Qps = static_cast<double>(Ok + Shed) / Elapsed;
  double ShedRate = static_cast<double>(Shed) / Total;

  std::printf("%u clients x %u requests at %.0f rps each (offered %.0f "
              "qps):\n  sustained %.0f qps, latency p50 %.3f ms, p95 %.3f "
              "ms, p99 %.3f ms, shed %.1f%%, other %u\n",
              Clients, PerClient, RatePerClient, Clients * RatePerClient,
              Qps, p50(All) * 1e3, p95(All) * 1e3, p99(All) * 1e3,
              ShedRate * 100.0, Other);

  Json.configUnsigned("tcp_load_clients", Clients);
  Json.configUnsigned("tcp_load_requests", Total);
  Json.config("tcp_load_offered_qps",
              std::to_string(Clients * RatePerClient));
  Json.config("tcp_load_sustained_qps", std::to_string(Qps));
  Json.config("tcp_load_p50_seconds", std::to_string(p50(All)));
  Json.config("tcp_load_p95_seconds", std::to_string(p95(All)));
  Json.config("tcp_load_p99_seconds", std::to_string(p99(All)));
  Json.config("tcp_load_shed_rate", std::to_string(ShedRate));

  if (Other != 0 || All.empty() ||
      p99(All) >= static_cast<double>(DeadlineMillis) / 1e3) {
    std::fprintf(stderr,
                 "!! open-loop load failed its contract: p99 %.3f ms vs "
                 "%u ms deadline, %u undecodable replies\n",
                 p99(All) * 1e3, DeadlineMillis, Other);
    std::exit(1);
  }
}

void runHotVsFair(BenchJson &Json) {
  banner("Fairness: victim p99 beside a quota-throttled hot client",
         "per-connection token buckets shed the greedy client's excess "
         "with a structured reply instead of taxing its neighbors");

  constexpr unsigned VictimRequests = 60;
  constexpr unsigned HotRequests = 4000;

  ServiceConfig Cfg;
  NetServerConfig Net;
  Net.IoThreads = 2;
  Net.QuotaRps = 50.0; // the hot client's blast is mostly shed
  Net.QuotaBurst = 8.0;
  TcpBenchServer S(Cfg, Net);

  RenderRequest Request;
  Request.Shader = "rings";
  Request.Width = benchWidth();
  Request.Height = benchHeight();

  { // warm
    auto Warm = S.connect();
    std::string Error;
    if (!requestRender(*Warm, Request, &Error))
      std::abort();
  }

  // The victim runs closed-loop at a modest pace that stays inside its
  // own bucket, so every one of its requests is rendered, never shed.
  auto RunVictim = [&]() {
    auto Conn = S.connect();
    std::vector<double> Lat;
    for (unsigned N = 0; N < VictimRequests; ++N) {
      std::this_thread::sleep_for(std::chrono::milliseconds(21));
      auto T0 = std::chrono::steady_clock::now();
      std::string Error;
      auto Reply = requestRender(*Conn, Request, &Error);
      Lat.push_back(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - T0)
                        .count());
      if (!Reply || !Reply->ok()) {
        std::fprintf(stderr, "!! victim request failed: %s\n",
                     Reply ? Reply->Error.c_str() : Error.c_str());
        std::exit(1);
      }
    }
    return Lat;
  };

  std::vector<double> Solo = RunVictim();

  // Same measurement with a hot neighbor pipelining a blast of requests
  // as fast as the socket accepts them; the quota sheds almost all.
  std::atomic<bool> HotDone{false};
  std::thread Hot([&] {
    auto Conn = S.connect();
    ByteWriter Payload;
    encodeRenderRequest(Payload, Request);
    std::vector<unsigned char> Frame =
        encodeFrame(FrameType::RenderRequest, Payload.bytes());
    std::thread Drain([&] {
      for (unsigned N = 0; N < HotRequests; ++N) {
        FrameType Type;
        std::vector<unsigned char> Reply;
        std::string Error;
        if (!readFrame(*Conn, Type, Reply, &Error))
          break;
      }
    });
    for (unsigned N = 0; N < HotRequests; ++N)
      if (!Conn->writeAll(Frame.data(), Frame.size()))
        break;
    Drain.join();
    HotDone.store(true);
  });
  std::vector<double> Beside = RunVictim();
  Hot.join();

  NetServerStats NetStats = S.Server->stats();
  double SoloP99 = p99(Solo), BesideP99 = p99(Beside);
  // Sub-millisecond p99s wobble with scheduler noise; the fairness claim
  // is judged against a 2 ms floor so the ratio measures interference,
  // not that wobble.
  double Ratio = BesideP99 / std::max(SoloP99, 0.002);
  std::printf("victim p99 solo %.3f ms, beside hot client %.3f ms "
              "(%.2fx; hot client shed %llu of %u)\n",
              SoloP99 * 1e3, BesideP99 * 1e3, Ratio,
              static_cast<unsigned long long>(NetStats.QuotaSheds),
              HotRequests);

  Json.config("fair_victim_solo_p99_seconds", std::to_string(SoloP99));
  Json.config("fair_victim_hot_p99_seconds", std::to_string(BesideP99));
  Json.config("fair_victim_p99_ratio", std::to_string(Ratio));
  Json.configUnsigned("fair_hot_shed",
                      static_cast<unsigned>(NetStats.QuotaSheds));

  if (NetStats.QuotaSheds == 0 || Ratio > 2.0) {
    std::fprintf(stderr,
                 "!! fairness violated: victim p99 ratio %.2fx (limit "
                 "2.0x), hot sheds %llu\n",
                 Ratio,
                 static_cast<unsigned long long>(NetStats.QuotaSheds));
    std::exit(1);
  }
}

// Micro-benchmark: one hit round trip through the full framed protocol.
void BM_ServiceHitRoundTrip(benchmark::State &State) {
  SpecializationService Service;
  auto [Client, ServerEnd] = makeLoopbackPair();
  std::thread Server(
      [&ServerEnd, &Service] { serveConnection(*ServerEnd, Service); });
  RenderRequest Request;
  Request.Shader = "plastic";
  Request.Width = benchWidth();
  Request.Height = benchHeight();
  std::string Error;
  if (!requestRender(*Client, Request, &Error)) // warm the cache
    std::abort();
  for (auto _ : State) {
    auto Reply = requestRender(*Client, Request, &Error);
    benchmark::DoNotOptimize(Reply);
  }
  Client->shutdown();
  Server.join();
}
BENCHMARK(BM_ServiceHitRoundTrip)->Unit(benchmark::kMicrosecond);

} // namespace

int main(int argc, char **argv) {
  const char *OutPath = takeOutPathArg(&argc, argv);
  BenchJson Json("service");
  Json.configUnsigned("width", benchWidth());
  Json.configUnsigned("height", benchHeight());
  runColdVsHit(Json);
  runOverloadShed(Json);
  runTcpOpenLoopLoad(Json);
  runHotVsFair(Json);
  if (!Json.emit(OutPath ? OutPath : "BENCH_service.json"))
    return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
