//===- tests/TestNetService.cpp - Event-loop front end tests ----------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the event-loop network front end (src/net/) and the
/// disk-spilling unit cache: TCP end-to-end bit-identity against the
/// plain pass, pipelined reply ordering, one plain reply for a request
/// carrying the retired variant and streaming fields, the slow-loris
/// read deadline, per-client quota shedding (and that a well-behaved
/// client is untouched by a greedy neighbor), spill/warm-restart disk
/// hits, and the spill store's write-behind queue.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "engine/RenderEngine.h"
#include "net/Acceptor.h"
#include "net/NetServer.h"
#include "service/Protocol.h"
#include "service/Service.h"
#include "service/SpillStore.h"
#include "service/Transport.h"
#include "shading/ShaderGallery.h"
#include "shading/ShaderLab.h"
#include "support/ByteStream.h"
#include "support/Crc32.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <utime.h>

using namespace dspec;

namespace {

/// Renders \p Info with the unspecialized original — the ground truth a
/// served reply must match bit-for-bit.
Framebuffer plainReference(const ShaderInfo &Info, unsigned Width,
                           unsigned Height,
                           const std::vector<float> &Controls) {
  auto Unit = parseUnit(Info.Source);
  EXPECT_TRUE(Unit->ok()) << Unit->Diags.str();
  auto Plain = compileFunction(*Unit, Info.Name);
  EXPECT_TRUE(Plain.has_value()) << Unit->Diags.str();
  RenderGrid Grid(Width, Height);
  RenderEngine Engine(1);
  Framebuffer Out(Width, Height);
  EXPECT_TRUE(Engine.plainPass(*Plain, Grid, Controls, &Out))
      << Engine.lastTrap();
  return Out;
}

::testing::AssertionResult bitIdentical(const Framebuffer &A,
                                        const Framebuffer &B) {
  if (A.width() != B.width() || A.height() != B.height())
    return ::testing::AssertionFailure() << "dimension mismatch";
  for (unsigned Y = 0; Y < A.height(); ++Y)
    for (unsigned X = 0; X < A.width(); ++X)
      if (std::memcmp(A.at(X, Y).F, B.at(X, Y).F, sizeof(A.at(X, Y).F)) != 0)
        return ::testing::AssertionFailure()
               << "pixel (" << X << "," << Y << ") differs";
  return ::testing::AssertionSuccess();
}

/// A service plus a NetServer listening on an ephemeral TCP port, torn
/// down in order (server first — it references the service).
struct TcpServer {
  explicit TcpServer(const ServiceConfig &ServiceCfg = {},
                     NetServerConfig NetCfg = {})
      : Service(ServiceCfg) {
    NetCfg.TcpHostPort = "127.0.0.1:0";
    Server = std::make_unique<NetServer>(Service, std::move(NetCfg));
    NetServer *Raw = Server.get();
    Service.setNetStatsProvider([Raw] { return Raw->statsJson(); });
    std::string Error;
    Started = Server->start(&Error);
    EXPECT_TRUE(Started) << Error;
  }

  ~TcpServer() {
    Server->shutdownServer();
    Service.drain();
  }

  std::unique_ptr<Transport> connect() {
    std::string Error;
    auto T = connectTcp("127.0.0.1", Server->boundTcpPort(), &Error);
    EXPECT_NE(T, nullptr) << Error;
    return T;
  }

  SpecializationService Service;
  std::unique_ptr<NetServer> Server;
  bool Started = false;
};

//===----------------------------------------------------------------------===//
// TCP end to end
//===----------------------------------------------------------------------===//

TEST(NetTcp, EndToEndMatchesPlainPassForEveryShader) {
  TcpServer S;
  ASSERT_TRUE(S.Started);
  auto Client = S.connect();
  ASSERT_NE(Client, nullptr);
  for (const ShaderInfo &Info : shaderGallery()) {
    RenderRequest Request;
    Request.Shader = Info.Name;
    Request.Width = 20;
    Request.Height = 12;
    std::string Error;
    auto Reply = requestRender(*Client, Request, &Error);
    ASSERT_TRUE(Reply.has_value()) << Info.Name << ": " << Error;
    ASSERT_TRUE(Reply->ok()) << Info.Name << ": " << Reply->Error;
    Framebuffer Reference =
        plainReference(Info, 20, 12, ShaderLab::defaultControls(Info));
    EXPECT_TRUE(bitIdentical(Reply->toFramebuffer(), Reference))
        << Info.Name;
  }
  EXPECT_EQ(S.Server->stats().Accepted, 1u);
}

TEST(NetTcp, StatszCarriesNetCounters) {
  TcpServer S;
  auto Client = S.connect();
  std::string Error;
  auto Json = requestStats(*Client, &Error);
  ASSERT_TRUE(Json.has_value()) << Error;
  EXPECT_NE(Json->find("\"net\""), std::string::npos);
  EXPECT_NE(Json->find("\"quota_sheds\""), std::string::npos);
}

TEST(NetTcp, PipelinedRepliesArriveInRequestOrder) {
  // Three different-width requests (three distinct cache keys, built by
  // concurrent dispatchers) written back to back before any reply is
  // read: the FIFO slot discipline must serialize replies in request
  // order no matter which build finishes first.
  ServiceConfig Cfg;
  Cfg.Dispatchers = 3;
  TcpServer S(Cfg);
  auto Client = S.connect();
  ASSERT_NE(Client, nullptr);

  const uint32_t Widths[] = {8, 12, 16};
  std::vector<unsigned char> Burst;
  for (uint32_t W : Widths) {
    RenderRequest Request;
    Request.Shader = "checker";
    Request.Width = W;
    Request.Height = 8;
    ByteWriter Payload;
    encodeRenderRequest(Payload, Request);
    std::vector<unsigned char> Frame =
        encodeFrame(FrameType::RenderRequest, Payload.bytes());
    Burst.insert(Burst.end(), Frame.begin(), Frame.end());
  }
  ASSERT_TRUE(Client->writeAll(Burst.data(), Burst.size()));

  for (uint32_t W : Widths) {
    FrameType Type;
    std::vector<unsigned char> Payload;
    std::string Error;
    ASSERT_TRUE(readFrame(*Client, Type, Payload, &Error)) << Error;
    ASSERT_EQ(Type, FrameType::RenderReply);
    RenderReply Reply;
    ByteReader R(Payload);
    ASSERT_TRUE(decodeRenderReply(R, Reply, &Error)) << Error;
    ASSERT_TRUE(Reply.ok()) << Reply.Error;
    EXPECT_EQ(Reply.Width, W); // request order, not completion order
  }
}

TEST(NetTcp, LegacyVariantAndStreamFieldsGetOnePlainReply) {
  // A request as an older client sent it: trailing u32 variant pins (4)
  // and u8 streaming flag (1), with the varying control at a pin value.
  // Both features are retired, so the server answers with exactly one
  // RenderReply, bit-identical to the plain pass; the next frame on the
  // connection is the stats reply asked for after it.
  TcpServer S;
  auto Client = S.connect();
  ASSERT_NE(Client, nullptr);
  const ShaderInfo *Info = findShader("marble");
  ASSERT_NE(Info, nullptr);
  RenderRequest Request;
  Request.Shader = "marble";
  Request.Width = 24;
  Request.Height = 16;
  Request.Controls = ShaderLab::defaultControls(*Info);
  Request.Controls[0] = 0.0f;
  ByteWriter Payload;
  encodeRenderRequest(Payload, Request);
  Payload.writeU32(4);
  Payload.writeU8(1);
  ASSERT_TRUE(writeFrame(*Client, FrameType::RenderRequest, Payload.bytes()));
  ASSERT_TRUE(writeFrame(*Client, FrameType::StatsRequest, {}));

  FrameType Type;
  std::vector<unsigned char> Bytes;
  std::string Error;
  ASSERT_TRUE(readFrame(*Client, Type, Bytes, &Error)) << Error;
  ASSERT_EQ(Type, FrameType::RenderReply);
  RenderReply Reply;
  ByteReader R(Bytes);
  ASSERT_TRUE(decodeRenderReply(R, Reply, &Error)) << Error;
  ASSERT_TRUE(Reply.ok()) << Reply.Error;
  EXPECT_TRUE(bitIdentical(Reply.toFramebuffer(),
                           plainReference(*Info, 24, 16, Request.Controls)));

  ASSERT_TRUE(readFrame(*Client, Type, Bytes, &Error)) << Error;
  ASSERT_EQ(Type, FrameType::StatsReply);
  std::string Json(Bytes.begin(), Bytes.end());
  EXPECT_EQ(Json.find("\"variants\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"protocol_errors\":0"), std::string::npos) << Json;
}

TEST(NetTcp, ProtocolViolationDropsOnlyThatConnection) {
  TcpServer S;
  auto Bad = S.connect();
  auto Good = S.connect();
  ASSERT_NE(Bad, nullptr);
  ASSERT_NE(Good, nullptr);

  // A reply frame from a client is nonsense; the server must close Bad.
  std::vector<unsigned char> Frame =
      encodeFrame(FrameType::RenderReply, {});
  ASSERT_TRUE(Bad->writeAll(Frame.data(), Frame.size()));
  unsigned char Byte;
  EXPECT_FALSE(Bad->readAll(&Byte, 1)); // EOF: connection closed

  // The other connection keeps working.
  RenderRequest Request;
  Request.Shader = "stripes";
  Request.Width = 8;
  Request.Height = 8;
  std::string Error;
  auto Reply = requestRender(*Good, Request, &Error);
  ASSERT_TRUE(Reply.has_value()) << Error;
  EXPECT_TRUE(Reply->ok()) << Reply->Error;
  EXPECT_GE(S.Server->stats().ProtocolErrors, 1u);
}

//===----------------------------------------------------------------------===//
// Fairness: slow-loris reaping and per-client quotas
//===----------------------------------------------------------------------===//

TEST(NetTcp, SlowLorisIsReapedWithoutDelayingOthers) {
  NetServerConfig Net;
  Net.ReadDeadlineMillis = 150;
  TcpServer S({}, Net);

  // The attacker sends half a frame header, then stalls.
  auto Loris = S.connect();
  ASSERT_NE(Loris, nullptr);
  std::vector<unsigned char> Full =
      encodeFrame(FrameType::StatsRequest, {});
  ASSERT_TRUE(Loris->writeAll(Full.data(), 8));

  // Meanwhile a well-behaved client gets served promptly.
  auto Polite = S.connect();
  ASSERT_NE(Polite, nullptr);
  RenderRequest Request;
  Request.Shader = "checker";
  Request.Width = 8;
  Request.Height = 8;
  std::string Error;
  auto Start = std::chrono::steady_clock::now();
  auto Reply = requestRender(*Polite, Request, &Error);
  ASSERT_TRUE(Reply.has_value()) << Error;
  EXPECT_TRUE(Reply->ok()) << Reply->Error;

  // The stalled connection is closed by the deadline sweep; readAll sees
  // EOF well before the polite client would notice anything.
  unsigned char Byte;
  EXPECT_FALSE(Loris->readAll(&Byte, 1));
  double Waited = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
  EXPECT_LT(Waited, 5.0);
  EXPECT_GE(S.Server->stats().DeadlineReaps, 1u);
}

TEST(NetTcp, QuotaShedsGreedyClientButNotItsNeighbor) {
  NetServerConfig Net;
  Net.QuotaRps = 0.5; // effectively: the burst and nothing more
  Net.QuotaBurst = 2.0;
  TcpServer S({}, Net);

  auto Greedy = S.connect();
  ASSERT_NE(Greedy, nullptr);
  RenderRequest Request;
  Request.Shader = "rings";
  Request.Width = 8;
  Request.Height = 8;

  unsigned Ok = 0, Shed = 0;
  for (unsigned I = 0; I < 6; ++I) {
    std::string Error;
    auto Reply = requestRender(*Greedy, Request, &Error);
    ASSERT_TRUE(Reply.has_value()) << Error;
    if (Reply->ok())
      ++Ok;
    else if (Reply->Status == RenderStatus::ShedQuota) {
      ++Shed;
      EXPECT_FALSE(Reply->Error.empty());
    }
  }
  EXPECT_EQ(Ok, 2u) << "the burst"; // bucket starts at QuotaBurst
  EXPECT_EQ(Shed, 4u);

  // A fresh, well-behaved connection has its own bucket: served, and
  // bit-identical to the plain pass despite the noisy neighbor.
  auto Polite = S.connect();
  ASSERT_NE(Polite, nullptr);
  std::string Error;
  auto Reply = requestRender(*Polite, Request, &Error);
  ASSERT_TRUE(Reply.has_value()) << Error;
  ASSERT_TRUE(Reply->ok()) << Reply->Error;
  const ShaderInfo *Info = findShader("rings");
  ASSERT_NE(Info, nullptr);
  Framebuffer Reference =
      plainReference(*Info, 8, 8, ShaderLab::defaultControls(*Info));
  EXPECT_TRUE(bitIdentical(Reply->toFramebuffer(), Reference));

  EXPECT_GE(S.Server->stats().QuotaSheds, 4u);
  EXPECT_GE(S.Service.statsz().ShedQuota, 4u);
}

//===----------------------------------------------------------------------===//
// Spill store: eviction to disk and warm restarts
//===----------------------------------------------------------------------===//

TEST(Spill, EvictedUnitWarmRestartsFromDiskBitIdentical) {
  std::string Dir = testing::TempDir() + "dspec_spill_warm";
  const ShaderInfo *Marble = findShader("marble");
  ASSERT_NE(Marble, nullptr);
  RenderRequest Request;
  Request.Shader = "marble";
  Request.Width = 16;
  Request.Height = 12;

  RenderReply Cold;
  {
    ServiceConfig Cfg;
    Cfg.CacheUnits = 1; // the second build evicts (and spills) the first
    Cfg.CacheShards = 1; // single shard: eviction order is deterministic
    Cfg.SpillDir = Dir;
    SpecializationService Service(Cfg);
    Cold = Service.render(Request);
    ASSERT_TRUE(Cold.ok()) << Cold.Error;
    RenderRequest Other;
    Other.Shader = "wood";
    Other.Width = 16;
    Other.Height = 12;
    ASSERT_TRUE(Service.render(Other).ok());
    Service.drain(); // lands the eviction's queued write
    MetricsSnapshot Stats = Service.statsz();
    EXPECT_TRUE(Stats.SpillEnabled);
    EXPECT_GE(Stats.SpillWrites, 1u) << "eviction did not spill";
    EXPECT_EQ(Stats.SpillErrors, 0u);
  }

  // A fresh process (new service, same directory): the first marble
  // request must be served from disk — no respecialization — and stay
  // bit-identical to the cold build.
  ServiceConfig Cfg;
  Cfg.SpillDir = Dir;
  SpecializationService Service(Cfg);
  RenderReply Warm = Service.render(Request);
  ASSERT_TRUE(Warm.ok()) << Warm.Error;
  EXPECT_TRUE(Warm.CacheHit) << "disk hit must read as a cache hit";
  MetricsSnapshot Stats = Service.statsz();
  EXPECT_EQ(Stats.SpillDiskHits, 1u);
  // A restore runs no loader: the reader rendered this reply, and the
  // fresh service's loader-frame count stays at zero.
  EXPECT_EQ(Stats.LoaderFrameReplies, 0u);
  EXPECT_TRUE(bitIdentical(Warm.toFramebuffer(), Cold.toFramebuffer()));
  Framebuffer Reference = plainReference(
      *Marble, 16, 12, ShaderLab::defaultControls(*Marble));
  EXPECT_TRUE(bitIdentical(Warm.toFramebuffer(), Reference));

  // Once loaded it lives in memory again: the next request is an
  // in-memory hit, not another disk read.
  ASSERT_TRUE(Service.render(Request).ok());
  Stats = Service.statsz();
  EXPECT_EQ(Stats.SpillDiskHits, 1u);
  EXPECT_GE(Stats.Cache.Hits, 1u);
}

TEST(Spill, ByteCapEvictsOldFilesButNeverTheLast) {
  std::string Dir = testing::TempDir() + "dspec_spill_cap";
  ServiceConfig Cfg;
  Cfg.CacheUnits = 1;
  Cfg.CacheShards = 1;
  Cfg.SpillDir = Dir;
  Cfg.SpillMaxBytes = 1; // absurdly small: every spill is over cap
  SpecializationService Service(Cfg);

  const char *Shaders[] = {"marble", "wood", "granite"};
  for (const char *Name : Shaders) {
    RenderRequest Request;
    Request.Shader = Name;
    Request.Width = 8;
    Request.Height = 8;
    ASSERT_TRUE(Service.render(Request).ok()) << Name;
  }
  Service.drain(); // lands the evictions' queued writes
  MetricsSnapshot Stats = Service.statsz();
  EXPECT_GE(Stats.SpillWrites, 2u);
  EXPECT_GE(Stats.SpillEvictedFiles, 1u);
  EXPECT_EQ(Stats.SpillFiles, 1u) << "cap must keep exactly the last file";
}

TEST(Spill, TcpServedWarmRestartCountsDiskHit) {
  // The acceptance path end to end: spill with one server, restart, and
  // serve the first TCP request of the new process from disk.
  std::string Dir = testing::TempDir() + "dspec_spill_tcp";
  RenderRequest Request;
  Request.Shader = "plastic";
  Request.Width = 16;
  Request.Height = 12;

  uint32_t ColdCrc = 0;
  {
    ServiceConfig Cfg;
    Cfg.CacheUnits = 1;
    Cfg.CacheShards = 1;
    Cfg.SpillDir = Dir;
    TcpServer S(Cfg);
    auto Client = S.connect();
    ASSERT_NE(Client, nullptr);
    std::string Error;
    auto Cold = requestRender(*Client, Request, &Error);
    ASSERT_TRUE(Cold.has_value()) << Error;
    ASSERT_TRUE(Cold->ok()) << Cold->Error;
    ColdCrc = pixelCrc(Cold->Pixels);
    RenderRequest Other;
    Other.Shader = "matte";
    Other.Width = 16;
    Other.Height = 12;
    auto Evictor = requestRender(*Client, Other, &Error);
    ASSERT_TRUE(Evictor.has_value()) << Error;
    ASSERT_TRUE(Evictor->ok()) << Evictor->Error;
  }

  ServiceConfig Cfg;
  Cfg.SpillDir = Dir;
  TcpServer S(Cfg);
  auto Client = S.connect();
  ASSERT_NE(Client, nullptr);
  std::string Error;
  auto Warm = requestRender(*Client, Request, &Error);
  ASSERT_TRUE(Warm.has_value()) << Error;
  ASSERT_TRUE(Warm->ok()) << Warm->Error;
  EXPECT_TRUE(Warm->CacheHit);
  EXPECT_EQ(pixelCrc(Warm->Pixels), ColdCrc);
  EXPECT_EQ(S.Service.statsz().SpillDiskHits, 1u);
}

//===----------------------------------------------------------------------===//
// Spill store eviction determinism (direct SpillStore tests)
//===----------------------------------------------------------------------===//

/// Builds one real unit (loader-filled arena included) the store can
/// spill under any key; small unless a size is given.
std::shared_ptr<SpecializationUnit> makeSpillUnit(const char *ShaderName,
                                                  unsigned Width = 4,
                                                  unsigned Height = 3) {
  const ShaderInfo *Info = findShader(ShaderName);
  EXPECT_NE(Info, nullptr);
  auto Ast = parseUnit(Info->Source);
  EXPECT_TRUE(Ast->ok()) << Ast->Diags.str();
  auto Spec =
      specializeAndCompile(*Ast, Info->Name, {Info->Controls[0].Name});
  EXPECT_TRUE(Spec.has_value());
  auto U = std::make_shared<SpecializationUnit>(Width, Height);
  U->Shader = Info->Name;
  U->Loader = Spec->LoaderChunk;
  U->Reader = Spec->ReaderChunk;
  U->Layout = Spec->Spec.Layout;
  U->Varying = {Info->Controls[0].Name};
  U->LoadControls = ShaderLab::defaultControls(*Info);
  RenderEngine Engine(1);
  EXPECT_TRUE(Engine.loaderPass(U->Loader, U->Layout, U->Grid,
                                U->LoadControls, U->Arena))
      << Engine.lastTrap();
  return U;
}

UnitKey keyWithHash(const char *Shader, uint64_t InvariantHash) {
  UnitKey K;
  K.Shader = Shader;
  K.InvariantHash = InvariantHash;
  return K;
}

/// A key whose invariant hash matches \p U's own inputs, so the store
/// serves the spilled file back; \p Fingerprint tells keys of one unit
/// apart.
UnitKey servableKey(const SpecializationUnit &U, uint64_t Fingerprint) {
  UnitKey K;
  K.Shader = U.Shader;
  K.InvariantHash = invariantHash(*findShader(U.Shader), U.Grid.width(),
                                  U.Grid.height(), U.Varying, U.LoadControls);
  K.OptionsFingerprint = Fingerprint;
  return K;
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

/// Empties a spill directory left over from a previous run so file and
/// eviction counts start from zero.
void clearSpillDir(const std::string &Dir) {
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name != "." && Name != "..")
        ::unlink((Dir + "/" + Name).c_str());
    }
    ::closedir(D);
  }
}

TEST(Spill, CapEvictionBreaksEqualMtimeTiesByFileName) {
  auto Unit = makeSpillUnit("marble");
  const UnitKey Keys[3] = {keyWithHash("marble", 1),
                           keyWithHash("marble", 2),
                           keyWithHash("marble", 3)};
  const std::string Dir = testing::TempDir() + "dspec_spill_tie";
  clearSpillDir(Dir);

  uint64_t OneFile = 0;
  std::vector<std::string> Paths;
  {
    SpillStore Store;
    std::string Error;
    ASSERT_TRUE(Store.open(Dir, /*MaxBytes=*/0, &Error)) << Error;
    for (const UnitKey &K : Keys) {
      Store.store(K, Unit);
      Paths.push_back(Store.pathFor(K));
    }
    ASSERT_EQ(Store.stats().Files, 3u);
    ASSERT_EQ(Store.stats().Errors, 0u);
    OneFile = Store.stats().Bytes / 3;
  }
  // Pin every file to one mtime. mtime ticks in whole seconds, so this is
  // exactly what a burst of spills produces — the LRU signal carries no
  // information and only the tie-break decides who dies.
  struct utimbuf Times;
  Times.actime = Times.modtime = 1700000000;
  for (const std::string &P : Paths)
    ASSERT_EQ(::utime(P.c_str(), &Times), 0) << P;

  // Reopen with room for one file: two evictions, all candidates tied.
  SpillStore Store;
  std::string Error;
  ASSERT_TRUE(Store.open(Dir, OneFile + OneFile / 2, &Error)) << Error;
  EXPECT_EQ(Store.stats().Files, 1u);
  EXPECT_EQ(Store.stats().EvictedFiles, 2u);

  // Deterministic victim order: ascending file name (the hex key hash),
  // so the lexicographically-largest file is the survivor — same answer
  // in every process that ever opens this directory.
  std::vector<std::string> Sorted = Paths;
  std::sort(Sorted.begin(), Sorted.end());
  EXPECT_FALSE(fileExists(Sorted[0])) << Sorted[0];
  EXPECT_FALSE(fileExists(Sorted[1])) << Sorted[1];
  EXPECT_TRUE(fileExists(Sorted[2])) << Sorted[2];
  clearSpillDir(Dir);
}

TEST(Spill, StoreNeverEvictsTheUnitJustWritten) {
  auto Unit = makeSpillUnit("wood");
  const std::string Dir = testing::TempDir() + "dspec_spill_fresh";
  clearSpillDir(Dir);
  SpillStore Store;
  std::string Error;
  ASSERT_TRUE(Store.open(Dir, /*MaxBytes=*/1, &Error)) << Error;

  // Adversarial key pair: the second store's file name sorts LOWER than
  // the first's, so a bare name-ordered tie-break would evict the file
  // being written. Both stores land within one mtime second.
  const UnitKey First = servableKey(*Unit, 0);
  UnitKey Second;
  bool Found = false;
  for (uint64_t H = 1; H < 64 && !Found; ++H) {
    Second = servableKey(*Unit, H);
    Found = Store.pathFor(Second) < Store.pathFor(First);
  }
  ASSERT_TRUE(Found) << "no lower-sorting key hash in 64 probes";

  Store.store(First, Unit);
  EXPECT_EQ(Store.stats().Files, 1u);
  EXPECT_EQ(Store.stats().EvictedFiles, 0u)
      << "a single over-cap file is never evicted";
  Store.store(Second, Unit);
  EXPECT_EQ(Store.stats().Files, 1u);
  EXPECT_EQ(Store.stats().EvictedFiles, 1u);
  EXPECT_TRUE(fileExists(Store.pathFor(Second)))
      << "the just-written unit must survive its own cap enforcement";
  EXPECT_FALSE(fileExists(Store.pathFor(First)));

  // And the survivor is genuinely servable.
  auto Back = Store.load(Second, &Error);
  ASSERT_NE(Back, nullptr) << Error;
  EXPECT_EQ(Back->Shader, "wood");
  clearSpillDir(Dir);
}

//===----------------------------------------------------------------------===//
// Write-behind: evicted units are written by the store's writer thread
//===----------------------------------------------------------------------===//

struct SpillDirCount {
  unsigned Snapshots = 0;
  /// Temp files of writes that have not been renamed into place.
  unsigned Temps = 0;
};

SpillDirCount countSpillDir(const std::string &Dir) {
  SpillDirCount Out;
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name.find(".tmp.") != std::string::npos)
        ++Out.Temps;
      else if (Name.size() > 5 &&
               Name.compare(Name.size() - 5, 5, ".dsnp") == 0)
        ++Out.Snapshots;
    }
    ::closedir(D);
  }
  return Out;
}

TEST(Spill, DrainWritesEveryQueuedEviction) {
  // A one-unit cache evicts, and so queues a write, on every new key.
  // drain() returns only once every write has landed: the counters, the
  // directory and the eviction count agree, and no temp file is left.
  const std::string Dir = testing::TempDir() + "dspec_spill_drain";
  clearSpillDir(Dir);
  const char *Shaders[] = {"marble", "wood",    "granite", "checker",
                           "stripes", "rings", "plastic"};
  ServiceConfig Cfg;
  Cfg.CacheUnits = 1;
  Cfg.CacheShards = 1;
  Cfg.SpillDir = Dir;
  SpecializationService Service(Cfg);
  for (const char *Name : Shaders) {
    RenderRequest Request;
    Request.Shader = Name;
    Request.Width = 160;
    Request.Height = 120;
    ASSERT_TRUE(Service.render(Request).ok()) << Name;
  }
  Service.drain();
  const uint64_t Evictions = std::size(Shaders) - 1;
  MetricsSnapshot Stats = Service.statsz();
  EXPECT_EQ(Stats.Cache.Evictions, Evictions);
  EXPECT_EQ(Stats.SpillWrites, Evictions);
  EXPECT_EQ(Stats.SpillFiles, Evictions);
  EXPECT_EQ(Stats.SpillPendingWrites, 0u);
  EXPECT_EQ(Stats.SpillLoadWaits, 0u);
  EXPECT_EQ(Stats.SpillErrors, 0u);
  SpillDirCount Count = countSpillDir(Dir);
  EXPECT_EQ(Count.Snapshots, Evictions);
  EXPECT_EQ(Count.Temps, 0u);
  clearSpillDir(Dir);
}

TEST(Spill, RestoreOfAQueuedKeyWaitsForItsWrite) {
  // Fill the queue with 160x120 units and restore the last one at once,
  // while its write is still outstanding. The restore waits for the
  // write and comes back from disk: a hit, never a miss.
  auto Unit = makeSpillUnit("marble", 160, 120);
  const std::string Dir = testing::TempDir() + "dspec_spill_queued_load";
  clearSpillDir(Dir);
  SpillStore Store;
  std::string Error;
  ASSERT_TRUE(Store.open(Dir, /*MaxBytes=*/0, &Error)) << Error;
  UnitKey Last;
  for (uint64_t F = 0; F < SpillStore::MaxQueuedWrites; ++F) {
    Last = servableKey(*Unit, F);
    Store.queueStore(Last, Unit);
  }
  auto Back = Store.load(Last, &Error);
  ASSERT_NE(Back, nullptr) << Error;
  ASSERT_EQ(Back->Arena.totalBytes(), Unit->Arena.totalBytes());
  EXPECT_EQ(std::memcmp(Back->Arena.raw(), Unit->Arena.raw(),
                        Unit->Arena.totalBytes()),
            0);
  SpillStore::Stats S = Store.stats();
  EXPECT_EQ(S.DiskHits, 1u);
  EXPECT_EQ(S.DiskMisses, 0u);
  EXPECT_EQ(S.Errors, 0u);
  // One wait, unless the writer landed all four files before load() ran.
  EXPECT_LE(S.LoadWaits, 1u);
  Store.flush();
  EXPECT_EQ(Store.stats().Writes, SpillStore::MaxQueuedWrites);
  clearSpillDir(Dir);
}

TEST(Spill, QueuedWritesStayWithinTheirBound) {
  // Three threads queue a burst of 160x120 units far faster than one
  // writer lands them. queueStore waits for room, so the queue never
  // holds more than MaxQueuedWrites, and every write lands.
  auto Unit = makeSpillUnit("marble", 160, 120);
  const std::string Dir = testing::TempDir() + "dspec_spill_bound";
  clearSpillDir(Dir);
  SpillStore Store;
  std::string Error;
  ASSERT_TRUE(Store.open(Dir, /*MaxBytes=*/0, &Error)) << Error;
  constexpr uint64_t Producers = 3, PerProducer = 4;
  std::atomic<uint64_t> Peak{0};
  std::vector<std::thread> Threads;
  for (uint64_t P = 0; P < Producers; ++P)
    Threads.emplace_back([&, P] {
      for (uint64_t I = 0; I < PerProducer; ++I) {
        Store.queueStore(servableKey(*Unit, P * PerProducer + I), Unit);
        uint64_t Now = Store.stats().PendingWrites;
        uint64_t Seen = Peak.load();
        while (Now > Seen && !Peak.compare_exchange_weak(Seen, Now)) {
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_LE(Peak.load(), SpillStore::MaxQueuedWrites);
  Store.flush();
  SpillStore::Stats S = Store.stats();
  EXPECT_EQ(S.PendingWrites, 0u);
  EXPECT_EQ(S.Writes, Producers * PerProducer);
  EXPECT_EQ(S.Files, Producers * PerProducer);
  EXPECT_EQ(S.Errors, 0u);
  EXPECT_EQ(countSpillDir(Dir).Snapshots, Producers * PerProducer);
  clearSpillDir(Dir);
}

TEST(Spill, OpenRemovesTempFilesOfDeadWriters) {
  // A writer killed between its temp write and the rename leaves
  // "<hash>.dsnp.tmp.<pid>" behind, which nothing would rename, count
  // against the cap, or delete. open() deletes it once its process is
  // gone, and leaves a live process's file alone.
  const std::string Dir = testing::TempDir() + "dspec_spill_orphans";
  clearSpillDir(Dir);
  ::mkdir(Dir.c_str(), 0755);
  pid_t Gone = ::fork();
  ASSERT_GE(Gone, 0);
  if (Gone == 0)
    ::_exit(0);
  ASSERT_EQ(::waitpid(Gone, nullptr, 0), Gone);
  const std::string Orphan =
      Dir + "/00000000000000aa.dsnp.tmp." + std::to_string(Gone);
  const std::string Live =
      Dir + "/00000000000000bb.dsnp.tmp." + std::to_string(::getpid());
  for (const std::string &Path : {Orphan, Live}) {
    std::FILE *F = std::fopen(Path.c_str(), "wb");
    ASSERT_NE(F, nullptr) << Path;
    std::fputs("half a snapshot", F);
    std::fclose(F);
  }

  SpillStore Store;
  std::string Error;
  ASSERT_TRUE(Store.open(Dir, /*MaxBytes=*/0, &Error)) << Error;
  EXPECT_FALSE(fileExists(Orphan)) << "a dead writer's temp file stayed";
  EXPECT_TRUE(fileExists(Live)) << "a live writer's temp file was deleted";
  EXPECT_EQ(Store.stats().Files, 0u);
  EXPECT_EQ(Store.stats().Bytes, 0u);
  clearSpillDir(Dir);
}

//===----------------------------------------------------------------------===//
// Spill restores verify the file against the key it was found under
//===----------------------------------------------------------------------===//

/// The key the service files \p R under: default options, and \p R's
/// own (canonical) varying set and controls.
UnitKey serviceKeyOf(const RenderRequest &R) {
  UnitKey K;
  K.Shader = R.Shader;
  K.InvariantHash = invariantHash(*findShader(R.Shader), R.Width, R.Height,
                                  R.Varying, R.Controls);
  K.OptionsFingerprint = optionsFingerprint(R.toOptions());
  return K;
}

RenderRequest marbleRequest(unsigned Width, unsigned Height) {
  const ShaderInfo *Marble = findShader("marble");
  RenderRequest R;
  R.Shader = "marble";
  R.Width = Width;
  R.Height = Height;
  R.Varying = {Marble->Controls[0].Name};
  R.Controls = ShaderLab::defaultControls(*Marble);
  return R;
}

/// Spills the unit built for \p Spilled through a one-unit service, then
/// files it under the name of \p Requested's key, as a colliding or
/// tampered directory would. The file's CRCs stay valid.
void spillUnderKeyOf(const std::string &Dir, const RenderRequest &Spilled,
                     const RenderRequest &Requested) {
  clearSpillDir(Dir);
  {
    ServiceConfig Cfg;
    Cfg.CacheUnits = 1;
    Cfg.CacheShards = 1;
    Cfg.SpillDir = Dir;
    SpecializationService Service(Cfg);
    RenderReply Reply = Service.render(Spilled);
    ASSERT_TRUE(Reply.ok()) << Reply.Error;
    RenderRequest Evictor;
    Evictor.Shader = "wood";
    Evictor.Width = 4;
    Evictor.Height = 3;
    ASSERT_TRUE(Service.render(Evictor).ok());
    Service.drain(); // lands the eviction's queued write
    ASSERT_EQ(Service.statsz().SpillWrites, 1u);
  }
  SpillStore Names;
  std::string Error;
  ASSERT_TRUE(Names.open(Dir, /*MaxBytes=*/0, &Error)) << Error;
  const std::string From = Names.pathFor(serviceKeyOf(Spilled));
  const std::string To = Names.pathFor(serviceKeyOf(Requested));
  ASSERT_TRUE(fileExists(From)) << "the service filed the unit elsewhere";
  ASSERT_EQ(::rename(From.c_str(), To.c_str()), 0) << To;
}

/// Serves \p R from a service over \p Dir and expects the spilled file
/// to be refused: one spill error, no disk hit, and a reply built afresh
/// that matches the plain render.
void expectRefusedAndRebuilt(const std::string &Dir, const RenderRequest &R) {
  ServiceConfig Cfg;
  Cfg.SpillDir = Dir;
  SpecializationService Service(Cfg);
  RenderReply Reply = Service.render(R);
  ASSERT_TRUE(Reply.ok()) << Reply.Error;
  EXPECT_TRUE(bitIdentical(
      Reply.toFramebuffer(),
      plainReference(*findShader(R.Shader), R.Width, R.Height, R.Controls)));
  MetricsSnapshot Stats = Service.statsz();
  EXPECT_EQ(Stats.SpillDiskHits, 0u);
  EXPECT_EQ(Stats.SpillErrors, 1u);
}

TEST(Spill, RestoreRefusesAUnitOfAnotherGridSize) {
  // A 64x48 unit under the 8x6 key would render 3072 pixels into the
  // 48-pixel reply framebuffer.
  const std::string Dir = testing::TempDir() + "dspec_spill_size";
  ASSERT_NO_FATAL_FAILURE(
      spillUnderKeyOf(Dir, marbleRequest(64, 48), marbleRequest(8, 6)));
  expectRefusedAndRebuilt(Dir, marbleRequest(8, 6));
  clearSpillDir(Dir);
}

TEST(Spill, RestoreRefusesAUnitOfAnotherFixedControl) {
  // Same size, but the cached invariants were computed from another
  // value of a fixed control: serving them would render the wrong image.
  const std::string Dir = testing::TempDir() + "dspec_spill_fixed";
  RenderRequest Requested = marbleRequest(16, 12);
  Requested.Controls[1] += 0.25f;
  ASSERT_NO_FATAL_FAILURE(
      spillUnderKeyOf(Dir, marbleRequest(16, 12), Requested));
  expectRefusedAndRebuilt(Dir, Requested);
  clearSpillDir(Dir);
}

TEST(Spill, RestoreRefusesAUnitWhoseChunksTakeOtherArguments) {
  // The unit's own file under its own key, rewritten so its loader and
  // reader each take one argument fewer than the four pixel inputs plus
  // marble's controls. CRCs and bytecode verify, but a restored unit
  // would trap on every request while it stayed cached.
  const std::string Dir = testing::TempDir() + "dspec_spill_signature";
  const RenderRequest Request = marbleRequest(8, 6);
  ASSERT_NO_FATAL_FAILURE(spillUnderKeyOf(Dir, Request, Request));
  SpillStore Names;
  std::string Error;
  ASSERT_TRUE(Names.open(Dir, /*MaxBytes=*/0, &Error)) << Error;
  const std::string Path = Names.pathFor(serviceKeyOf(Request));
  SpecializationSnapshot Snap;
  ASSERT_TRUE(readSnapshotFile(Path, Snap, &Error)) << Error;
  --Snap.Loader.NumParams;
  --Snap.Reader.NumParams;
  ASSERT_TRUE(writeSnapshotFile(
      Path,
      {Snap.Meta, Snap.Loader, Snap.Reader, Snap.Layout, Snap.ArenaPixels,
       Snap.ArenaStride, Snap.ArenaBytes.data(), Snap.ArenaBytes.size()},
      &Error))
      << Error;
  expectRefusedAndRebuilt(Dir, Request);
  clearSpillDir(Dir);
}

} // namespace
