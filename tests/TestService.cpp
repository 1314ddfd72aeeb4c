//===- tests/TestService.cpp - Specialization service tests -----------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests of the specialization service: the framed protocol
/// over the loopback transport, the bit-identity of served frames against
/// the unspecialized plain pass (the paper's equivalence guarantee,
/// through the whole server), load shedding, and graceful drain.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "engine/RenderEngine.h"
#include "service/Protocol.h"
#include "service/Service.h"
#include "service/Transport.h"
#include "shading/ShaderGallery.h"
#include "shading/ShaderLab.h"
#include "support/ByteStream.h"

#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <thread>
#include <vector>

using namespace dspec;

namespace {

/// Renders \p Info with the unspecialized original — the ground truth a
/// service reply must match bit-for-bit.
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

//===----------------------------------------------------------------------===//
// Protocol serde and framing
//===----------------------------------------------------------------------===//

TEST(ServiceProtocol, RenderRequestRoundTrips) {
  RenderRequest In;
  In.Shader = "wood";
  In.Width = 17;
  In.Height = 9;
  In.Varying = {"grain", "ringscale"};
  In.Controls = {1.0f, 2.5f, -3.25f};
  In.DeadlineMillis = 250;
  In.JoinNormalize = false;
  In.Reassociate = true;
  In.Speculation = true;
  In.CacheByteLimit = 24;

  ByteWriter W;
  encodeRenderRequest(W, In);
  ByteReader R(W.bytes());
  RenderRequest Out;
  std::string Error;
  ASSERT_TRUE(decodeRenderRequest(R, Out, &Error)) << Error;
  EXPECT_EQ(Out.Shader, In.Shader);
  EXPECT_EQ(Out.Width, In.Width);
  EXPECT_EQ(Out.Height, In.Height);
  EXPECT_EQ(Out.Varying, In.Varying);
  ASSERT_EQ(Out.Controls.size(), In.Controls.size());
  for (size_t I = 0; I < In.Controls.size(); ++I)
    EXPECT_EQ(std::memcmp(&Out.Controls[I], &In.Controls[I], 4), 0);
  EXPECT_EQ(Out.DeadlineMillis, In.DeadlineMillis);
  EXPECT_EQ(Out.JoinNormalize, In.JoinNormalize);
  EXPECT_EQ(Out.Reassociate, In.Reassociate);
  EXPECT_EQ(Out.Speculation, In.Speculation);
  EXPECT_EQ(Out.CacheByteLimit, In.CacheByteLimit);
}

TEST(ServiceProtocol, RenderReplyRoundTripsBitExactPixels) {
  RenderReply In;
  In.Status = RenderStatus::Ok;
  In.Width = 2;
  In.Height = 1;
  // Include values whose bit patterns round-trips must preserve exactly.
  In.Pixels = {0.1f, -0.0f, 1e-38f, 3.0f, 0.25f, 1234.5f};
  In.CacheHit = true;
  In.ServiceMicros = 98765;

  ByteWriter W;
  encodeRenderReply(W, In);
  ByteReader R(W.bytes());
  RenderReply Out;
  std::string Error;
  ASSERT_TRUE(decodeRenderReply(R, Out, &Error)) << Error;
  EXPECT_EQ(Out.Status, In.Status);
  EXPECT_EQ(Out.Width, In.Width);
  EXPECT_EQ(Out.Height, In.Height);
  ASSERT_EQ(Out.Pixels.size(), In.Pixels.size());
  EXPECT_EQ(std::memcmp(Out.Pixels.data(), In.Pixels.data(),
                        In.Pixels.size() * sizeof(float)),
            0);
  EXPECT_EQ(Out.CacheHit, In.CacheHit);
  EXPECT_EQ(Out.ServiceMicros, In.ServiceMicros);
}

TEST(ServiceProtocol, FrameRejectsCorruption) {
  auto [ClientEnd, ServerEnd] = makeLoopbackPair();
  std::vector<unsigned char> Payload = {1, 2, 3, 4};

  // Flipping one payload byte after framing must fail the CRC check.
  std::vector<unsigned char> Frame =
      encodeFrame(FrameType::StatsRequest, Payload);
  Frame.back() ^= 0xff;
  ASSERT_TRUE(ClientEnd->writeAll(Frame.data(), Frame.size()));

  FrameType Type;
  std::vector<unsigned char> Got;
  std::string Error;
  EXPECT_FALSE(readFrame(*ServerEnd, Type, Got, &Error));
  EXPECT_NE(Error.find("CRC"), std::string::npos) << Error;

  // Bad magic.
  auto [C2, S2] = makeLoopbackPair();
  Frame = encodeFrame(FrameType::StatsRequest, Payload);
  Frame[0] ^= 0xff;
  ASSERT_TRUE(C2->writeAll(Frame.data(), Frame.size()));
  Error.clear();
  EXPECT_FALSE(readFrame(*S2, Type, Got, &Error));
  EXPECT_FALSE(Error.empty());

  // Clean EOF: shutdown with no bytes leaves Error empty.
  auto [C3, S3] = makeLoopbackPair();
  C3->shutdown();
  Error = "sentinel";
  EXPECT_FALSE(readFrame(*S3, Type, Got, &Error));
  EXPECT_TRUE(Error.empty());
}

//===----------------------------------------------------------------------===//
// Service request handling
//===----------------------------------------------------------------------===//

TEST(Service, RejectsMalformedRequests) {
  ServiceConfig Config;
  Config.MaxPixels = 1u << 16;
  SpecializationService Service(Config);

  RenderRequest Request;
  Request.Shader = "no-such-shader";
  EXPECT_EQ(Service.render(Request).Status, RenderStatus::BadRequest);

  Request.Shader = "plastic";
  Request.Width = 0;
  EXPECT_EQ(Service.render(Request).Status, RenderStatus::BadRequest);

  Request.Width = 512;
  Request.Height = 512; // 256k pixels > the configured 64k ceiling
  EXPECT_EQ(Service.render(Request).Status, RenderStatus::BadRequest);

  Request.Width = 8;
  Request.Height = 8;
  Request.Varying = {"no-such-control"};
  EXPECT_EQ(Service.render(Request).Status, RenderStatus::BadRequest);

  Request.Varying.clear();
  Request.Controls = {1.0f}; // plastic takes more controls than this
  EXPECT_EQ(Service.render(Request).Status, RenderStatus::BadRequest);

  MetricsSnapshot Stats = Service.statsz();
  EXPECT_EQ(Stats.BadRequests, 5u);
  EXPECT_EQ(Stats.RequestsTotal, 5u);
}

TEST(Service, MatchesPlainPassForEveryShader) {
  SpecializationService Service;
  for (const ShaderInfo &Info : shaderGallery()) {
    RenderRequest Request;
    Request.Shader = Info.Name;
    Request.Width = 24;
    Request.Height = 16;
    RenderReply Reply = Service.render(Request);
    ASSERT_TRUE(Reply.ok()) << Info.Name << ": " << Reply.Error;
    EXPECT_FALSE(Reply.CacheHit) << Info.Name;
    Framebuffer Reference = plainReference(
        Info, 24, 16, ShaderLab::defaultControls(Info));
    EXPECT_TRUE(bitIdentical(Reply.toFramebuffer(), Reference)) << Info.Name;
  }
  MetricsSnapshot Stats = Service.statsz();
  EXPECT_EQ(Stats.RequestsOk, shaderGallery().size());
  EXPECT_EQ(Stats.Cache.Misses, shaderGallery().size());
}

TEST(Service, CacheHitsStayBitIdenticalAcrossVaryingValues) {
  ServiceConfig Config;
  Config.RenderThreads = 4; // exercise the tiled multi-threaded reader
  SpecializationService Service(Config);
  const ShaderInfo *Info = findShader("marble");
  ASSERT_NE(Info, nullptr);

  for (unsigned Frame = 0; Frame < 4; ++Frame) {
    RenderRequest Request;
    Request.Shader = Info->Name;
    Request.Width = 24;
    Request.Height = 16;
    // Drag the first control across frames: same unit, different value.
    Request.Controls = ShaderLab::defaultControls(*Info);
    Request.Controls[0] =
        Info->Controls[0].SweepMin +
        static_cast<float>(Frame) * 0.25f *
            (Info->Controls[0].SweepMax - Info->Controls[0].SweepMin);
    RenderReply Reply = Service.render(Request);
    ASSERT_TRUE(Reply.ok()) << Reply.Error;
    EXPECT_EQ(Reply.CacheHit, Frame > 0);
    Framebuffer Reference =
        plainReference(*Info, 24, 16, Request.Controls);
    EXPECT_TRUE(bitIdentical(Reply.toFramebuffer(), Reference))
        << "frame " << Frame;
  }
  MetricsSnapshot Stats = Service.statsz();
  EXPECT_EQ(Stats.Cache.Misses, 1u);
  EXPECT_EQ(Stats.Cache.Hits, 3u);
}

TEST(Service, ShedsWhenQueueIsFull) {
  ServiceConfig Config;
  Config.QueueCapacity = 1;
  Config.MaxBatch = 1;
  SpecializationService Service(Config);

  RenderRequest Request;
  Request.Shader = "rings"; // most expensive build in the gallery
  std::vector<std::future<RenderReply>> Futures;
  for (unsigned I = 0; I < 64; ++I)
    Futures.push_back(Service.submit(Request));

  unsigned Ok = 0, Shed = 0;
  for (std::future<RenderReply> &F : Futures) {
    RenderReply Reply = F.get();
    if (Reply.ok())
      ++Ok;
    else if (Reply.Status == RenderStatus::ShedQueueFull) {
      ++Shed;
      EXPECT_NE(Reply.Error.find("queue full"), std::string::npos);
    }
  }
  EXPECT_EQ(Ok + Shed, 64u);
  EXPECT_GT(Ok, 0u);
  // A 64-deep burst into a 1-deep queue must shed (the first build takes
  // milliseconds while submission takes microseconds).
  EXPECT_GT(Shed, 0u);
  EXPECT_EQ(Service.statsz().ShedQueueFull, Shed);
}

TEST(Service, ShedsQueuedRequestsPastTheirDeadline) {
  ServiceConfig Config;
  Config.Dispatchers = 1;
  SpecializationService Service(Config);

  // Occupy the single dispatcher with an expensive cold build...
  RenderRequest Blocker;
  Blocker.Shader = "rings";
  Blocker.Width = 128;
  Blocker.Height = 128;
  std::future<RenderReply> BlockerDone = Service.submit(Blocker);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  // ...so a 1ms-deadline request queued behind it is shed at dispatch.
  RenderRequest Urgent;
  Urgent.Shader = "plastic";
  Urgent.DeadlineMillis = 1;
  RenderReply Reply = Service.submit(Urgent).get();
  EXPECT_EQ(Reply.Status, RenderStatus::ShedDeadline);
  EXPECT_NE(Reply.Error.find("deadline"), std::string::npos);

  EXPECT_TRUE(BlockerDone.get().ok());
  EXPECT_EQ(Service.statsz().ShedDeadline, 1u);
}

TEST(Service, DrainRejectsNewWorkAndIsIdempotent) {
  SpecializationService Service;
  RenderRequest Request;
  Request.Shader = "plastic";
  ASSERT_TRUE(Service.render(Request).ok());

  Service.drain();
  Service.drain(); // second drain is a no-op, not a crash

  RenderReply Reply = Service.render(Request);
  EXPECT_EQ(Reply.Status, RenderStatus::Draining);
  EXPECT_EQ(Service.statsz().RejectedDraining, 1u);
}

//===----------------------------------------------------------------------===//
// End-to-end over the loopback transport
//===----------------------------------------------------------------------===//

/// A live in-process server: a service plus a connection thread serving
/// the server end of a loopback pair.
struct LoopbackServer {
  SpecializationService Service;
  std::unique_ptr<Transport> Client;
  std::unique_ptr<Transport> ServerEnd;
  std::thread Thread;

  explicit LoopbackServer(const ServiceConfig &Config = {})
      : Service(Config) {
    auto Pair = makeLoopbackPair();
    Client = std::move(Pair.first);
    ServerEnd = std::move(Pair.second);
    Thread = std::thread([this] { serveConnection(*ServerEnd, Service); });
  }

  ~LoopbackServer() {
    Client->shutdown();
    Thread.join();
  }
};

TEST(ServiceLoopback, EndToEndMatchesPlainPassForEveryShader) {
  for (unsigned Threads : {1u, 4u}) {
    ServiceConfig Config;
    Config.RenderThreads = Threads;
    LoopbackServer Server(Config);
    for (const ShaderInfo &Info : shaderGallery()) {
      RenderRequest Request;
      Request.Shader = Info.Name;
      Request.Width = 20;
      Request.Height = 12;
      std::string Error;
      auto Reply = requestRender(*Server.Client, Request, &Error);
      ASSERT_TRUE(Reply.has_value()) << Error;
      ASSERT_TRUE(Reply->ok()) << Info.Name << ": " << Reply->Error;
      Framebuffer Reference = plainReference(
          Info, 20, 12, ShaderLab::defaultControls(Info));
      EXPECT_TRUE(bitIdentical(Reply->toFramebuffer(), Reference))
          << Info.Name << " with " << Threads << " render thread(s)";
    }
  }
}

TEST(ServiceLoopback, SecondRequestIsACacheHit) {
  LoopbackServer Server;
  RenderRequest Request;
  Request.Shader = "checker";
  std::string Error;
  auto First = requestRender(*Server.Client, Request, &Error);
  ASSERT_TRUE(First.has_value()) << Error;
  EXPECT_FALSE(First->CacheHit);
  auto Second = requestRender(*Server.Client, Request, &Error);
  ASSERT_TRUE(Second.has_value()) << Error;
  EXPECT_TRUE(Second->CacheHit);
  ASSERT_TRUE(Second->ok());
  EXPECT_EQ(std::memcmp(First->Pixels.data(), Second->Pixels.data(),
                        First->Pixels.size() * sizeof(float)),
            0);
}

TEST(ServiceLoopback, StatszReportsJsonSnapshot) {
  LoopbackServer Server;
  RenderRequest Request;
  Request.Shader = "stripes";
  std::string Error;
  ASSERT_TRUE(requestRender(*Server.Client, Request, &Error)) << Error;

  auto Json = requestStats(*Server.Client, &Error);
  ASSERT_TRUE(Json.has_value()) << Error;
  EXPECT_NE(Json->find("\"requests\""), std::string::npos);
  EXPECT_NE(Json->find("\"unit_cache\""), std::string::npos);
  EXPECT_NE(Json->find("\"latency_seconds\""), std::string::npos);
  EXPECT_NE(Json->find("\"total\":1"), std::string::npos);
  EXPECT_NE(Json->find("\"exec_tier\":\"batched\""), std::string::npos);
}

TEST(ServiceLoopback, BadRequestGetsStructuredErrorNotDisconnect) {
  LoopbackServer Server;
  RenderRequest Request;
  Request.Shader = "not-a-shader";
  std::string Error;
  auto Reply = requestRender(*Server.Client, Request, &Error);
  ASSERT_TRUE(Reply.has_value()) << Error;
  EXPECT_EQ(Reply->Status, RenderStatus::BadRequest);
  EXPECT_FALSE(Reply->Error.empty());

  // The connection survives a rejected request.
  Request.Shader = "plastic";
  auto Good = requestRender(*Server.Client, Request, &Error);
  ASSERT_TRUE(Good.has_value()) << Error;
  EXPECT_TRUE(Good->ok());
}

TEST(ServiceLoopback, CorruptFrameDropsConnection) {
  LoopbackServer Server;
  ByteWriter W;
  RenderRequest Request;
  Request.Shader = "plastic";
  encodeRenderRequest(W, Request);
  std::vector<unsigned char> Frame =
      encodeFrame(FrameType::RenderRequest, W.bytes());
  Frame.back() ^= 0xff; // corrupt the payload => CRC mismatch
  ASSERT_TRUE(Server.Client->writeAll(Frame.data(), Frame.size()));

  // The server drops the connection instead of answering garbage.
  FrameType Type;
  std::vector<unsigned char> Payload;
  std::string Error;
  EXPECT_FALSE(readFrame(*Server.Client, Type, Payload, &Error));
}

} // namespace
