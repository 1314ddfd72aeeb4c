//===- tests/TestService.cpp - Specialization service tests -----------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests of the specialization service: the framed protocol
/// over a unix socket to the event-loop server, the bit-identity of
/// served frames against the unspecialized plain pass (the paper's
/// equivalence guarantee, through the whole server), load shedding, and
/// graceful drain.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "engine/RenderEngine.h"
#include "net/NetServer.h"
#include "service/Protocol.h"
#include "service/Service.h"
#include "service/Transport.h"
#include "shading/ShaderGallery.h"
#include "shading/ShaderLab.h"
#include "support/ByteStream.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <future>
#include <limits>
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

/// An image size whose Width x Height x 3 wraps 64 bits to 32.
constexpr uint32_t kWrappingWidth = 1824726041u;
constexpr uint32_t kWrappingHeight = 3369774176u;

/// A 2x1 reply whose pixels are bit patterns a lossy float path would
/// disturb: a NaN with payload bits, -0.0, a denormal and +inf.
RenderReply goldenReply() {
  RenderReply Reply;
  Reply.Width = 2;
  Reply.Height = 1;
  Reply.CacheHit = true;
  Reply.ServiceMicros = 0x0102030405060708ull;
  for (uint32_t Bits : {0x7fc5a5a5u, 0x80000000u, 0x00000123u, 0x7f800000u,
                        0x3f800000u, 0xc0200000u})
    Reply.Pixels.push_back(std::bit_cast<float>(Bits));
  return Reply;
}

std::string toHex(const std::vector<unsigned char> &Bytes) {
  static const char Digits[] = "0123456789abcdef";
  std::string Out;
  for (unsigned char B : Bytes) {
    Out += Digits[B >> 4];
    Out += Digits[B & 0xf];
  }
  return Out;
}

TEST(ServiceProtocol, RenderReplyFrameMatchesGoldenBytes) {
  ByteWriter W;
  encodeRenderReply(W, goldenReply());
  std::vector<unsigned char> Frame =
      encodeFrame(FrameType::RenderReply, W.bytes());
  // Header (magic, type, reserved, length, CRC) then payload (status,
  // empty error, 2, 1, cache hit, service micros, 6, the pixel bits),
  // all little-endian. Changing these bytes breaks every deployed peer.
  EXPECT_EQ(toHex(Frame), "44535046" "02000000" "32000000" "a7946776"
                          "00" "00000000" "02000000" "01000000" "01"
                          "0807060504030201" "06000000"
                          "a5a5c57f" "00000080" "23010000"
                          "0000807f" "0000803f" "000020c0");

  std::vector<unsigned char> Payload(Frame.begin() + 16, Frame.end());
  ByteReader R(Payload);
  RenderReply Out;
  std::string Error;
  ASSERT_TRUE(decodeRenderReply(R, Out, &Error)) << Error;
  EXPECT_TRUE(R.atEnd());
  RenderReply In = goldenReply();
  ASSERT_EQ(Out.Pixels.size(), In.Pixels.size());
  EXPECT_EQ(std::memcmp(Out.Pixels.data(), In.Pixels.data(),
                        In.Pixels.size() * sizeof(float)),
            0);
}

TEST(ServiceProtocol, RenderReplyRejectsBadPixelBlocks) {
  ByteWriter W;
  encodeRenderReply(W, goldenReply());
  std::vector<unsigned char> Payload = W.bytes();
  RenderReply Out;
  std::string Error;

  // Every cut inside the pixel block (the last 24 bytes) is truncation.
  for (size_t Cut = 1; Cut <= 24; ++Cut) {
    std::vector<unsigned char> Short(Payload.begin(), Payload.end() - Cut);
    ByteReader R(Short);
    Error.clear();
    EXPECT_FALSE(decodeRenderReply(R, Out, &Error)) << Cut;
    EXPECT_NE(Error.find("pixel payload truncated"), std::string::npos)
        << Error;
  }

  // A float count that disagrees with Width x Height x 3.
  RenderReply Wrong = goldenReply();
  Wrong.Pixels.pop_back();
  ByteWriter WrongW;
  encodeRenderReply(WrongW, Wrong);
  ByteReader R(WrongW.bytes());
  Error.clear();
  EXPECT_FALSE(decodeRenderReply(R, Out, &Error));
  EXPECT_NE(Error.find("does not match the image dimensions"),
            std::string::npos)
      << Error;

  // Dimensions whose Width x Height x 3 wraps 64 bits to the float count
  // (32 here): the count must still be rejected.
  RenderReply Wrapping;
  Wrapping.Width = kWrappingWidth;
  Wrapping.Height = kWrappingHeight;
  Wrapping.Pixels.assign(32, 0.5f);
  ByteWriter WrappingW;
  encodeRenderReply(WrappingW, Wrapping);
  ByteReader WrappingR(WrappingW.bytes());
  Error.clear();
  EXPECT_FALSE(decodeRenderReply(WrappingR, Out, &Error));
  EXPECT_NE(Error.find("does not match the image dimensions"),
            std::string::npos)
      << Error;
}

/// A transport that reads a scripted byte string, then reports EOF, and
/// discards everything written to it.
class ScriptedTransport : public Transport {
public:
  explicit ScriptedTransport(std::vector<unsigned char> Bytes)
      : Bytes(std::move(Bytes)) {}

  bool writeAll(const void *, size_t) override { return true; }

  bool readAll(void *Data, size_t Size) override {
    if (Bytes.size() - Pos < Size)
      return false;
    std::memcpy(Data, Bytes.data() + Pos, Size);
    Pos += Size;
    return true;
  }

  void shutdown() override {}

private:
  std::vector<unsigned char> Bytes;
  size_t Pos = 0;
};

TEST(ServiceProtocol, FrameRejectsCorruption) {
  std::vector<unsigned char> Payload = {1, 2, 3, 4};
  FrameType Type;
  std::vector<unsigned char> Got;
  std::string Error;

  // Flipping one payload byte after framing must fail the CRC check.
  std::vector<unsigned char> Frame =
      encodeFrame(FrameType::StatsRequest, Payload);
  Frame.back() ^= 0xff;
  ScriptedTransport BadCrc(Frame);
  EXPECT_FALSE(readFrame(BadCrc, Type, Got, &Error));
  EXPECT_NE(Error.find("CRC"), std::string::npos) << Error;

  // Bad magic.
  Frame = encodeFrame(FrameType::StatsRequest, Payload);
  Frame[0] ^= 0xff;
  ScriptedTransport BadMagic(Frame);
  Error.clear();
  EXPECT_FALSE(readFrame(BadMagic, Type, Got, &Error));
  EXPECT_FALSE(Error.empty());

  // Clean EOF: no bytes at all leaves Error empty.
  ScriptedTransport Empty(std::vector<unsigned char>{});
  Error = "sentinel";
  EXPECT_FALSE(readFrame(Empty, Type, Got, &Error));
  EXPECT_TRUE(Error.empty());
}

/// Frames a streamed reply: one RenderPartial carrying \p Part, then a
/// RenderDone trailer for an ok reply of \p Done's size.
std::vector<unsigned char> streamedReply(const RenderPartialChunk &Part,
                                         RenderStreamDone Done) {
  std::vector<unsigned char> Bytes;
  ByteWriter PartW;
  encodeRenderPartial(PartW, Part);
  appendFrame(Bytes, FrameType::RenderPartial, PartW.bytes().data(),
              PartW.bytes().size());
  Done.NumPartials = 1;
  Done.PixelCrc = pixelCrc(Part.Pixels);
  ByteWriter DoneW;
  encodeRenderDone(DoneW, Done);
  appendFrame(Bytes, FrameType::RenderDone, DoneW.bytes().data(),
              DoneW.bytes().size());
  return Bytes;
}

TEST(ServiceProtocol, StreamedReplyMustMatchTheRequestedSize) {
  RenderRequest Request;
  Request.Shader = "plastic";
  Request.Width = 2;
  Request.Height = 1;
  Request.StreamTiles = true;

  RenderPartialChunk Part;
  Part.Width = 2;
  Part.Height = 1;
  Part.PixelCount = 2;
  Part.Pixels = {1, 2, 3, 4, 5, 6};
  RenderStreamDone Done;
  Done.Width = 2;
  Done.Height = 1;
  std::string Error;

  // The well-formed stream reassembles.
  ScriptedTransport Good(streamedReply(Part, Done));
  auto Reply = requestRender(Good, Request, &Error);
  ASSERT_TRUE(Reply.has_value()) << Error;
  ASSERT_TRUE(Reply->ok());
  EXPECT_EQ(Reply->Pixels, Part.Pixels);

  // A CRC-valid partial for an image whose Width x Height x 3 wraps to
  // a small count, with its pixel far past that count: rejected before
  // any pixel is copied.
  RenderPartialChunk Wrapping;
  Wrapping.Width = kWrappingWidth;
  Wrapping.Height = kWrappingHeight;
  Wrapping.PixelOffset = 1000000;
  Wrapping.PixelCount = 1;
  Wrapping.Pixels = {1, 2, 3};
  ScriptedTransport Hostile(streamedReply(Wrapping, Done));
  Error.clear();
  EXPECT_FALSE(requestRender(Hostile, Request, &Error).has_value());
  EXPECT_NE(Error.find("not the requested 2x1"), std::string::npos) << Error;

  // An ok trailer of another size is rejected too.
  RenderStreamDone Bigger = Done;
  Bigger.Width = 3;
  ScriptedTransport Resized(streamedReply(Part, Bigger));
  Error.clear();
  EXPECT_FALSE(requestRender(Resized, Request, &Error).has_value());
  EXPECT_NE(Error.find("not the requested 2x1"), std::string::npos) << Error;
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
  // The first request per shader is a miss, answered with the loader
  // pass's frame; the second is a hit, answered by the reader.
  for (bool Hit : {false, true}) {
    for (const ShaderInfo &Info : shaderGallery()) {
      RenderRequest Request;
      Request.Shader = Info.Name;
      Request.Width = 24;
      Request.Height = 16;
      RenderReply Reply = Service.render(Request);
      ASSERT_TRUE(Reply.ok()) << Info.Name << ": " << Reply.Error;
      EXPECT_EQ(Reply.CacheHit, Hit) << Info.Name;
      Framebuffer Reference = plainReference(
          Info, 24, 16, ShaderLab::defaultControls(Info));
      EXPECT_TRUE(bitIdentical(Reply.toFramebuffer(), Reference))
          << Info.Name << (Hit ? " (reader)" : " (loader)");
    }
    MetricsSnapshot Stats = Service.statsz();
    EXPECT_EQ(Stats.LoaderFrameReplies, shaderGallery().size());
  }
  MetricsSnapshot Stats = Service.statsz();
  EXPECT_EQ(Stats.RequestsOk, 2 * shaderGallery().size());
  EXPECT_EQ(Stats.Cache.Misses, shaderGallery().size());
  EXPECT_NE(Stats.toJson().find("\"loader_frame_replies\":10,"),
            std::string::npos);
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

/// A request can push noise coordinates past int32's range or to inf and
/// NaN: marble scales its noise point by `veinscale`. Such lanes get
/// lattice index 0, so each reply is well-defined and still matches the
/// plain pass.
TEST(Service, HostileNoiseScaleMatchesPlainPass) {
  SpecializationService Service;
  const ShaderInfo *Info = findShader("marble");
  ASSERT_NE(Info, nullptr);
  unsigned VeinScale = 0;
  while (VeinScale < Info->Controls.size() &&
         Info->Controls[VeinScale].Name != "veinscale")
    ++VeinScale;
  ASSERT_LT(VeinScale, Info->Controls.size());

  for (float Scale : {1e30f, -std::numeric_limits<float>::infinity(),
                      std::numeric_limits<float>::quiet_NaN()}) {
    RenderRequest Request;
    Request.Shader = Info->Name;
    Request.Width = 24;
    Request.Height = 16;
    Request.Controls = ShaderLab::defaultControls(*Info);
    Request.Controls[VeinScale] = Scale;
    RenderReply Reply = Service.render(Request);
    ASSERT_TRUE(Reply.ok()) << "veinscale " << Scale << ": " << Reply.Error;
    EXPECT_TRUE(bitIdentical(Reply.toFramebuffer(),
                             plainReference(*Info, 24, 16, Request.Controls)))
        << "veinscale " << Scale;
  }
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
// End to end over a unix socket
//===----------------------------------------------------------------------===//

/// A live in-process server: a service plus a NetServer listening on a
/// unix socket, the acceptor `dspec serve --socket` runs, and one client
/// connected to it. Each test gets its own socket path, because ctest
/// runs tests in parallel and listening unlinks any existing path.
struct UnixServer {
  SpecializationService Service;
  std::unique_ptr<NetServer> Server;
  std::unique_ptr<Transport> Client;

  explicit UnixServer(const ServiceConfig &Config = {}) : Service(Config) {
    const ::testing::TestInfo *Test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    NetServerConfig NetCfg;
    NetCfg.UnixPath = ::testing::TempDir() + "dspec_" +
                      Test->test_suite_name() + "_" + Test->name() + ".sock";
    Server = std::make_unique<NetServer>(Service, NetCfg);
    std::string Error;
    bool Started = Server->start(&Error);
    EXPECT_TRUE(Started) << Error;
    if (Started)
      Client = connectUnixSocket(NetCfg.UnixPath, &Error);
    EXPECT_NE(Client, nullptr) << Error;
  }

  ~UnixServer() {
    Client.reset();
    Server->shutdownServer();
    Service.drain();
  }
};

TEST(ServiceUnix, EndToEndMatchesPlainPassForEveryShader) {
  for (unsigned Threads : {1u, 4u}) {
    ServiceConfig Config;
    Config.RenderThreads = Threads;
    UnixServer Server(Config);
    ASSERT_NE(Server.Client, nullptr);
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

TEST(ServiceUnix, SecondRequestIsACacheHit) {
  UnixServer Server;
  ASSERT_NE(Server.Client, nullptr);
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

TEST(ServiceUnix, StatszReportsJsonSnapshot) {
  UnixServer Server;
  ASSERT_NE(Server.Client, nullptr);
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

TEST(ServiceUnix, BadRequestGetsStructuredErrorNotDisconnect) {
  UnixServer Server;
  ASSERT_NE(Server.Client, nullptr);
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

TEST(ServiceUnix, CorruptFrameDropsConnection) {
  UnixServer Server;
  ASSERT_NE(Server.Client, nullptr);
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
