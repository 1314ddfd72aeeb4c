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

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <future>
#include <limits>
#include <numeric>
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

TEST(ServiceProtocol, RetiredStreamedFrameTypesAreUnknown) {
  // Types 5 and 6 carried streamed replies; they are not reused, and
  // readFrame refuses them like any other unknown type.
  for (unsigned char Retired : {5, 6}) {
    std::vector<unsigned char> Frame =
        encodeFrame(FrameType::RenderReply, {1, 2, 3, 4});
    Frame[4] = Retired;
    ScriptedTransport T(Frame);
    FrameType Type;
    std::vector<unsigned char> Got;
    std::string Error;
    EXPECT_FALSE(readFrame(T, Type, Got, &Error));
    EXPECT_EQ(Error, "unknown frame type " + std::to_string(Retired));
  }
}

TEST(ServiceProtocol, LegacyTrailingFieldsAreReadPast) {
  // Older clients end a request with a u32 of variant pins and a u8
  // streaming flag; with both features retired, the request decodes as
  // if they were absent.
  RenderRequest In;
  In.Shader = "marble";
  In.Width = 12;
  In.Height = 5;
  In.Varying = {"ka"};
  In.Controls = {0.0f, 1.0f};
  In.CacheByteLimit = 40;
  ByteWriter Plain;
  encodeRenderRequest(Plain, In);
  ByteWriter Legacy;
  encodeRenderRequest(Legacy, In);
  Legacy.writeU32(4);
  Legacy.writeU8(1);

  RenderRequest FromPlain, FromLegacy;
  std::string Error;
  ByteReader PlainR(Plain.bytes());
  ASSERT_TRUE(decodeRenderRequest(PlainR, FromPlain, &Error)) << Error;
  ByteReader LegacyR(Legacy.bytes());
  ASSERT_TRUE(decodeRenderRequest(LegacyR, FromLegacy, &Error)) << Error;
  ByteWriter Again, AgainLegacy;
  encodeRenderRequest(Again, FromPlain);
  encodeRenderRequest(AgainLegacy, FromLegacy);
  EXPECT_EQ(AgainLegacy.bytes(), Again.bytes());
  EXPECT_EQ(Again.bytes(), Plain.bytes());
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

TEST(Service, StatszArenaChargesEachUnitItsWholeArena) {
  SpecializationService Service;
  uint64_t Sum = 0, Max = 0;
  for (const char *Name : {"plastic", "marble"}) {
    RenderRequest Request;
    Request.Shader = Name;
    Request.Width = 24;
    Request.Height = 16;
    ASSERT_TRUE(Service.render(Request).ok()) << Name;

    // The unit the service built: the shader split on its first control.
    const ShaderInfo *Info = findShader(Name);
    auto Unit = parseUnit(Info->Source);
    auto Spec =
        specializeAndCompile(*Unit, Info->Name, {Info->Controls[0].Name});
    ASSERT_TRUE(Spec.has_value()) << Name;
    uint64_t Bytes = uint64_t(24) * 16 * Spec->Spec.Layout.totalBytes();
    ASSERT_GT(Bytes, 0u) << Name;
    Sum += Bytes;
    Max = std::max(Max, Bytes);
  }
  const std::string Want =
      "\"arena\":{\"units\":2,\"physical_bytes\":" + std::to_string(Sum) +
      ",\"max_hot_frame_bytes\":" + std::to_string(Max) + "}";
  const std::string Json = Service.statsz().toJson();
  EXPECT_NE(Json.find(Want), std::string::npos) << Json;
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

/// A cold build slow enough to keep one dispatcher busy while a test
/// acts: rings is the gallery's most expensive shader to specialize, and
/// its loader pass over 512x512 pixels lasts about 100 ms in an optimized
/// build, so a test that saw the build start acts long before it ends.
RenderRequest coldBuild(const char *Varying) {
  RenderRequest Request;
  Request.Shader = "rings";
  Request.Width = 512;
  Request.Height = 512;
  Request.Varying = {Varying};
  return Request;
}

/// Polls /statsz until the queue is empty and no dispatcher is parked:
/// every dispatcher has taken a request off the queue.
::testing::AssertionResult allBusy(const SpecializationService &Service) {
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < Deadline) {
    MetricsSnapshot Stats = Service.statsz();
    if (Stats.QueueDepth == 0 && Stats.IdleDispatchers == 0)
      return ::testing::AssertionSuccess();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return ::testing::AssertionFailure() << "the dispatchers never all took work";
}

TEST(Service, ShedsQueuedRequestsPastTheirDeadline) {
  ServiceConfig Config;
  Config.Dispatchers = 1;
  SpecializationService Service(Config);

  // Occupy the single dispatcher with a cold build that lasts many times
  // the urgent request's deadline, and wait until the dispatcher has
  // taken it off the queue...
  std::future<RenderReply> BlockerDone =
      Service.submit(coldBuild("ringscale"));
  ASSERT_TRUE(allBusy(Service));

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

/// Queued requests are answered in the order they arrived: a dispatcher
/// takes the front request, resolves its unit and answers it before it
/// takes the next, even when a later request shares the front one's key.
TEST(Service, DispatchIsFirstInFirstOut) {
  ServiceConfig Config;
  Config.Dispatchers = 1;
  SpecializationService Service(Config);
  RenderRequest X;
  X.Shader = "plastic";
  X.Width = 24;
  X.Height = 16;
  RenderRequest Y = X;
  Y.Shader = "marble";
  ASSERT_TRUE(Service.render(X).ok()); // warms X's unit
  ASSERT_TRUE(Service.render(Y).ok()); // and Y's

  // Hold the one dispatcher on a cold build while X, Y and X queue.
  std::future<RenderReply> Blocker = Service.submit(coldBuild("ringscale"));
  ASSERT_TRUE(allBusy(Service));
  // The one dispatcher runs every callback, and each promise orders its
  // append before the reads below.
  std::string Order;
  std::vector<std::future<void>> Answered;
  for (const auto &[Label, Request] :
       {std::pair{'X', X}, std::pair{'Y', Y}, std::pair{'X', X}}) {
    auto Done = std::make_shared<std::promise<void>>();
    Answered.push_back(Done->get_future());
    Service.submitAsync(Request, [&Order, Label, Done](RenderReply R) {
      Order += R.ok() ? Label : '!';
      Done->set_value();
    });
  }
  EXPECT_NE(Blocker.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "the build ended before all three requests queued";
  for (std::future<void> &F : Answered)
    F.get();
  EXPECT_EQ(Order, "XYX");
  EXPECT_TRUE(Blocker.get().ok());
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
// Dispatch: two dispatchers, the most recently parked woken first
//===----------------------------------------------------------------------===//

/// Polls /statsz until every dispatcher is parked on the empty queue.
/// An in-process caller gets its reply before the dispatcher that sent
/// it has parked again, and a submission in that gap rightly wakes the
/// other one.
::testing::AssertionResult allParked(const SpecializationService &Service) {
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < Deadline) {
    MetricsSnapshot Stats = Service.statsz();
    if (Stats.IdleDispatchers == Stats.DispatcherServed.size())
      return ::testing::AssertionSuccess();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return ::testing::AssertionFailure() << "dispatchers never all parked";
}

TEST(Service, DefaultsToTwoDispatchersOfOneRenderThread) {
  ServiceConfig Config;
  EXPECT_EQ(Config.Dispatchers, 2u);
  EXPECT_EQ(Config.RenderThreads, 1u);
  SpecializationService Service;
  ASSERT_TRUE(allParked(Service));
  MetricsSnapshot Stats = Service.statsz();
  EXPECT_EQ(Stats.IdleDispatchers, 2u);
  EXPECT_NE(Stats.toJson().find(
                "\"dispatchers\":{\"count\":2,\"idle\":2,\"served\":[0,0]}"),
            std::string::npos)
      << Stats.toJson();
}

/// Sequential requests land on the dispatcher that served the previous
/// one: it parked last, so it is woken first.
TEST(Service, SequentialRequestsStayOnTheLastParkedDispatcher) {
  SpecializationService Service;
  const ShaderInfo *Info = findShader("marble");
  ASSERT_NE(Info, nullptr);
  RenderRequest Request;
  Request.Shader = Info->Name;
  Request.Width = 24;
  Request.Height = 16;
  Request.Controls = ShaderLab::defaultControls(*Info);
  for (unsigned I = 0; I < 20; ++I) {
    ASSERT_TRUE(allParked(Service)) << "before request " << I;
    Request.Controls[0] = static_cast<float>(I) * 0.05f;
    ASSERT_TRUE(Service.render(Request).ok()) << "request " << I;
  }
  ASSERT_TRUE(allParked(Service));
  MetricsSnapshot Stats = Service.statsz();
  ASSERT_EQ(Stats.DispatcherServed.size(), 2u);
  EXPECT_EQ(std::max(Stats.DispatcherServed[0], Stats.DispatcherServed[1]),
            20u);
  EXPECT_EQ(std::min(Stats.DispatcherServed[0], Stats.DispatcherServed[1]),
            0u);
}

/// A hit submitted while a cold build occupies one dispatcher is served
/// by the other, before the build ends. One dispatcher would queue it
/// behind the build.
TEST(Service, AHitCompletesWhileAColdBuildRuns) {
  SpecializationService Service;
  RenderRequest Hit;
  Hit.Shader = "plastic";
  Hit.Width = 24;
  Hit.Height = 16;
  ASSERT_TRUE(Service.render(Hit).ok()); // builds the hit's unit
  ASSERT_TRUE(allParked(Service));

  std::future<RenderReply> Build = Service.submit(coldBuild("ringscale"));
  // Wait until a dispatcher has taken the build off the queue.
  for (;;) {
    MetricsSnapshot Stats = Service.statsz();
    if (Stats.QueueDepth == 0 && Stats.IdleDispatchers == 1)
      break;
    ASSERT_NE(Build.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "the build ended before the test saw it start";
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  RenderReply HitReply = Service.render(Hit);
  EXPECT_NE(Build.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "the hit waited for the build";
  ASSERT_TRUE(HitReply.ok()) << HitReply.Error;
  EXPECT_TRUE(HitReply.CacheHit);
  RenderReply BuildReply = Build.get();
  ASSERT_TRUE(BuildReply.ok()) << BuildReply.Error;
  EXPECT_FALSE(BuildReply.CacheHit);
}

TEST(Service, DrainWakesParkedDispatchers) {
  SpecializationService Service;
  ASSERT_TRUE(allParked(Service));
  Service.drain(); // returns: every parked dispatcher woke and joined
  EXPECT_EQ(Service.statsz().IdleDispatchers, 0u);
  RenderRequest Request;
  Request.Shader = "plastic";
  EXPECT_EQ(Service.render(Request).Status, RenderStatus::Draining);
  EXPECT_EQ(Service.statsz().RejectedDraining, 1u);
}

/// Two cold builds occupy both dispatchers, six more requests queue
/// behind them, and drain() starts at once: every admitted request is
/// answered before it returns.
TEST(Service, DrainAnswersEveryQueuedRequest) {
  SpecializationService Service;
  std::vector<std::future<RenderReply>> Futures;
  Futures.push_back(Service.submit(coldBuild("ringscale")));
  Futures.push_back(Service.submit(coldBuild("redl")));
  for (unsigned I = 0; I < 6; ++I) {
    RenderRequest Request;
    Request.Shader = "plastic";
    Request.Width = 16 + I;
    Request.Height = 12;
    Futures.push_back(Service.submit(Request));
  }
  Service.drain();
  for (size_t I = 0; I < Futures.size(); ++I) {
    ASSERT_EQ(Futures[I].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "request " << I << " unanswered when drain() returned";
    RenderReply Reply = Futures[I].get();
    EXPECT_TRUE(Reply.ok()) << "request " << I << ": " << Reply.Error;
  }
  MetricsSnapshot Stats = Service.statsz();
  EXPECT_EQ(Stats.RequestsOk, Futures.size());
  EXPECT_EQ(std::accumulate(Stats.DispatcherServed.begin(),
                            Stats.DispatcherServed.end(), uint64_t(0)),
            Futures.size());
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
  std::string Path;

  explicit UnixServer(const ServiceConfig &Config = {}) : Service(Config) {
    const ::testing::TestInfo *Test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    NetServerConfig NetCfg;
    NetCfg.UnixPath = ::testing::TempDir() + "dspec_" +
                      Test->test_suite_name() + "_" + Test->name() + ".sock";
    Path = NetCfg.UnixPath;
    Server = std::make_unique<NetServer>(Service, NetCfg);
    NetServer *Raw = Server.get();
    Service.setNetStatsProvider([Raw] { return Raw->statsJson(); });
    std::string Error;
    bool Started = Server->start(&Error);
    EXPECT_TRUE(Started) << Error;
    if (Started)
      Client = connectUnixSocket(Path, &Error);
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

  // A frame whose CRC is valid but whose payload is cut short is refused
  // by the request decoder: a structured BadRequest, not a disconnect.
  ByteWriter W;
  encodeRenderRequest(W, Request);
  std::vector<unsigned char> Cut = W.bytes();
  Cut.resize(Cut.size() / 2);
  std::vector<unsigned char> Frame =
      encodeFrame(FrameType::RenderRequest, Cut);
  ASSERT_TRUE(Server.Client->writeAll(Frame.data(), Frame.size()));
  FrameType Type;
  std::vector<unsigned char> Payload;
  ASSERT_TRUE(readFrame(*Server.Client, Type, Payload, &Error)) << Error;
  ASSERT_EQ(Type, FrameType::RenderReply);
  ByteReader R(Payload);
  RenderReply Short;
  ASSERT_TRUE(decodeRenderReply(R, Short, &Error)) << Error;
  EXPECT_EQ(Short.Status, RenderStatus::BadRequest);
  EXPECT_FALSE(Short.Error.empty());

  Good = requestRender(*Server.Client, Request, &Error);
  ASSERT_TRUE(Good.has_value()) << Error;
  EXPECT_TRUE(Good->ok());

  // /statsz counts both rejections among the four requests.
  auto Json = requestStats(*Server.Client, &Error);
  ASSERT_TRUE(Json.has_value()) << Error;
  EXPECT_NE(Json->find("\"requests\":{\"total\":4,"), std::string::npos)
      << *Json;
  EXPECT_NE(Json->find("\"bad_request\":2,"), std::string::npos) << *Json;
}

/// Four connections at once against a four-unit, one-shard cache that
/// spills to disk, on the default dispatchers: units are evicted,
/// stored, restored and rebuilt concurrently, and every reply still
/// matches the plain pass bit for bit.
TEST(ServiceUnix, ConcurrentClientsWithSpillStayBitIdentical) {
  constexpr unsigned Clients = 4, PerClient = 25, Width = 20, Height = 12;
  // Twelve keys: six shaders, each split on two controls. Each request
  // sets its varying control to one of two values.
  struct Key {
    const ShaderInfo *Info;
    unsigned Control;
  };
  std::vector<Key> Keys;
  for (const char *Name :
       {"plastic", "marble", "wood", "checker", "stripes", "rings"})
    for (unsigned Control : {0u, 1u})
      Keys.push_back({findShader(Name), Control});
  auto controlsFor = [&](const Key &K, unsigned Value) {
    std::vector<float> Controls = ShaderLab::defaultControls(*K.Info);
    const ControlParam &P = K.Info->Controls[K.Control];
    Controls[K.Control] = Value == 0 ? P.SweepMin : P.SweepMax;
    return Controls;
  };
  std::vector<Framebuffer> Plain;
  for (const Key &K : Keys)
    for (unsigned Value : {0u, 1u})
      Plain.push_back(
          plainReference(*K.Info, Width, Height, controlsFor(K, Value)));

  const std::string SpillDir =
      ::testing::TempDir() + "dspec_concurrent_clients_spill";
  std::filesystem::remove_all(SpillDir);
  ServiceConfig Config;
  Config.CacheUnits = 4;
  Config.CacheShards = 1;
  Config.SpillDir = SpillDir;
  UnixServer Server(Config);
  ASSERT_NE(Server.Client, nullptr);

  std::vector<std::string> Failures(Clients);
  std::vector<unsigned> HitReplies(Clients, 0);
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      std::string Error;
      std::unique_ptr<Transport> Conn = connectUnixSocket(Server.Path, &Error);
      if (!Conn) {
        Failures[C] = "connect: " + Error;
        return;
      }
      for (unsigned I = 0; I < PerClient; ++I) {
        unsigned K = (C * 5 + I * 7) % Keys.size(), Value = (C + I) % 2;
        RenderRequest Request;
        Request.Shader = Keys[K].Info->Name;
        Request.Width = Width;
        Request.Height = Height;
        Request.Varying = {Keys[K].Info->Controls[Keys[K].Control].Name};
        Request.Controls = controlsFor(Keys[K], Value);
        auto Reply = requestRender(*Conn, Request, &Error);
        if (!Reply || !Reply->ok()) {
          Failures[C] = "request " + std::to_string(I) + ": " +
                        (Reply ? Reply->Error : Error);
          return;
        }
        if (!bitIdentical(Reply->toFramebuffer(), Plain[K * 2 + Value])) {
          Failures[C] = "request " + std::to_string(I) + " (" +
                        Request.Shader + ") differs from the plain pass";
          return;
        }
        HitReplies[C] += Reply->CacheHit;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (unsigned C = 0; C < Clients; ++C)
    EXPECT_TRUE(Failures[C].empty()) << "client " << C << ": " << Failures[C];

  Server.Service.drain(); // lands the evictions' queued writes
  MetricsSnapshot Stats = Server.Service.statsz();
  const uint64_t Requests = Clients * PerClient;
  EXPECT_EQ(Stats.RequestsOk, Requests);
  EXPECT_EQ(Stats.SpillErrors, 0u);
  EXPECT_GT(Stats.SpillWrites, 0u);
  EXPECT_GT(Stats.Cache.Evictions, 0u);
  // Every request is accounted for once: a hit (in memory or restored
  // from disk), a build answered with its loader frame, or a wait on
  // another dispatcher's build. Every miss was a restore or a build.
  EXPECT_EQ(Stats.CacheHitRequests + Stats.LoaderFrameReplies +
                Stats.Cache.CoalescedWaits,
            Requests);
  EXPECT_EQ(Stats.Cache.Misses, Stats.SpillDiskHits + Stats.LoaderFrameReplies);
  unsigned Hits = 0;
  for (unsigned N : HitReplies)
    Hits += N;
  EXPECT_EQ(Hits, Stats.CacheHitRequests);
  std::filesystem::remove_all(SpillDir);
}

/// The /statsz "net" counter \p Key, or -1 when it is missing.
long long netCounter(Transport &Client, const char *Key) {
  std::string Error;
  auto Json = requestStats(Client, &Error);
  EXPECT_TRUE(Json.has_value()) << Error;
  if (!Json)
    return -1;
  size_t Net = Json->find("\"net\":{");
  std::string Field = std::string("\"") + Key + "\":";
  size_t At = Net == std::string::npos ? Net : Json->find(Field, Net);
  if (At == std::string::npos)
    return -1;
  return std::stoll(Json->substr(At + Field.size()));
}

/// A 160x120 reply frame (230,442 bytes) is larger than a unix socket's
/// default send buffer. The connection grows its buffer to one frame,
/// so that reply leaves in one send; eight replies nobody reads still
/// overflow it and wait for EPOLLOUT.
TEST(ServiceUnix, AReplyFrameLeavesInOneSend) {
  UnixServer Server;
  ASSERT_NE(Server.Client, nullptr);
  RenderRequest Request;
  Request.Shader = "marble";
  Request.Width = 160;
  Request.Height = 120;
  std::string Error;
  auto First = requestRender(*Server.Client, Request, &Error);
  ASSERT_TRUE(First.has_value()) << Error;
  ASSERT_TRUE(First->ok()) << First->Error;
  EXPECT_EQ(netCounter(*Server.Client, "send_waits"), 0);

  constexpr unsigned Pipelined = 8;
  ByteWriter W;
  encodeRenderRequest(W, Request);
  std::vector<unsigned char> Frame =
      encodeFrame(FrameType::RenderRequest, W.bytes());
  for (unsigned I = 0; I < Pipelined; ++I)
    ASSERT_TRUE(Server.Client->writeAll(Frame.data(), Frame.size()));
  // Read nothing until every reply is served and one has had to wait.
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while ((Server.Service.statsz().RequestsOk < 1 + Pipelined ||
          Server.Server->stats().SendWaits == 0) &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (unsigned I = 0; I < Pipelined; ++I) {
    FrameType Type;
    std::vector<unsigned char> Payload;
    ASSERT_TRUE(readFrame(*Server.Client, Type, Payload, &Error)) << Error;
    ASSERT_EQ(Type, FrameType::RenderReply);
    ByteReader R(Payload);
    RenderReply Reply;
    ASSERT_TRUE(decodeRenderReply(R, Reply, &Error)) << Error;
    ASSERT_TRUE(Reply.ok()) << Reply.Error;
    ASSERT_EQ(Reply.Pixels.size(), First->Pixels.size());
    EXPECT_EQ(std::memcmp(Reply.Pixels.data(), First->Pixels.data(),
                          Reply.Pixels.size() * sizeof(float)),
              0)
        << "reply " << I;
  }
  EXPECT_GE(netCounter(*Server.Client, "send_waits"), 1);
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
