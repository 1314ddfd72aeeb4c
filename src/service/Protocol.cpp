//===- service/Protocol.cpp - Framed binary service protocol ----------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include "service/Transport.h"
#include "support/Crc32.h"

#include <algorithm>

using namespace dspec;

const char *dspec::renderStatusName(RenderStatus Status) {
  switch (Status) {
  case RenderStatus::Ok:
    return "ok";
  case RenderStatus::BadRequest:
    return "bad_request";
  case RenderStatus::SpecializeError:
    return "specialize_error";
  case RenderStatus::RenderTrap:
    return "render_trap";
  case RenderStatus::ShedQueueFull:
    return "shed_queue_full";
  case RenderStatus::ShedDeadline:
    return "shed_deadline";
  case RenderStatus::Draining:
    return "draining";
  case RenderStatus::ShedQuota:
    return "shed_quota";
  }
  return "unknown";
}

Framebuffer RenderReply::toFramebuffer() const {
  Framebuffer Fb(Width, Height);
  size_t I = 0;
  for (uint32_t Y = 0; Y < Height; ++Y)
    for (uint32_t X = 0; X < Width; ++X, I += 3)
      Fb.at(X, Y) = Value::makeVec3(Pixels[I], Pixels[I + 1], Pixels[I + 2]);
  return Fb;
}

RenderReply RenderReply::fromFramebuffer(const Framebuffer &Fb) {
  RenderReply Reply;
  Reply.Width = Fb.width();
  Reply.Height = Fb.height();
  Reply.Pixels.resize(static_cast<size_t>(Fb.width()) * Fb.height() * 3);
  float *Out = Reply.Pixels.data();
  for (uint32_t Y = 0; Y < Fb.height(); ++Y)
    for (uint32_t X = 0; X < Fb.width(); ++X, Out += 3) {
      const Value &V = Fb.at(X, Y);
      Out[0] = V.F[0];
      Out[1] = V.F[1];
      Out[2] = V.F[2];
    }
  return Reply;
}

//===----------------------------------------------------------------------===//
// Payload serde
//===----------------------------------------------------------------------===//

void dspec::encodeRenderRequest(ByteWriter &W, const RenderRequest &Request) {
  W.writeString(Request.Shader);
  W.writeU32(Request.Width);
  W.writeU32(Request.Height);
  W.writeU32(static_cast<uint32_t>(Request.Varying.size()));
  for (const std::string &Name : Request.Varying)
    W.writeString(Name);
  W.writeU32(static_cast<uint32_t>(Request.Controls.size()));
  for (float V : Request.Controls)
    W.writeF32(V);
  W.writeU32(Request.DeadlineMillis);
  W.writeU8(Request.JoinNormalize ? 1 : 0);
  W.writeU8(Request.Reassociate ? 1 : 0);
  W.writeU8(Request.Speculation ? 1 : 0);
  W.writeU8(Request.CacheByteLimit.has_value() ? 1 : 0);
  W.writeU32(Request.CacheByteLimit.value_or(0));
  W.writeU32(Request.VariantPins);
  W.writeU8(Request.StreamTiles ? 1 : 0);
}

bool dspec::decodeRenderRequest(ByteReader &R, RenderRequest &Out,
                                std::string *Error) {
  Out.Shader = R.readString();
  Out.Width = R.readU32();
  Out.Height = R.readU32();
  uint32_t NumVarying = R.readU32();
  if (NumVarying > 4096)
    R.fail("varying-parameter count out of range");
  Out.Varying.clear();
  for (uint32_t I = 0; R.ok() && I < NumVarying; ++I)
    Out.Varying.push_back(R.readString());
  uint32_t NumControls = R.readU32();
  if (NumControls > 4096)
    R.fail("control count out of range");
  Out.Controls.clear();
  for (uint32_t I = 0; R.ok() && I < NumControls; ++I)
    Out.Controls.push_back(R.readF32());
  Out.DeadlineMillis = R.readU32();
  Out.JoinNormalize = R.readU8() != 0;
  Out.Reassociate = R.readU8() != 0;
  Out.Speculation = R.readU8() != 0;
  bool HasLimit = R.readU8() != 0;
  uint32_t Limit = R.readU32();
  Out.CacheByteLimit =
      HasLimit ? std::optional<uint32_t>(Limit) : std::nullopt;
  // Trailing fields, absent in older payloads: default (0 pins, no
  // streaming) instead of failing so old encoders keep working.
  Out.VariantPins = R.ok() && R.remaining() >= 4 ? R.readU32() : 0;
  Out.StreamTiles = R.ok() && R.remaining() >= 1 && R.readU8() != 0;
  if (!R.ok() && Error)
    *Error = "render request: " + R.error();
  return R.ok();
}

void dspec::encodeRenderReply(ByteWriter &W, const RenderReply &Reply) {
  // Status, error length + bytes, width, height, cache hit, service
  // micros, float count, then the pixel block.
  W.reserve(1 + 4 + Reply.Error.size() + 4 + 4 + 1 + 8 + 4 +
            Reply.Pixels.size() * sizeof(float));
  W.writeU8(static_cast<uint8_t>(Reply.Status));
  W.writeString(Reply.Error);
  W.writeU32(Reply.Width);
  W.writeU32(Reply.Height);
  W.writeU8(Reply.CacheHit ? 1 : 0);
  W.writeU64(Reply.ServiceMicros);
  W.writeU32(static_cast<uint32_t>(Reply.Pixels.size()));
  W.writeF32Array(Reply.Pixels.data(), Reply.Pixels.size());
}

bool dspec::decodeRenderReply(ByteReader &R, RenderReply &Out,
                              std::string *Error) {
  uint8_t Status = R.readU8();
  if (Status > static_cast<uint8_t>(RenderStatus::ShedQuota))
    R.fail("unknown render status " + std::to_string(Status));
  Out.Status = static_cast<RenderStatus>(Status);
  Out.Error = R.readString();
  Out.Width = R.readU32();
  Out.Height = R.readU32();
  Out.CacheHit = R.readU8() != 0;
  Out.ServiceMicros = R.readU64();
  uint32_t NumFloats = R.readU32();
  // Divide rather than multiply by 3: Width * Height * 3 can wrap.
  bool SizeMatches =
      NumFloats % 3 == 0 &&
      NumFloats / 3 == static_cast<uint64_t>(Out.Width) * Out.Height;
  if (!SizeMatches && !(NumFloats == 0 && Out.Status != RenderStatus::Ok))
    R.fail("pixel payload does not match the image dimensions");
  if (NumFloats * sizeof(float) > R.remaining())
    R.fail("pixel payload truncated");
  R.readF32Array(Out.Pixels, NumFloats);
  if (!R.ok() && Error)
    *Error = "render reply: " + R.error();
  return R.ok();
}

uint32_t dspec::pixelCrc(const std::vector<float> &Pixels) {
  return crc32(reinterpret_cast<const unsigned char *>(Pixels.data()),
               Pixels.size() * sizeof(float));
}

void dspec::encodeRenderPartial(ByteWriter &W,
                                const RenderPartialChunk &Chunk) {
  W.writeU32(Chunk.Width);
  W.writeU32(Chunk.Height);
  W.writeU32(Chunk.PixelOffset);
  W.writeU32(Chunk.PixelCount);
  W.writeF32Array(Chunk.Pixels.data(), Chunk.Pixels.size());
}

bool dspec::decodeRenderPartial(ByteReader &R, RenderPartialChunk &Out,
                                std::string *Error) {
  Out.Width = R.readU32();
  Out.Height = R.readU32();
  Out.PixelOffset = R.readU32();
  Out.PixelCount = R.readU32();
  uint64_t Total = static_cast<uint64_t>(Out.Width) * Out.Height;
  if (Out.PixelCount == 0 ||
      static_cast<uint64_t>(Out.PixelOffset) + Out.PixelCount > Total)
    R.fail("partial chunk range outside the image");
  uint64_t NumFloats = static_cast<uint64_t>(Out.PixelCount) * 3;
  if (NumFloats * sizeof(float) > R.remaining())
    R.fail("partial chunk payload truncated");
  R.readF32Array(Out.Pixels, NumFloats);
  if (!R.ok() && Error)
    *Error = "render partial: " + R.error();
  return R.ok();
}

void dspec::encodeRenderDone(ByteWriter &W, const RenderStreamDone &Done) {
  W.writeU8(static_cast<uint8_t>(Done.Status));
  W.writeString(Done.Error);
  W.writeU32(Done.Width);
  W.writeU32(Done.Height);
  W.writeU8(Done.CacheHit ? 1 : 0);
  W.writeU64(Done.ServiceMicros);
  W.writeU32(Done.NumPartials);
  W.writeU32(Done.PixelCrc);
}

bool dspec::decodeRenderDone(ByteReader &R, RenderStreamDone &Out,
                             std::string *Error) {
  uint8_t Status = R.readU8();
  if (Status > static_cast<uint8_t>(RenderStatus::ShedQuota))
    R.fail("unknown render status " + std::to_string(Status));
  Out.Status = static_cast<RenderStatus>(Status);
  Out.Error = R.readString();
  Out.Width = R.readU32();
  Out.Height = R.readU32();
  Out.CacheHit = R.readU8() != 0;
  Out.ServiceMicros = R.readU64();
  Out.NumPartials = R.readU32();
  Out.PixelCrc = R.readU32();
  if (!R.ok() && Error)
    *Error = "render done: " + R.error();
  return R.ok();
}

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

void dspec::appendFrame(std::vector<unsigned char> &Out, FrameType Type,
                        const unsigned char *Payload, size_t Size) {
  unsigned char Header[kFrameHeaderBytes] = {};
  auto PutU32 = [&Header](size_t At, uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Header[At + I] = static_cast<unsigned char>(V >> (8 * I));
  };
  PutU32(0, kFrameMagic);
  Header[4] = static_cast<unsigned char>(Type); // 5..7 stay reserved zero
  PutU32(8, static_cast<uint32_t>(Size));
  PutU32(12, crc32(Payload, Size));
  Out.insert(Out.end(), Header, Header + sizeof(Header));
  Out.insert(Out.end(), Payload, Payload + Size);
}

std::vector<unsigned char>
dspec::encodeFrame(FrameType Type, const std::vector<unsigned char> &Payload) {
  std::vector<unsigned char> Frame;
  Frame.reserve(kFrameHeaderBytes + Payload.size());
  appendFrame(Frame, Type, Payload.data(), Payload.size());
  return Frame;
}

bool dspec::writeFrame(Transport &T, FrameType Type,
                       const std::vector<unsigned char> &Payload) {
  std::vector<unsigned char> Frame = encodeFrame(Type, Payload);
  return T.writeAll(Frame.data(), Frame.size());
}

bool dspec::decodeFrameHeader(const unsigned char *Bytes, FrameHeader &Out,
                              std::string *Error) {
  ByteReader R(Bytes, kFrameHeaderBytes);
  uint32_t Magic = R.readU32();
  uint8_t RawType = R.readU8();
  R.readU8();
  R.readU8();
  R.readU8();
  Out.PayloadBytes = R.readU32();
  Out.PayloadCrc = R.readU32();
  if (Magic != kFrameMagic) {
    if (Error)
      *Error = "bad frame magic";
    return false;
  }
  if (RawType < static_cast<uint8_t>(FrameType::RenderRequest) ||
      RawType > static_cast<uint8_t>(FrameType::RenderDone)) {
    if (Error)
      *Error = "unknown frame type " + std::to_string(RawType);
    return false;
  }
  if (Out.PayloadBytes > kMaxFramePayload) {
    if (Error)
      *Error = "frame payload of " + std::to_string(Out.PayloadBytes) +
               " bytes exceeds the " + std::to_string(kMaxFramePayload) +
               "-byte limit";
    return false;
  }
  Out.Type = static_cast<FrameType>(RawType);
  return true;
}

bool dspec::readFrame(Transport &T, FrameType &Type,
                      std::vector<unsigned char> &Payload,
                      std::string *Error) {
  if (Error)
    Error->clear(); // empty Error on return false means clean EOF
  unsigned char Bytes[kFrameHeaderBytes];
  if (!T.readAll(Bytes, sizeof(Bytes)))
    return false;
  FrameHeader Header;
  if (!decodeFrameHeader(Bytes, Header, Error))
    return false;
  Payload.resize(Header.PayloadBytes);
  if (Header.PayloadBytes > 0 &&
      !T.readAll(Payload.data(), Header.PayloadBytes)) {
    if (Error)
      *Error = "frame payload truncated";
    return false;
  }
  if (crc32(Payload.data(), Payload.size()) != Header.PayloadCrc) {
    if (Error)
      *Error = "frame payload CRC mismatch";
    return false;
  }
  Type = Header.Type;
  return true;
}

std::optional<RenderReply> dspec::requestRender(Transport &T,
                                                const RenderRequest &Request,
                                                std::string *Error) {
  ByteWriter W;
  encodeRenderRequest(W, Request);
  if (!writeFrame(T, FrameType::RenderRequest, W.bytes())) {
    if (Error)
      *Error = "cannot send request (connection closed?)";
    return std::nullopt;
  }
  // The reply is either one RenderReply frame, or — when the server
  // honors StreamTiles — RenderPartial frames closed by a RenderDone
  // trailer. Reassemble the latter into the same RenderReply shape.
  std::vector<float> Assembled;
  uint32_t Partials = 0;
  // Every pixel-carrying frame must describe the image that was asked
  // for; the assembly buffer is sized from the request, never from a
  // frame's own dimensions.
  auto SizeIsRequested = [&](uint32_t Width, uint32_t Height) {
    if (Width == Request.Width && Height == Request.Height)
      return true;
    if (Error)
      *Error = "streamed reply is " + std::to_string(Width) + "x" +
               std::to_string(Height) + ", not the requested " +
               std::to_string(Request.Width) + "x" +
               std::to_string(Request.Height);
    return false;
  };
  for (;;) {
    FrameType Type;
    std::vector<unsigned char> Payload;
    std::string FrameError;
    if (!readFrame(T, Type, Payload, &FrameError)) {
      if (Error)
        *Error = FrameError.empty() ? "connection closed before the reply"
                                    : FrameError;
      return std::nullopt;
    }
    ByteReader R(Payload);
    if (Type == FrameType::RenderReply) {
      if (Partials != 0) {
        if (Error)
          *Error = "plain reply arrived inside a streamed reply";
        return std::nullopt;
      }
      RenderReply Reply;
      if (!decodeRenderReply(R, Reply, Error))
        return std::nullopt;
      return Reply;
    }
    if (Type == FrameType::RenderPartial) {
      RenderPartialChunk Chunk;
      if (!decodeRenderPartial(R, Chunk, Error) ||
          !SizeIsRequested(Chunk.Width, Chunk.Height))
        return std::nullopt;
      size_t Needed = static_cast<size_t>(Request.Width) * Request.Height * 3;
      if (Assembled.size() < Needed)
        Assembled.resize(Needed, 0.0f);
      std::copy(Chunk.Pixels.begin(), Chunk.Pixels.end(),
                Assembled.begin() + static_cast<size_t>(Chunk.PixelOffset) * 3);
      ++Partials;
      continue;
    }
    if (Type == FrameType::RenderDone) {
      RenderStreamDone Done;
      if (!decodeRenderDone(R, Done, Error))
        return std::nullopt;
      if (Done.NumPartials != Partials) {
        if (Error)
          *Error = "streamed reply lost chunks (" + std::to_string(Partials) +
                   " of " + std::to_string(Done.NumPartials) + " arrived)";
        return std::nullopt;
      }
      RenderReply Reply;
      Reply.Status = Done.Status;
      Reply.Error = Done.Error;
      Reply.Width = Done.Width;
      Reply.Height = Done.Height;
      Reply.CacheHit = Done.CacheHit;
      Reply.ServiceMicros = Done.ServiceMicros;
      if (Reply.ok()) {
        if (!SizeIsRequested(Done.Width, Done.Height))
          return std::nullopt;
        size_t Needed = static_cast<size_t>(Done.Width) * Done.Height * 3;
        if (Assembled.size() != Needed) {
          if (Error)
            *Error = "streamed reply pixel count does not match the image";
          return std::nullopt;
        }
        if (pixelCrc(Assembled) != Done.PixelCrc) {
          if (Error)
            *Error = "streamed reply pixel CRC mismatch";
          return std::nullopt;
        }
        Reply.Pixels = std::move(Assembled);
      }
      return Reply;
    }
    if (Error)
      *Error = "unexpected frame type in reply";
    return std::nullopt;
  }
}

std::optional<std::string> dspec::requestStats(Transport &T,
                                               std::string *Error) {
  if (!writeFrame(T, FrameType::StatsRequest, {})) {
    if (Error)
      *Error = "cannot send stats request";
    return std::nullopt;
  }
  FrameType Type;
  std::vector<unsigned char> Payload;
  std::string FrameError;
  if (!readFrame(T, Type, Payload, &FrameError)) {
    if (Error)
      *Error = FrameError.empty() ? "connection closed before the reply"
                                  : FrameError;
    return std::nullopt;
  }
  if (Type != FrameType::StatsReply) {
    if (Error)
      *Error = "unexpected frame type in stats reply";
    return std::nullopt;
  }
  return std::string(Payload.begin(), Payload.end());
}
