//===- service/Protocol.h - Framed binary service protocol ------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The specialization service's wire protocol: length-prefixed,
/// CRC-checked frames over any Transport. Every frame is
///
///   offset  size  field
///   0       4     u32 magic "DSPF"
///   4       1     u8 frame type
///   5       3     reserved (zero)
///   8       4     u32 payload byte count
///   12      4     u32 CRC-32 of the payload
///   16      ...   payload (ByteStream-encoded, little-endian)
///
/// Frame types: RenderRequest (shader + varying set + control values +
/// image size + deadline + options), RenderReply (framebuffer or a
/// structured error with a shed/failure reason), StatsRequest, and
/// StatsReply (a JSON metrics snapshot). Like the snapshot reader, the
/// decoder treats input as untrusted: magic/type/length bounds and the
/// CRC are validated and every payload read is bounds-checked, so a
/// corrupt or malicious peer produces a diagnostic, never UB.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_SERVICE_PROTOCOL_H
#define DATASPEC_SERVICE_PROTOCOL_H

#include "engine/RenderContext.h"
#include "specialize/SpecializerOptions.h"
#include "support/ByteStream.h"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace dspec {

class Transport;

/// First four bytes of every frame ("DSPF", little-endian).
constexpr uint32_t kFrameMagic = 0x46505344u;

/// Size of the frame header that precedes every payload.
constexpr size_t kFrameHeaderBytes = 16;

/// Frames larger than this are rejected before allocation (a corrupt
/// length field must not become a giant allocation).
constexpr uint32_t kMaxFramePayload = 64u << 20;

enum class FrameType : uint8_t {
  RenderRequest = 1,
  RenderReply = 2,
  StatsRequest = 3,
  StatsReply = 4,
  /// One contiguous run of pixels from a streamed reply (StreamTiles).
  RenderPartial = 5,
  /// Trailer of a streamed reply: status, metadata, and a CRC over the
  /// pixels delivered by the preceding RenderPartial frames.
  RenderDone = 6,
};

/// One render request: which gallery shader, over what grid, with which
/// controls varying at what values.
struct RenderRequest {
  std::string Shader;
  uint32_t Width = 48;
  uint32_t Height = 32;
  /// Names of the varying controls; empty = the shader's first control.
  std::vector<std::string> Varying;
  /// One value per control parameter; empty = the shader's defaults.
  std::vector<float> Controls;
  /// Queue deadline in milliseconds from submission; 0 = none. Requests
  /// still queued past their deadline are shed, not rendered late.
  uint32_t DeadlineMillis = 0;
  /// Maximum abstract-property pins the service may canonicalize this
  /// request onto (0 = generic variant only). When positive, controls
  /// whose value is exactly 0.0 or 1.0 pin the request to the most
  /// specific admissible property variant — a distinct cache entry with a
  /// leaner reader. Encoded as a trailing field; absent on the wire means
  /// 0, so pre-variant encoders stay compatible.
  uint32_t VariantPins = 0;
  /// Ask the server to stream the framebuffer as RenderPartial frames
  /// followed by a RenderDone trailer instead of one RenderReply. Only
  /// the event-loop front end honors this; requestRender() reassembles
  /// transparently. Trailing field: absent on the wire means false.
  bool StreamTiles = false;

  // Specializer options (the fields that change the generated unit, and
  // therefore the cache key).
  bool JoinNormalize = true;
  bool Reassociate = false;
  bool Speculation = false;
  std::optional<uint32_t> CacheByteLimit;

  SpecializerOptions toOptions() const {
    SpecializerOptions O;
    O.EnableJoinNormalize = JoinNormalize;
    O.EnableReassociate = Reassociate;
    O.AllowSpeculation = Speculation;
    if (CacheByteLimit)
      O.CacheByteLimit = *CacheByteLimit;
    return O;
  }
};

/// Why a request did not produce a framebuffer (Ok means it did).
enum class RenderStatus : uint8_t {
  Ok = 0,
  /// Malformed or unsatisfiable request (unknown shader, bad controls).
  BadRequest = 1,
  /// The specializer/compiler failed on a miss.
  SpecializeError = 2,
  /// A VM trap during the loader or reader pass.
  RenderTrap = 3,
  /// Shed at admission: the bounded queue was full.
  ShedQueueFull = 4,
  /// Shed at dispatch: the request sat queued past its deadline.
  ShedDeadline = 5,
  /// Rejected because the service is draining for shutdown.
  Draining = 6,
  /// Shed by the network front end: the client exceeded its request
  /// quota (token bucket) or its per-client in-queue cap.
  ShedQuota = 7,
};

const char *renderStatusName(RenderStatus Status);

/// A request's outcome: a framebuffer (Ok) or a reasoned rejection.
struct RenderReply {
  RenderStatus Status = RenderStatus::Ok;
  std::string Error;
  uint32_t Width = 0;
  uint32_t Height = 0;
  /// Row-major RGB triples, Width*Height*3 floats (bit-exact: floats
  /// travel as their IEEE-754 bit patterns).
  std::vector<float> Pixels;
  /// True when the request was served from a cached unit (no
  /// specialization ran on its behalf).
  bool CacheHit = false;
  /// Server-side latency, submission to completion, in microseconds.
  uint64_t ServiceMicros = 0;

  bool ok() const { return Status == RenderStatus::Ok; }

  /// Rebuilds the framebuffer (vec3 pixels) from the RGB triples.
  Framebuffer toFramebuffer() const;
  static RenderReply fromFramebuffer(const Framebuffer &Fb);
};

/// One contiguous pixel run of a streamed reply.
struct RenderPartialChunk {
  uint32_t Width = 0;
  uint32_t Height = 0;
  /// Offset of the first pixel in this chunk (row-major pixel index).
  uint32_t PixelOffset = 0;
  /// RGB triples for PixelCount pixels (Pixels.size() == PixelCount*3).
  uint32_t PixelCount = 0;
  std::vector<float> Pixels;
};

/// Trailer of a streamed reply (everything RenderReply carries except
/// the pixels, which arrived in RenderPartial frames).
struct RenderStreamDone {
  RenderStatus Status = RenderStatus::Ok;
  std::string Error;
  uint32_t Width = 0;
  uint32_t Height = 0;
  bool CacheHit = false;
  uint64_t ServiceMicros = 0;
  /// How many RenderPartial frames preceded this trailer.
  uint32_t NumPartials = 0;
  /// CRC-32 over the assembled pixel floats (their IEEE-754 bytes), so
  /// a dropped or reordered chunk is detected even if sizes line up.
  uint32_t PixelCrc = 0;
};

//===----------------------------------------------------------------------===//
// Payload serde
//===----------------------------------------------------------------------===//

void encodeRenderRequest(ByteWriter &W, const RenderRequest &Request);
bool decodeRenderRequest(ByteReader &R, RenderRequest &Out,
                         std::string *Error);

void encodeRenderReply(ByteWriter &W, const RenderReply &Reply);
bool decodeRenderReply(ByteReader &R, RenderReply &Out, std::string *Error);

void encodeRenderPartial(ByteWriter &W, const RenderPartialChunk &Chunk);
bool decodeRenderPartial(ByteReader &R, RenderPartialChunk &Out,
                         std::string *Error);

void encodeRenderDone(ByteWriter &W, const RenderStreamDone &Done);
bool decodeRenderDone(ByteReader &R, RenderStreamDone &Out,
                      std::string *Error);

/// CRC-32 over a pixel vector's float bytes (the streaming checksum).
uint32_t pixelCrc(const std::vector<float> &Pixels);

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

/// Appends one frame to \p Out: the header (magic, type, length, CRC of
/// one pass over the payload), then the \p Size payload bytes. The one
/// place the header layout is encoded; encodeFrame and the event-loop
/// writer both go through it.
void appendFrame(std::vector<unsigned char> &Out, FrameType Type,
                 const unsigned char *Payload, size_t Size);

/// A frame header's fields once decodeFrameHeader has validated them.
struct FrameHeader {
  FrameType Type = FrameType::RenderRequest;
  uint32_t PayloadBytes = 0;
  uint32_t PayloadCrc = 0;
};

/// Decodes the kFrameHeaderBytes at \p Bytes and checks the magic, the
/// frame type and the payload bound. False with \p Error (optional) set
/// on a violation.
bool decodeFrameHeader(const unsigned char *Bytes, FrameHeader &Out,
                       std::string *Error);

/// Wraps \p Payload in a frame header (magic, type, length, CRC).
std::vector<unsigned char> encodeFrame(FrameType Type,
                                       const std::vector<unsigned char> &Payload);

/// Sends one frame. False on transport failure.
bool writeFrame(Transport &T, FrameType Type,
                const std::vector<unsigned char> &Payload);

/// Receives one frame, validating magic, length bound, and CRC. Returns
/// false on clean EOF (\p Error left empty) or on a protocol/transport
/// error (\p Error set).
bool readFrame(Transport &T, FrameType &Type,
               std::vector<unsigned char> &Payload, std::string *Error);

/// Client convenience: send a render request, wait for the reply.
/// Nullopt with \p Error set on transport/protocol failure (a rejected
/// request is a *successful* round trip carrying a non-Ok status).
std::optional<RenderReply> requestRender(Transport &T,
                                         const RenderRequest &Request,
                                         std::string *Error);

/// Client convenience: fetch the /statsz JSON metrics snapshot.
std::optional<std::string> requestStats(Transport &T, std::string *Error);

} // namespace dspec

#endif // DATASPEC_SERVICE_PROTOCOL_H
