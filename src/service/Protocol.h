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
/// StatsReply (a JSON metrics snapshot). Every request is answered with
/// exactly one RenderReply. Types 5 and 6 carried streamed replies,
/// which are retired: they are unknown types now and are not reused.
/// Like the snapshot reader, the decoder treats input as untrusted:
/// magic/type/length bounds and the CRC are validated and every payload
/// read is bounds-checked, so a corrupt or malicious peer produces a
/// diagnostic, never UB.
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

//===----------------------------------------------------------------------===//
// Payload serde
//===----------------------------------------------------------------------===//

void encodeRenderRequest(ByteWriter &W, const RenderRequest &Request);
/// Requests from older clients end with a u32 of variant pins and a u8
/// streaming flag, both retired; those trailing bytes are left unread.
bool decodeRenderRequest(ByteReader &R, RenderRequest &Out,
                         std::string *Error);

void encodeRenderReply(ByteWriter &W, const RenderReply &Reply);
bool decodeRenderReply(ByteReader &R, RenderReply &Out, std::string *Error);

/// CRC-32 over a pixel vector's float bytes (their IEEE-754 patterns).
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

/// Client convenience: send a render request, read its one RenderReply.
/// Nullopt with \p Error set on transport/protocol failure (a rejected
/// request is a *successful* round trip carrying a non-Ok status).
std::optional<RenderReply> requestRender(Transport &T,
                                         const RenderRequest &Request,
                                         std::string *Error);

/// Client convenience: fetch the /statsz JSON metrics snapshot.
std::optional<std::string> requestStats(Transport &T, std::string *Error);

} // namespace dspec

#endif // DATASPEC_SERVICE_PROTOCOL_H
