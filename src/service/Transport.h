//===- service/Transport.h - Byte transports for the service ----*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reliable, ordered byte stream the framed protocol's client side
/// runs over, and the two client sockets that provide one: a unix-domain
/// stream socket (`dspec request --socket`) and a TCP connection
/// (`--tcp`). The server side is net/NetServer, an event loop that
/// speaks the same frames without this interface.
///
/// A transport moves bytes, nothing more; framing, checksums, and message
/// semantics live in service/Protocol.h. shutdown() is safe to call from
/// any thread and unblocks concurrent readAll/writeAll calls.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_SERVICE_TRANSPORT_H
#define DATASPEC_SERVICE_TRANSPORT_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace dspec {

/// A reliable, ordered, bidirectional byte stream.
class Transport {
public:
  virtual ~Transport() = default;

  /// Writes exactly \p Size bytes; false on a closed/failed peer.
  virtual bool writeAll(const void *Data, size_t Size) = 0;

  /// Reads exactly \p Size bytes; false on EOF or failure (a short read
  /// mid-message is a failure, not a partial success).
  virtual bool readAll(void *Data, size_t Size) = 0;

  /// Makes all current and future I/O on this endpoint fail promptly.
  /// Thread-safe; idempotent.
  virtual void shutdown() = 0;
};

/// Connects to a unix-domain socket; null with \p Error set on failure.
std::unique_ptr<Transport> connectUnixSocket(const std::string &SocketPath,
                                             std::string *Error);

/// Connects to a TCP endpoint (\p Host is an IPv4 address like
/// 127.0.0.1); null with \p Error set on failure. TCP_NODELAY is set —
/// the protocol is request/response and latency-sensitive.
std::unique_ptr<Transport> connectTcp(const std::string &Host, uint16_t Port,
                                      std::string *Error);

} // namespace dspec

#endif // DATASPEC_SERVICE_TRANSPORT_H
