//===- net/NetServer.h - Event-loop service front end -----------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event-loop network front end for the specialization service: one
/// IO thread running one EventLoop, which accepts and serves every
/// nonblocking TCP and unix-socket connection speaking the DSPF
/// protocol. It is the project's only server: `dspec serve`, the service
/// tests and the benchmarks all run it.
///
/// Per-client fairness is enforced per connection, before a request ever
/// reaches the service queue: a token-bucket request quota and an
/// in-flight cap, both answered with a distinct ShedQuota status so a
/// greedy client sees *its* requests shed while well-behaved clients'
/// replies stay untouched. Slow-loris clients — a frame header trickled
/// byte by byte — are reaped by the loop's sweep timer when the frame
/// they started sending stalls past the read deadline.
///
/// Shutdown is cooperative: beginDrain() closes the acceptors (in-flight
/// connections keep draining), quiesce() waits for every pending reply
/// to reach the kernel, shutdown() stops the loop and joins. The stop
/// signal rides the loop's eventfd wakeup, so a parked epoll_wait wakes
/// immediately — no polling interval anywhere on the shutdown path.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_NET_NETSERVER_H
#define DATASPEC_NET_NETSERVER_H

#include "net/Acceptor.h"
#include "net/Conn.h"
#include "net/EventLoop.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace dspec {

class SpecializationService;

struct NetServerConfig {
  /// Unix-socket path to listen on; empty = no unix acceptor.
  std::string UnixPath;
  /// TCP listen address ("127.0.0.1:7654", port 0 = ephemeral); empty =
  /// no TCP acceptor. At least one of the two must be set.
  std::string TcpHostPort;
  /// A connection whose in-progress frame stalls longer than this is
  /// reaped (the slow-loris defense). 0 disables reaping.
  unsigned ReadDeadlineMillis = 5000;
  /// Token-bucket request quota per connection, in requests/second;
  /// 0 = unlimited. Requests past the bucket shed with ShedQuota.
  double QuotaRps = 0.0;
  /// Bucket depth: how many requests may burst above the rate.
  double QuotaBurst = 8.0;
  /// Per-connection cap on in-flight (admitted, unanswered) renders;
  /// pipelining past it sheds with ShedQuota.
  unsigned MaxClientQueue = 32;
  /// A connection whose unread replies exceed this many bytes is closed
  /// (a reader this slow is indistinguishable from a dead one).
  size_t MaxWriteBacklog = 64u << 20;
};

/// Monotonic front-end counters (all atomics; readable while serving).
struct NetServerStats {
  uint64_t Accepted = 0;
  uint64_t ActiveConns = 0;
  uint64_t QuotaSheds = 0;
  uint64_t DeadlineReaps = 0;
  uint64_t ProtocolErrors = 0;
  uint64_t BackpressureCloses = 0;
  /// Times a connection's pending replies did not all leave in one send
  /// and it waited for EPOLLOUT.
  uint64_t SendWaits = 0;
};

class NetServer {
public:
  NetServer(SpecializationService &Service, NetServerConfig Config);
  ~NetServer();
  NetServer(const NetServer &) = delete;
  NetServer &operator=(const NetServer &) = delete;

  /// Binds the acceptors and starts the IO thread. False with \p Error
  /// on bind failure or a config with no listen address.
  bool start(std::string *Error);

  /// The TCP port actually bound (after port-0 resolution); 0 if none.
  uint16_t boundTcpPort() const { return TcpPort; }

  /// Stops accepting new connections; established ones keep draining.
  /// Idempotent, callable from any thread.
  void beginDrain();

  /// Waits until every connection's pending replies have been serialized
  /// and written to the kernel (or \p TimeoutSeconds passed). Call after
  /// the service has drained so no new completions are in flight.
  bool quiesce(double TimeoutSeconds);

  /// beginDrain + stop the loop + join the IO thread. Idempotent; called
  /// by the destructor. Connections still open are torn down.
  void shutdownServer();

  NetServerStats stats() const;
  /// The /statsz "net" section: the same counters as a JSON object.
  std::string statsJson() const;

  const NetServerConfig &config() const { return Config; }

private:
  friend class Conn;

  /// Handles one decoded frame from \p C; false closes the connection
  /// (protocol violation). Loop thread.
  bool handleFrame(Conn &C, FrameType Type,
                   const std::vector<unsigned char> &Payload);
  void handleRenderRequest(Conn &C, const std::vector<unsigned char> &Payload);

  /// Accepts every pending connection on \p A and registers each with
  /// the loop. Loop thread.
  void onAcceptable(Acceptor &A);
  /// Reaps connections whose in-progress frame stalled. Loop thread.
  void sweepDeadlines();
  /// Drops the server's reference to \p C. Loop thread.
  void removeConn(Conn &C);

  SpecializationService &Service;
  NetServerConfig Config;

  EventLoop Loop;
  std::thread IoThread;
  /// Owned by the loop thread (created and erased only there).
  std::unordered_map<uint64_t, std::shared_ptr<Conn>> Conns;
  std::vector<Acceptor> Acceptors;
  uint16_t TcpPort = 0;
  uint64_t NextConnId = 1;
  std::atomic<bool> Draining{false};
  std::atomic<bool> Stopped{false};
  bool Started = false;

  std::atomic<uint64_t> StatAccepted{0};
  std::atomic<uint64_t> StatActiveConns{0};
  std::atomic<uint64_t> StatQuotaSheds{0};
  std::atomic<uint64_t> StatDeadlineReaps{0};
  std::atomic<uint64_t> StatProtocolErrors{0};
  std::atomic<uint64_t> StatBackpressureCloses{0};
  std::atomic<uint64_t> StatSendWaits{0};
};

} // namespace dspec

#endif // DATASPEC_NET_NETSERVER_H
