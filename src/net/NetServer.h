//===- net/NetServer.h - Event-loop service front end -----------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event-loop network front end for the specialization service: N IO
/// threads, each running one EventLoop, serving nonblocking TCP and
/// unix-socket connections speaking the DSPF protocol. It is the
/// project's only server: `dspec serve`, the service tests and the
/// benchmarks all run it.
///
/// Per-client fairness is enforced per connection, before a request ever
/// reaches the service queue: a token-bucket request quota and an
/// in-flight cap, both answered with a distinct ShedQuota status so a
/// greedy client sees *its* requests shed while well-behaved clients'
/// replies stay untouched. Slow-loris clients — a frame header trickled
/// byte by byte — are reaped by a per-loop sweep timer when the frame
/// they started sending stalls past the read deadline.
///
/// Shutdown is cooperative: beginDrain() closes the acceptors (in-flight
/// connections keep draining), quiesce() waits for every pending reply
/// to reach the kernel, shutdown() stops the loops and joins. The stop
/// signal rides each loop's eventfd wakeup, so a parked epoll_wait wakes
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
  /// IO threads (event loops); connections are assigned round-robin.
  unsigned IoThreads = 2;
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

  /// Binds the acceptors and starts the IO threads. False with \p Error
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

  /// beginDrain + stop every loop + join the IO threads. Idempotent;
  /// called by the destructor. Connections still open are torn down.
  void shutdownServer();

  NetServerStats stats() const;
  /// The /statsz "net" section: the same counters as a JSON object.
  std::string statsJson() const;

  const NetServerConfig &config() const { return Config; }

private:
  friend class Conn;

  struct IoLoop {
    EventLoop Loop;
    std::thread Thread;
    /// Owned by the loop thread (created/erased only there).
    std::unordered_map<uint64_t, std::shared_ptr<Conn>> Conns;
  };

  /// Handles one decoded frame from \p C; false closes the connection
  /// (protocol violation). Loop thread of \p C.
  bool handleFrame(Conn &C, FrameType Type,
                   const std::vector<unsigned char> &Payload);
  void handleRenderRequest(Conn &C, const std::vector<unsigned char> &Payload);

  void onAcceptable(Acceptor &A);
  /// Hands a fresh fd to the next loop (round-robin) for adoption.
  void adoptConnection(int Fd);
  /// Sweeps \p L's connections for stalled reads. Loop thread of \p L.
  void sweepDeadlines(IoLoop &L);
  /// Drops the server's reference to \p C. Loop thread of \p C.
  void removeConn(Conn &C);

  SpecializationService &Service;
  NetServerConfig Config;

  std::vector<std::unique_ptr<IoLoop>> Loops;
  std::vector<Acceptor> Acceptors;
  uint16_t TcpPort = 0;
  std::atomic<uint64_t> NextConnId{1};
  std::atomic<size_t> NextLoop{0};
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
