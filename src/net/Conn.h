//===- net/Conn.h - One client connection on an event loop ------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One nonblocking client connection, pinned to one EventLoop: owns the
/// fd, an incremental DSPF frame parser over a read buffer, a write
/// backlog with EPOLLOUT draining, a token-bucket request quota, and a
/// FIFO of reply slots so pipelined requests are answered strictly in
/// request order even when the service completes them out of order.
///
/// Threading: every method (and all state) belongs to the connection's
/// loop thread. The service's completion callbacks hop back onto the
/// loop via EventLoop::post with a weak_ptr, so a connection that died
/// mid-render is simply skipped.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_NET_CONN_H
#define DATASPEC_NET_CONN_H

#include "service/Protocol.h"

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace dspec {

class EventLoop;
class NetServer;

class Conn : public std::enable_shared_from_this<Conn> {
public:
  using Clock = std::chrono::steady_clock;

  Conn(NetServer &Server, EventLoop &Loop, size_t LoopIndex, int Fd,
       uint64_t Id);
  ~Conn();
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;

  /// Registers the fd with the loop. Loop thread only.
  bool start();

  /// Unregisters, closes the fd, fails every pending slot, and tells the
  /// server to drop its reference. Idempotent. Loop thread only.
  void close(const char *Why);

  uint64_t id() const { return Id; }
  bool closed() const { return Fd < 0; }

  /// Render slots admitted to the service and not yet completed.
  unsigned inFlightRenders() const { return InFlightRenders; }
  /// Bytes queued for write and not yet accepted by the kernel.
  size_t writeBacklogBytes() const { return OutBuf.size() - OutConsumed; }
  /// Reply slots not yet fully serialized to the write backlog.
  size_t pendingSlots() const { return Pending.size(); }

  /// Takes one token from the request quota bucket (refilled at the
  /// server's configured rate); false = over quota, shed this request.
  bool takeQuotaToken();

  /// True when a frame has been arriving piecemeal since before
  /// \p Deadline — the slow-loris signal the reaper sweeps for.
  bool readStalledSince(Clock::time_point Deadline) const {
    return PartialFrame && PartialSince <= Deadline;
  }

  //===--------------------------------------------------------------------===//
  // Reply slots (FIFO order)
  //===--------------------------------------------------------------------===//

  /// Reserves the next render reply slot (counts toward the in-flight
  /// cap); replies flush strictly in slot order.
  uint64_t openRenderSlot();
  /// Reserves the next stats reply slot.
  uint64_t openStatsSlot();
  /// Completes a render slot (loop thread; posted from the dispatcher).
  void completeRender(uint64_t Seq, RenderReply Reply);
  /// Completes a stats slot with the /statsz JSON document.
  void completeStats(uint64_t Seq, std::string Json);

private:
  friend class NetServer;

  struct Slot {
    uint64_t Seq = 0;
    bool Done = false;
    bool IsStats = false;
    bool CountsInFlight = false;
    RenderReply Reply;
    std::string StatsJson;
  };

  void onEvents(uint32_t Events);
  void onReadable();
  void onWritable();
  /// Parses complete frames out of InBuf; false = protocol violation.
  bool parseFrames();
  /// Serializes every leading completed slot into OutBuf, then writes.
  void flushReady();
  void serializeSlot(Slot &S);
  void enableWriteInterest(bool On);
  Slot *findSlot(uint64_t Seq);

  NetServer &Server;
  EventLoop &Loop;
  size_t LoopIndex = 0;
  int Fd = -1;
  uint64_t Id = 0;
  bool WantWrite = false;

  std::vector<unsigned char> InBuf;
  bool PartialFrame = false;
  Clock::time_point PartialSince{};

  std::vector<unsigned char> OutBuf;
  size_t OutConsumed = 0;

  std::deque<Slot> Pending;
  uint64_t NextSeq = 1;
  unsigned InFlightRenders = 0;

  double QuotaTokens = 0.0;
  Clock::time_point QuotaRefilled{};
};

} // namespace dspec

#endif // DATASPEC_NET_CONN_H
