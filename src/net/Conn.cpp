//===- net/Conn.cpp - One client connection on an event loop ----------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/Conn.h"

#include "net/EventLoop.h"
#include "net/NetServer.h"
#include "support/ByteStream.h"
#include "support/Crc32.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace dspec;

Conn::Conn(NetServer &Server, EventLoop &Loop, int Fd, uint64_t Id)
    : Server(Server), Loop(Loop), Fd(Fd), Id(Id),
      QuotaTokens(Server.config().QuotaBurst),
      QuotaRefilled(Clock::now()) {}

Conn::~Conn() {
  if (Fd >= 0)
    ::close(Fd);
}

bool Conn::start() {
  int Domain = 0, SendBuf = 0;
  socklen_t Len = sizeof(Domain);
  if (::getsockopt(Fd, SOL_SOCKET, SO_DOMAIN, &Domain, &Len) == 0 &&
      Domain == AF_UNIX) {
    Len = sizeof(SendBuf);
    if (::getsockopt(Fd, SOL_SOCKET, SO_SNDBUF, &SendBuf, &Len) == 0)
      SendBufBytes = static_cast<size_t>(std::max(SendBuf, 1));
  }
  // The handler keeps the connection alive for the duration of any
  // callback even if close() drops every other reference mid-call.
  auto Self = shared_from_this();
  return Loop.registerFd(Fd, EPOLLIN,
                         [Self](uint32_t Events) { Self->onEvents(Events); });
}

void Conn::close(const char *Why) {
  (void)Why;
  if (Fd < 0)
    return;
  Loop.unregisterFd(Fd);
  ::close(Fd);
  Fd = -1;
  Pending.clear();
  Server.removeConn(*this);
}

bool Conn::takeQuotaToken() {
  double Rate = Server.config().QuotaRps;
  if (Rate <= 0.0)
    return true;
  Clock::time_point Now = Clock::now();
  double Elapsed = std::chrono::duration<double>(Now - QuotaRefilled).count();
  QuotaRefilled = Now;
  QuotaTokens = std::min(Server.config().QuotaBurst,
                         QuotaTokens + Elapsed * Rate);
  if (QuotaTokens < 1.0)
    return false;
  QuotaTokens -= 1.0;
  return true;
}

void Conn::onEvents(uint32_t Events) {
  if (Events & (EPOLLHUP | EPOLLERR)) {
    close("socket error/hangup");
    return;
  }
  if (Events & EPOLLIN)
    onReadable();
  if (closed())
    return;
  if (Events & EPOLLOUT)
    onWritable();
}

void Conn::onReadable() {
  unsigned char Buf[64 * 1024];
  for (;;) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N > 0) {
      InBuf.insert(InBuf.end(), Buf, Buf + N);
      if (N < static_cast<ssize_t>(sizeof(Buf)))
        break;
      continue;
    }
    if (N == 0) { // clean EOF
      close("peer closed");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      break;
    if (errno == EINTR)
      continue;
    close("read error");
    return;
  }
  if (!parseFrames()) {
    ++Server.StatProtocolErrors;
    close("protocol violation");
  }
}

bool Conn::parseFrames() {
  size_t Consumed = 0;
  for (;;) {
    size_t Avail = InBuf.size() - Consumed;
    if (Avail < kFrameHeaderBytes)
      break;
    FrameHeader Header;
    if (!decodeFrameHeader(InBuf.data() + Consumed, Header, nullptr))
      return false;
    size_t FrameBytes = kFrameHeaderBytes + Header.PayloadBytes;
    if (Avail < FrameBytes)
      break; // frame still arriving
    const unsigned char *Body = InBuf.data() + Consumed + kFrameHeaderBytes;
    if (crc32(Body, Header.PayloadBytes) != Header.PayloadCrc)
      return false;
    std::vector<unsigned char> Payload(Body, Body + Header.PayloadBytes);
    Consumed += FrameBytes;
    if (!Server.handleFrame(*this, Header.Type, Payload))
      return false;
    if (closed())
      return true; // handleFrame (or backlog pressure) closed us
  }
  if (Consumed > 0)
    InBuf.erase(InBuf.begin(), InBuf.begin() + Consumed);
  // Track when the current *incomplete* frame started arriving. The
  // deadline is anchored to the frame start, not the last byte, so a
  // client dripping one byte per second cannot dodge the reaper.
  if (InBuf.empty()) {
    PartialFrame = false;
  } else if (!PartialFrame) {
    PartialFrame = true;
    PartialSince = Clock::now();
  }
  return true;
}

uint64_t Conn::openRenderSlot() {
  Slot S;
  S.Seq = NextSeq++;
  S.CountsInFlight = true;
  ++InFlightRenders;
  Pending.push_back(std::move(S));
  return Pending.back().Seq;
}

uint64_t Conn::openStatsSlot() {
  Slot S;
  S.Seq = NextSeq++;
  S.IsStats = true;
  Pending.push_back(std::move(S));
  return Pending.back().Seq;
}

Conn::Slot *Conn::findSlot(uint64_t Seq) {
  for (Slot &S : Pending)
    if (S.Seq == Seq)
      return &S;
  return nullptr;
}

void Conn::completeRender(uint64_t Seq, RenderReply Reply) {
  Slot *S = findSlot(Seq);
  if (!S)
    return; // connection already tore the slot down
  if (S->CountsInFlight && InFlightRenders > 0)
    --InFlightRenders;
  S->Reply = std::move(Reply);
  S->Done = true;
  flushReady();
}

void Conn::completeStats(uint64_t Seq, std::string Json) {
  Slot *S = findSlot(Seq);
  if (!S)
    return;
  S->StatsJson = std::move(Json);
  S->Done = true;
  flushReady();
}

void Conn::serializeSlot(Slot &S) {
  // Every frame goes header-then-payload straight into OutBuf.
  size_t Before = OutBuf.size();
  if (S.IsStats) {
    appendFrame(OutBuf, FrameType::StatsReply,
                reinterpret_cast<const unsigned char *>(S.StatsJson.data()),
                S.StatsJson.size());
  } else {
    ByteWriter W;
    encodeRenderReply(W, S.Reply);
    appendFrame(OutBuf, FrameType::RenderReply, W.bytes().data(), W.size());
  }
  fitSendBuffer(OutBuf.size() - Before);
}

void Conn::fitSendBuffer(size_t FrameBytes) {
  // A unix socket's default send buffer (212,992 bytes) is smaller than
  // a 160x120 reply frame (230,442), so without this the frame's tail
  // waits for an EPOLLOUT wake-up. The kernel doubles the value and caps
  // it at net.core.wmem_max; even the default cap, doubled, holds such a
  // frame. Remembering the frame size rather than the granted size keeps
  // a capped connection from asking again for every frame of that size.
  if (SendBufBytes == 0 || FrameBytes <= SendBufBytes)
    return;
  int Want = static_cast<int>(
      std::min<size_t>(FrameBytes, std::numeric_limits<int>::max()));
  ::setsockopt(Fd, SOL_SOCKET, SO_SNDBUF, &Want, sizeof(Want));
  SendBufBytes = FrameBytes;
}

void Conn::flushReady() {
  // Strict FIFO: only leading completed slots serialize, so pipelined
  // replies always arrive in request order no matter which dispatcher
  // finished first.
  while (!Pending.empty() && Pending.front().Done) {
    serializeSlot(Pending.front());
    Pending.pop_front();
  }
  if (writeBacklogBytes() > Server.config().MaxWriteBacklog) {
    ++Server.StatBackpressureCloses;
    close("write backlog over limit");
    return;
  }
  onWritable();
}

void Conn::onWritable() {
  if (closed())
    return;
  while (OutConsumed < OutBuf.size()) {
    ssize_t N = ::send(Fd, OutBuf.data() + OutConsumed,
                       OutBuf.size() - OutConsumed, MSG_NOSIGNAL);
    if (N > 0) {
      OutConsumed += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!WantWrite)
        ++Server.StatSendWaits;
      enableWriteInterest(true);
      // Reclaim the consumed prefix so a long-lived trickling connection
      // does not pin the full history of its replies in memory.
      if (OutConsumed > (1u << 20)) {
        OutBuf.erase(OutBuf.begin(), OutBuf.begin() + OutConsumed);
        OutConsumed = 0;
      }
      return;
    }
    if (N < 0 && errno == EINTR)
      continue;
    close("write error");
    return;
  }
  OutBuf.clear();
  OutConsumed = 0;
  enableWriteInterest(false);
}

void Conn::enableWriteInterest(bool On) {
  if (On == WantWrite)
    return;
  WantWrite = On;
  Loop.updateFd(Fd, EPOLLIN | (On ? EPOLLOUT : 0u));
}
