//===- net/NetServer.cpp - Event-loop service front end ---------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/NetServer.h"

#include "service/Service.h"
#include "support/ByteStream.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <chrono>
#include <future>

#include <sys/epoll.h>
#include <unistd.h>

using namespace dspec;

NetServer::NetServer(SpecializationService &Service, NetServerConfig InConfig)
    : Service(Service), Config(std::move(InConfig)) {}

NetServer::~NetServer() { shutdownServer(); }

bool NetServer::start(std::string *Error) {
  if (Config.UnixPath.empty() && Config.TcpHostPort.empty()) {
    if (Error)
      *Error = "no listen address (need a unix path or host:port)";
    return false;
  }

  if (!Config.UnixPath.empty()) {
    Acceptor A;
    if (!A.listenUnix(Config.UnixPath, Error))
      return false;
    Acceptors.push_back(std::move(A));
  }
  if (!Config.TcpHostPort.empty()) {
    Acceptor A;
    if (!A.listenTcp(Config.TcpHostPort, Error)) {
      Acceptors.clear();
      return false;
    }
    TcpPort = A.boundPort();
    Acceptors.push_back(std::move(A));
  }

  if (!Loop.valid()) {
    if (Error)
      *Error = "cannot create event loop (epoll/eventfd)";
    Acceptors.clear();
    return false;
  }
  for (Acceptor &A : Acceptors)
    Loop.registerFd(A.fd(), EPOLLIN, [this, &A](uint32_t) { onAcceptable(A); });
  if (Config.ReadDeadlineMillis > 0)
    Loop.setPeriodic(
        std::max(0.01, static_cast<double>(Config.ReadDeadlineMillis) / 4000.0),
        [this] { sweepDeadlines(); });

  IoThread = std::thread([this] { Loop.run(); });
  Started = true;
  return true;
}

void NetServer::onAcceptable(Acceptor &A) {
  for (;;) {
    int Fd = A.acceptOne();
    if (Fd < 0)
      return;
    if (Draining.load()) {
      ::close(Fd); // drain began between the poll and the accept
      continue;
    }
    // The acceptor's handler runs on the loop thread, so the connection
    // registers right here. accept may hand back a descriptor that a
    // close earlier in this poll batch freed; mid-batch a connection
    // closes only in its own event's handler, and epoll reports a
    // descriptor at most once a batch, so no stale event reaches the new
    // connection.
    uint64_t Id = NextConnId++;
    ++StatAccepted;
    ++StatActiveConns;
    auto C = std::make_shared<Conn>(*this, Loop, Fd, Id);
    if (!C->start()) {
      --StatActiveConns;
      continue; // registration failed; ~Conn closes the fd
    }
    Conns.emplace(Id, std::move(C));
  }
}

void NetServer::removeConn(Conn &C) {
  --StatActiveConns;
  Conns.erase(C.id());
}

void NetServer::sweepDeadlines() {
  Conn::Clock::time_point Cutoff =
      Conn::Clock::now() - std::chrono::milliseconds(Config.ReadDeadlineMillis);
  // Collect first: close() mutates the map we are sweeping.
  std::vector<std::shared_ptr<Conn>> Stalled;
  for (auto &[Id, C] : Conns)
    if (C->readStalledSince(Cutoff))
      Stalled.push_back(C);
  for (auto &C : Stalled) {
    ++StatDeadlineReaps;
    C->close("read deadline (slow-loris)");
  }
}

bool NetServer::handleFrame(Conn &C, FrameType Type,
                            const std::vector<unsigned char> &Payload) {
  switch (Type) {
  case FrameType::RenderRequest:
    handleRenderRequest(C, Payload);
    return true;
  case FrameType::StatsRequest: {
    uint64_t Seq = C.openStatsSlot();
    C.completeStats(Seq, Service.statsz().toJson());
    return true;
  }
  default:
    // Reply frames from a client are a protocol violation.
    return false;
  }
}

void NetServer::handleRenderRequest(
    Conn &C, const std::vector<unsigned char> &Payload) {
  RenderRequest Request;
  ByteReader R(Payload);
  std::string Error;
  if (!decodeRenderRequest(R, Request, &Error)) {
    Service.recordBadRequest();
    uint64_t Seq = C.openRenderSlot();
    RenderReply Reply;
    Reply.Status = RenderStatus::BadRequest;
    Reply.Error = std::move(Error);
    C.completeRender(Seq, std::move(Reply));
    return;
  }

  // Per-client fairness, enforced before the service queue: a token
  // bucket on request rate and a cap on in-flight pipelining. Both shed
  // with ShedQuota — the client sees exactly why, and other clients'
  // requests never queue behind the excess.
  const char *ShedWhy = nullptr;
  if (!C.takeQuotaToken())
    ShedWhy = "request quota exceeded (token bucket empty)";
  else if (C.inFlightRenders() >= Config.MaxClientQueue)
    ShedWhy = "per-client in-flight cap reached";
  if (ShedWhy) {
    ++StatQuotaSheds;
    Service.recordShedQuota();
    uint64_t Seq = C.openRenderSlot();
    RenderReply Reply;
    Reply.Status = RenderStatus::ShedQuota;
    Reply.Error = ShedWhy;
    C.completeRender(Seq, std::move(Reply));
    return;
  }

  uint64_t Seq = C.openRenderSlot();
  // The dispatcher finishes on its own thread; hop back to the loop with
  // a weak_ptr so a connection that died mid-render is skipped. The
  // loop outlives the service drain (see serve's shutdown order).
  std::weak_ptr<Conn> Weak = C.weak_from_this();
  Service.submitAsync(std::move(Request), [this, Weak, Seq](RenderReply Reply) {
    auto Boxed = std::make_shared<RenderReply>(std::move(Reply));
    Loop.post([Weak, Seq, Boxed] {
      if (auto C = Weak.lock())
        C->completeRender(Seq, std::move(*Boxed));
    });
  });
}

void NetServer::beginDrain() {
  if (Draining.exchange(true) || !Started)
    return;
  // Acceptors are loop state; close them there so no accept races.
  Loop.post([this] {
    for (Acceptor &A : Acceptors) {
      if (A.listening())
        Loop.unregisterFd(A.fd());
      A.close();
    }
  });
}

bool NetServer::quiesce(double TimeoutSeconds) {
  if (!Started || Stopped.load())
    return true;
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(TimeoutSeconds));
  for (;;) {
    // Query connection state on the loop thread, which owns it.
    auto Promise = std::make_shared<std::promise<size_t>>();
    std::future<size_t> Done = Promise->get_future();
    Loop.post([this, Promise] {
      size_t Pending = 0;
      for (auto &[Id, C] : Conns)
        Pending += C->pendingSlots() + (C->writeBacklogBytes() > 0 ? 1 : 0);
      Promise->set_value(Pending);
    });
    if (Done.wait_for(std::chrono::seconds(2)) != std::future_status::ready)
      return false; // loop wedged; shutdown will tear it down anyway
    if (Done.get() == 0)
      return true;
    if (std::chrono::steady_clock::now() >= Deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

void NetServer::shutdownServer() {
  if (!Started || Stopped.exchange(true))
    return;
  beginDrain();
  Loop.stop();
  if (IoThread.joinable())
    IoThread.join();
  // The loop thread is gone; tear down surviving connections directly
  // (their destructors close the fds).
  Conns.clear();
  Acceptors.clear();
}

NetServerStats NetServer::stats() const {
  NetServerStats Out;
  Out.Accepted = StatAccepted;
  Out.ActiveConns = StatActiveConns;
  Out.QuotaSheds = StatQuotaSheds;
  Out.DeadlineReaps = StatDeadlineReaps;
  Out.ProtocolErrors = StatProtocolErrors;
  Out.BackpressureCloses = StatBackpressureCloses;
  Out.SendWaits = StatSendWaits;
  return Out;
}

std::string NetServer::statsJson() const {
  NetServerStats S = stats();
  return formatString(
      "{\"accepted\":%llu,\"active_conns\":%llu,"
      "\"quota_sheds\":%llu,\"deadline_reaps\":%llu,"
      "\"protocol_errors\":%llu,\"backpressure_closes\":%llu,"
      "\"send_waits\":%llu}",
      static_cast<unsigned long long>(S.Accepted),
      static_cast<unsigned long long>(S.ActiveConns),
      static_cast<unsigned long long>(S.QuotaSheds),
      static_cast<unsigned long long>(S.DeadlineReaps),
      static_cast<unsigned long long>(S.ProtocolErrors),
      static_cast<unsigned long long>(S.BackpressureCloses),
      static_cast<unsigned long long>(S.SendWaits));
}
