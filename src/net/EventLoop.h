//===- net/EventLoop.h - One IO thread's reactor ----------------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reactor that owns one IO thread: an epoll Poller, an eventfd
/// wakeup, a cross-thread task queue, and one periodic task. Everything a
/// loop touches (its fd handlers, its connections) is confined to the
/// loop's thread; other threads interact only through post(), which
/// enqueues a task and writes the wakeup fd. This is also how shutdown
/// works — stop() posts through the wakeup fd, so a parked epoll_wait
/// returns immediately instead of timing out on a poll interval.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_NET_EVENTLOOP_H
#define DATASPEC_NET_EVENTLOOP_H

#include "net/Poller.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace dspec {

class EventLoop {
public:
  using Clock = std::chrono::steady_clock;
  /// Called with the ready EPOLL* bits for a registered fd.
  using FdHandler = std::function<void(uint32_t Events)>;
  using Task = std::function<void()>;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop &) = delete;
  EventLoop &operator=(const EventLoop &) = delete;

  bool valid() const;

  /// Runs until stop(). Call from exactly one thread; that thread
  /// becomes the loop thread.
  void run();

  /// Makes run() return after the current iteration. Thread-safe and
  /// signal-safe in effect: it rides the wakeup fd, so a parked
  /// epoll_wait returns immediately.
  void stop();

  /// Enqueues \p T to run on the loop thread (FIFO with other posts) and
  /// wakes the loop. Thread-safe. Tasks posted after stop() are dropped
  /// when the loop drains for exit.
  void post(Task T);

  /// Registers \p Fd with the poller. The handler runs on the loop
  /// thread. Call on the loop thread (or before run()).
  bool registerFd(int Fd, uint32_t Events, FdHandler Handler);
  bool updateFd(int Fd, uint32_t Events);
  void unregisterFd(int Fd);

  /// Runs \p Fire on the loop thread every \p IntervalSeconds, the
  /// first time one interval from now. A loop has one periodic task; a
  /// second call replaces the first. Call before run().
  void setPeriodic(double IntervalSeconds, Task Fire);

private:
  void drainWakeup();
  void runTasks();
  /// The poll timeout until the periodic task is due (-1 = none).
  int millisToPeriodic() const;
  void firePeriodicIfDue();

  Poller Ring;
  int WakeFd = -1;

  std::mutex TaskMutex;
  std::vector<Task> Tasks;

  std::unordered_map<int, std::shared_ptr<FdHandler>> Handlers;

  /// The periodic task (empty = none), its interval and next deadline.
  Task Periodic;
  Clock::duration PeriodicInterval{};
  Clock::time_point PeriodicDue;

  std::atomic<bool> Stopping{false};
};

} // namespace dspec

#endif // DATASPEC_NET_EVENTLOOP_H
