//===- net/EventLoop.cpp - One IO thread's reactor --------------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/EventLoop.h"

#include <sys/eventfd.h>
#include <unistd.h>

using namespace dspec;

EventLoop::EventLoop()
    : WakeFd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
  if (valid())
    Ring.add(WakeFd, EPOLLIN);
}

EventLoop::~EventLoop() {
  if (WakeFd >= 0)
    ::close(WakeFd);
}

bool EventLoop::valid() const { return Ring.valid() && WakeFd >= 0; }

void EventLoop::stop() {
  Stopping.store(true);
  uint64_t One = 1;
  [[maybe_unused]] ssize_t N = ::write(WakeFd, &One, sizeof(One));
}

void EventLoop::post(Task T) {
  {
    std::lock_guard<std::mutex> Lock(TaskMutex);
    Tasks.push_back(std::move(T));
  }
  uint64_t One = 1;
  [[maybe_unused]] ssize_t N = ::write(WakeFd, &One, sizeof(One));
}

bool EventLoop::registerFd(int Fd, uint32_t Events, FdHandler Handler) {
  if (!Ring.add(Fd, Events))
    return false;
  Handlers[Fd] = std::make_shared<FdHandler>(std::move(Handler));
  return true;
}

bool EventLoop::updateFd(int Fd, uint32_t Events) {
  return Ring.modify(Fd, Events);
}

void EventLoop::unregisterFd(int Fd) {
  Ring.remove(Fd);
  Handlers.erase(Fd);
}

void EventLoop::setPeriodic(double IntervalSeconds, Task Fire) {
  Periodic = std::move(Fire);
  PeriodicInterval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(IntervalSeconds));
  PeriodicDue = Clock::now() + PeriodicInterval;
}

void EventLoop::drainWakeup() {
  uint64_t Count;
  while (::read(WakeFd, &Count, sizeof(Count)) > 0) {
  }
}

void EventLoop::runTasks() {
  std::vector<Task> Ready;
  {
    std::lock_guard<std::mutex> Lock(TaskMutex);
    Ready.swap(Tasks);
  }
  for (Task &T : Ready)
    T();
}

int EventLoop::millisToPeriodic() const {
  if (!Periodic)
    return -1;
  auto Millis = std::chrono::duration_cast<std::chrono::milliseconds>(
                    PeriodicDue - Clock::now())
                    .count();
  if (Millis < 0)
    return 0;
  // +1 so we never spin on a deadline that rounds down to "now".
  return static_cast<int>(Millis) + 1;
}

void EventLoop::firePeriodicIfDue() {
  if (!Periodic)
    return;
  Clock::time_point Now = Clock::now();
  if (Now < PeriodicDue)
    return;
  PeriodicDue = Now + PeriodicInterval;
  Periodic();
}

void EventLoop::run() {
  std::vector<PollEvent> Ready;
  while (!Stopping.load()) {
    Ring.wait(Ready, millisToPeriodic());
    for (const PollEvent &Ev : Ready) {
      if (Ev.Fd == WakeFd) {
        drainWakeup();
        continue;
      }
      // Hold the handler by shared_ptr across the call: it may
      // unregister itself (connection close) while running.
      auto It = Handlers.find(Ev.Fd);
      if (It == Handlers.end())
        continue;
      std::shared_ptr<FdHandler> Handler = It->second;
      (*Handler)(Ev.Events);
    }
    firePeriodicIfDue();
    runTasks();
  }
  // One final drain so tasks posted concurrently with stop() still run
  // (completion callbacks racing a shutdown would otherwise vanish).
  runTasks();
}
