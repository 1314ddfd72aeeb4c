//===- perfbench/Server.h - A dspec serve child process ---------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs `dspec serve` on a unix socket as a child process: spawn, wait
/// until the socket accepts, read its CPU time from /proc, scrape
/// /statsz, and drain it with SIGTERM, collecting its exit status and
/// peak RSS. The destructor kills a server that was never drained, so no
/// exit path leaves a process behind.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_PERFBENCH_SERVER_H
#define DATASPEC_PERFBENCH_SERVER_H

#include "service/Transport.h"

#include <cstdint>
#include <memory>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

class ServerProcess {
public:
  /// Spawns `Dspec serve --socket Socket Args...`, output to \p LogPath.
  ServerProcess(const std::string &Dspec, const std::string &Socket,
                const std::vector<std::string> &Args,
                const std::string &LogPath);
  ~ServerProcess();
  ServerProcess(const ServerProcess &) = delete;
  ServerProcess &operator=(const ServerProcess &) = delete;

  /// Waits until the socket accepts a connection (or the process dies or
  /// \p TimeoutSeconds pass).
  bool waitReady(double TimeoutSeconds, std::string &Error);

  /// A fresh client connection (null with \p Error on failure).
  std::unique_ptr<dspec::Transport> connect(std::string &Error) const;

  /// utime + stime of the server so far, in milliseconds.
  double cpuMillis() const;

  struct Exit {
    bool Clean = false; ///< exited by itself with status 0
    int Status = -1;
    double PeakRssMb = 0.0;
  };
  /// SIGTERM, then waits for the drain to finish.
  Exit drain();

private:
  std::string Socket;
  pid_t Pid = -1;
};

/// The host's CPU time so far, from /proc/stat: all ticks, and the ticks
/// the hypervisor stole (ran other guests while this one wanted the CPU).
struct HostTicks {
  uint64_t Total = 0;
  uint64_t Steal = 0;
};
HostTicks hostTicks();

/// Kills and reaps the server process that is currently alive, if any
/// (the benchmark runs one at a time). For a watchdog thread.
void killLiveServer();

/// One /statsz scrape.
struct Statsz {
  std::string Json;
  /// The number under "Section":{... "Key": ...}; 0 when absent.
  double get(const char *Section, const char *Key) const;
};

/// Fetches /statsz over \p Conn.
bool scrapeStatsz(dspec::Transport &Conn, Statsz &Out, std::string &Error);

} // namespace perfbench

#endif // DATASPEC_PERFBENCH_SERVER_H
