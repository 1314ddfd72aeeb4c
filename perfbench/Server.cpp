//===- perfbench/Server.cpp - A dspec serve child process -----------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Server.h"

#include "service/Protocol.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char **environ;

using namespace dspec;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

namespace {
/// The live server's pid (-1: none), for killLiveServer.
std::atomic<pid_t> LivePid{-1};
} // namespace

void perfbench::killLiveServer() {
  pid_t P = LivePid.exchange(-1);
  if (P > 0) {
    ::kill(P, SIGKILL);
    ::waitpid(P, nullptr, 0);
  }
}

ServerProcess::ServerProcess(const std::string &Dspec,
                             const std::string &SocketPath,
                             const std::vector<std::string> &Args,
                             const std::string &LogPath)
    : Socket(SocketPath) {
  ::unlink(Socket.c_str());
  std::vector<std::string> Argv = {Dspec, "serve", "--socket", Socket};
  Argv.insert(Argv.end(), Args.begin(), Args.end());
  std::vector<char *> Ptrs;
  for (std::string &A : Argv)
    Ptrs.push_back(A.data());
  Ptrs.push_back(nullptr);

  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_addopen(&Actions, STDOUT_FILENO, LogPath.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&Actions, STDOUT_FILENO, STDERR_FILENO);
  if (posix_spawn(&Pid, Dspec.c_str(), &Actions, nullptr, Ptrs.data(),
                  environ) != 0)
    Pid = -1;
  posix_spawn_file_actions_destroy(&Actions);
  LivePid = Pid;
}

ServerProcess::~ServerProcess() {
  if (Pid > 0)
    killLiveServer();
}

bool ServerProcess::waitReady(double TimeoutSeconds, std::string &Error) {
  if (Pid <= 0) {
    Error = "cannot spawn the server";
    return false;
  }
  auto Deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         TimeoutSeconds));
  while (Clock::now() < Deadline) {
    std::string Ignored;
    if (connectUnixSocket(Socket, &Ignored))
      return true;
    int Status = 0;
    if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
      Pid = LivePid = -1;
      Error = "the server exited during start-up";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  Error = "the server socket never accepted";
  return false;
}

std::unique_ptr<Transport> ServerProcess::connect(std::string &Error) const {
  return connectUnixSocket(Socket, &Error);
}

double ServerProcess::cpuMillis() const {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string Line;
  std::getline(In, Line);
  size_t Close = Line.rfind(')');
  if (Close == std::string::npos)
    return 0.0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  std::istringstream Fields(Line.substr(Close + 2));
  std::string Field;
  unsigned long long Ticks = 0;
  for (int I = 3; I <= 15 && Fields >> Field; ++I)
    if (I >= 14)
      Ticks += std::strtoull(Field.c_str(), nullptr, 10);
  return static_cast<double>(Ticks) * 1000.0 /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

ServerProcess::Exit ServerProcess::drain() {
  Exit Out;
  if (Pid <= 0)
    return Out;
  ::kill(Pid, SIGTERM);
  auto Deadline = Clock::now() + std::chrono::seconds(30);
  int Status = 0;
  rusage Usage{};
  pid_t Done = 0;
  while ((Done = ::wait4(Pid, &Status, WNOHANG, &Usage)) == 0 &&
         Clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (Done != Pid)
    return Out; // the destructor kills it
  Pid = LivePid = -1;
  Out.Status = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  Out.Clean = WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  Out.PeakRssMb = static_cast<double>(Usage.ru_maxrss) / 1024.0;
  return Out;
}

HostTicks perfbench::hostTicks() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  In >> Cpu; // "cpu": the sum over all CPUs
  HostTicks Out;
  // user nice system idle iowait irq softirq steal ...
  unsigned long long Field = 0;
  for (int I = 0; I < 10 && In >> Field; ++I) {
    Out.Total += Field;
    if (I == 7)
      Out.Steal = Field;
  }
  return Out;
}

double Statsz::get(const char *Section, const char *Key) const {
  size_t At = Json.find("\"" + std::string(Section) + "\":{");
  if (At == std::string::npos)
    return 0.0;
  size_t End = Json.find('}', At);
  size_t K = Json.find("\"" + std::string(Key) + "\":", At);
  if (K == std::string::npos || K > End)
    return 0.0;
  return std::strtod(Json.c_str() + K + std::strlen(Key) + 3, nullptr);
}

bool perfbench::scrapeStatsz(Transport &Conn, Statsz &Out,
                             std::string &Error) {
  std::optional<std::string> Json = requestStats(Conn, &Error);
  if (!Json)
    return false;
  Out.Json = std::move(*Json);
  return true;
}
