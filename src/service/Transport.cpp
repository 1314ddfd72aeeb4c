//===- service/Transport.cpp - Byte transports for the service --------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Transport.h"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace dspec;

//===----------------------------------------------------------------------===//
// Client sockets
//===----------------------------------------------------------------------===//

namespace {

/// Transport over a connected file descriptor. shutdown() uses
/// ::shutdown(2), which unblocks concurrent reads without racing the
/// close of the descriptor itself.
class FdTransport : public Transport {
public:
  explicit FdTransport(int Fd) : Fd(Fd) {}

  ~FdTransport() override {
    shutdown();
    ::close(Fd);
  }

  bool writeAll(const void *Data, size_t Size) override {
    const char *P = static_cast<const char *>(Data);
    while (Size > 0) {
      ssize_t N = ::send(Fd, P, Size, MSG_NOSIGNAL);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      P += N;
      Size -= static_cast<size_t>(N);
    }
    return true;
  }

  bool readAll(void *Data, size_t Size) override {
    char *P = static_cast<char *>(Data);
    while (Size > 0) {
      ssize_t N = ::recv(Fd, P, Size, 0);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      if (N == 0)
        return false; // EOF
      P += N;
      Size -= static_cast<size_t>(N);
    }
    return true;
  }

  void shutdown() override { ::shutdown(Fd, SHUT_RDWR); }

private:
  int Fd;
};

bool fillSockaddr(const std::string &Path, sockaddr_un &Addr,
                  std::string *Error) {
  if (Path.size() >= sizeof(Addr.sun_path)) {
    if (Error)
      *Error = "socket path too long: " + Path;
    return false;
  }
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

} // namespace

std::unique_ptr<Transport>
dspec::connectUnixSocket(const std::string &SocketPath, std::string *Error) {
  sockaddr_un Addr;
  if (!fillSockaddr(SocketPath, Addr, Error))
    return nullptr;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    if (Error)
      *Error = std::string("socket: ") + std::strerror(errno);
    return nullptr;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    if (Error)
      *Error = "connect to '" + SocketPath + "': " + std::strerror(errno);
    ::close(Fd);
    return nullptr;
  }
  return std::make_unique<FdTransport>(Fd);
}

std::unique_ptr<Transport> dspec::connectTcp(const std::string &Host,
                                             uint16_t Port,
                                             std::string *Error) {
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1) {
    if (Error)
      *Error = "cannot parse host '" + Host +
               "' (an IPv4 address like 127.0.0.1)";
    return nullptr;
  }
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    if (Error)
      *Error = std::string("socket: ") + std::strerror(errno);
    return nullptr;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    if (Error)
      *Error = "connect to " + Host + ":" + std::to_string(Port) + ": " +
               std::strerror(errno);
    ::close(Fd);
    return nullptr;
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return std::make_unique<FdTransport>(Fd);
}
