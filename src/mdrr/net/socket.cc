#include "mdrr/net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>

#include "mdrr/common/string_util.h"

namespace mdrr {
namespace net {
namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The absolute time `deadline_ms` from now (<= 0 means
// kDefaultDeadlineMs), saturating at INT64_MAX instead of overflowing.
int64_t DeadlineAt(int64_t deadline_ms) {
  const int64_t now = NowMs();
  const int64_t budget = deadline_ms <= 0 ? kDefaultDeadlineMs : deadline_ms;
  return budget > std::numeric_limits<int64_t>::max() - now
             ? std::numeric_limits<int64_t>::max()
             : now + budget;
}

Status Errno(const char* op) {
  return Status::IoError(std::string(op) + ": " + std::strerror(errno));
}

// Waits until `fd` is ready for `events` (POLLIN/POLLOUT) or the absolute
// deadline passes. Each poll waits at most INT_MAX ms; EINTR and a poll
// that times out before the deadline retry against the remaining budget.
Status WaitReady(int fd, short events, int64_t deadline_at_ms,
                 const char* op) {
  for (;;) {
    int64_t budget = deadline_at_ms - NowMs();
    if (budget <= 0) {
      return Status::DeadlineExceeded(std::string(op) + " timed out");
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    int rc = poll(&pfd, 1,
                  static_cast<int>(std::min<int64_t>(
                      budget, std::numeric_limits<int>::max())));
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Errno("poll");
    }
    if (rc == 0) continue;
    // POLLERR/POLLHUP surface through the subsequent read/write, which
    // reports the precise condition (EOF vs. reset).
    return Status::OK();
  }
}

Status SetNonBlocking(int fd, bool nonblocking) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  if (nonblocking) {
    flags |= O_NONBLOCK;
  } else {
    flags &= ~O_NONBLOCK;
  }
  if (fcntl(fd, F_SETFL, flags) < 0) return Errno("fcntl(F_SETFL)");
  return Status::OK();
}

}  // namespace

StatusOr<HostPort> ParseHostPort(std::string_view target) {
  const size_t colon = target.rfind(':');
  const StatusOr<int64_t> port =
      ParseInt64(colon == std::string_view::npos ? std::string_view()
                                                 : target.substr(colon + 1));
  if (!port.ok() || port.value() < 1 || port.value() > 65535) {
    return Status::InvalidArgument("expected HOST:PORT with PORT in [1, "
                                   "65535], got '" +
                                   std::string(target) + "'");
  }
  return HostPort{std::string(target.substr(0, colon)),
                  static_cast<uint16_t>(port.value())};
}

TcpConnection::~TcpConnection() { Close(); }

TcpConnection::TcpConnection(TcpConnection&& other) noexcept
    : fd_(other.fd_) {
  other.fd_ = -1;
}

TcpConnection& TcpConnection::operator=(TcpConnection&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void TcpConnection::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void TcpConnection::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

StatusOr<TcpConnection> TcpConnection::Connect(const std::string& host,
                                               uint16_t port,
                                               int64_t deadline_ms) {
  int64_t deadline_at = DeadlineAt(deadline_ms);

  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* result = nullptr;
  std::string port_str = std::to_string(port);
  int rc = getaddrinfo(host.c_str(), port_str.c_str(), &hints, &result);
  if (rc != 0 || result == nullptr) {
    if (result != nullptr) freeaddrinfo(result);
    return Status::Unavailable("cannot resolve host '" + host +
                               "': " + gai_strerror(rc));
  }

  int fd = socket(result->ai_family, result->ai_socktype,
                  result->ai_protocol);
  if (fd < 0) {
    freeaddrinfo(result);
    return Errno("socket");
  }

  // Non-blocking connect so the deadline bounds connection establishment
  // too (a dead coordinator host must not hang the worker for the kernel
  // default of minutes).
  Status s = SetNonBlocking(fd, true);
  if (!s.ok()) {
    ::close(fd);
    freeaddrinfo(result);
    return s;
  }
  rc = connect(fd, result->ai_addr, result->ai_addrlen);
  freeaddrinfo(result);
  if (rc < 0 && errno != EINPROGRESS) {
    Status err = Status::Unavailable(std::string("connect: ") +
                                     std::strerror(errno));
    ::close(fd);
    return err;
  }
  if (rc < 0) {
    s = WaitReady(fd, POLLOUT, deadline_at, "connect");
    if (!s.ok()) {
      ::close(fd);
      return s;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) < 0 ||
        so_error != 0) {
      Status err = Status::Unavailable(
          std::string("connect: ") +
          std::strerror(so_error != 0 ? so_error : errno));
      ::close(fd);
      return err;
    }
  }
  s = SetNonBlocking(fd, false);
  if (!s.ok()) {
    ::close(fd);
    return s;
  }

  // Frames are small and latency-sensitive; don't let Nagle batch them.
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpConnection(fd);
}

Status TcpConnection::SendBytes(const void* data, size_t len,
                                int64_t deadline_ms) {
  if (fd_ < 0) return Status::FailedPrecondition("send on closed connection");
  int64_t deadline_at = DeadlineAt(deadline_ms);
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t sent = 0;
  while (sent < len) {
    MDRR_RETURN_IF_ERROR(WaitReady(fd_, POLLOUT, deadline_at, "send"));
    // MSG_NOSIGNAL: a peer that vanished mid-send must produce a Status,
    // not a SIGPIPE.
    ssize_t n = ::send(fd_, p + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::Unavailable("peer closed connection during send");
      }
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status TcpConnection::SendFrame(FrameType type,
                                const std::vector<uint8_t>& payload,
                                int64_t deadline_ms) {
  if (payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload exceeds kMaxFramePayload");
  }
  WireWriter header;
  header.U32(static_cast<uint32_t>(payload.size()));
  header.U8(static_cast<uint8_t>(type));
  MDRR_RETURN_IF_ERROR(SendBytes(header.buffer().data(),
                                 header.buffer().size(), deadline_ms));
  if (!payload.empty()) {
    MDRR_RETURN_IF_ERROR(
        SendBytes(payload.data(), payload.size(), deadline_ms));
  }
  return Status::OK();
}

Status TcpConnection::RecvExact(void* out, size_t len, int64_t deadline_ms) {
  if (fd_ < 0) return Status::FailedPrecondition("recv on closed connection");
  int64_t deadline_at = DeadlineAt(deadline_ms);
  uint8_t* p = static_cast<uint8_t*>(out);
  size_t got = 0;
  while (got < len) {
    MDRR_RETURN_IF_ERROR(WaitReady(fd_, POLLIN, deadline_at, "recv"));
    ssize_t n = ::recv(fd_, p + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      if (errno == ECONNRESET) {
        return Status::Unavailable("peer reset connection during recv");
      }
      return Errno("recv");
    }
    if (n == 0) {
      return Status::Unavailable("peer closed connection mid-frame");
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

StatusOr<Frame> TcpConnection::RecvFrame(int64_t deadline_ms) {
  uint8_t header[5];
  MDRR_RETURN_IF_ERROR(RecvExact(header, sizeof(header), deadline_ms));
  WireReader reader(header, sizeof(header));
  uint32_t payload_len = reader.U32().value();
  uint8_t type = reader.U8().value();
  if (payload_len > kMaxFramePayload) {
    return Status::InvalidArgument(
        "frame payload length " + std::to_string(payload_len) +
        " exceeds protocol maximum");
  }
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.payload.resize(payload_len);
  if (payload_len > 0) {
    MDRR_RETURN_IF_ERROR(
        RecvExact(frame.payload.data(), payload_len, deadline_ms));
  }
  return frame;
}

TcpListener::~TcpListener() { Close(); }

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = 0;
}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

void TcpListener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  port_ = 0;
}

Status TcpListener::Listen(uint16_t port) {
  if (fd_ >= 0) return Status::FailedPrecondition("listener already bound");
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status err = Errno("bind");
    ::close(fd);
    return err;
  }
  if (listen(fd, SOMAXCONN) < 0) {
    Status err = Errno("listen");
    ::close(fd);
    return err;
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) < 0) {
    Status err = Errno("getsockname");
    ::close(fd);
    return err;
  }
  fd_ = fd;
  port_ = ntohs(addr.sin_port);
  return Status::OK();
}

StatusOr<TcpConnection> TcpListener::Accept(int64_t deadline_ms) {
  if (fd_ < 0) return Status::FailedPrecondition("accept on closed listener");
  int64_t deadline_at = DeadlineAt(deadline_ms);
  for (;;) {
    MDRR_RETURN_IF_ERROR(WaitReady(fd_, POLLIN, deadline_at, "accept"));
    int fd = accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
          errno == ECONNABORTED) {
        continue;
      }
      return Errno("accept");
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return TcpConnection(fd);
  }
}

}  // namespace net
}  // namespace mdrr
