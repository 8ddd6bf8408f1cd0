// Blocking TCP transport with poll()-based deadlines.
//
// TcpConnection sends and receives the frames of frame.h over a connected
// socket. All I/O is blocking but bounded: every operation takes a
// deadline in milliseconds (<= 0 means kDefaultDeadlineMs) enforced with
// poll(), so a stalled peer yields Status::DeadlineExceeded instead of a
// hung process -- the fail-closed behavior the coordinator relies on to
// abort a release rather than publish a partial transcript.
//
// RecvFrame validates the length prefix against kMaxFramePayload BEFORE
// allocating, so a hostile 4-byte header cannot drive an unbounded
// allocation. A peer that closes mid-frame yields Status::Unavailable.

#ifndef MDRR_NET_SOCKET_H_
#define MDRR_NET_SOCKET_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "mdrr/common/status.h"
#include "mdrr/common/status_or.h"
#include "mdrr/net/frame.h"

namespace mdrr {
namespace net {

// Default per-operation deadline when the caller passes <= 0.
inline constexpr int64_t kDefaultDeadlineMs = 30000;

struct HostPort {
  std::string host;
  uint16_t port = 0;
};

// Splits "HOST:PORT" at its last colon; the port must be an integer in
// [1, 65535]. InvalidArgument naming the target otherwise.
StatusOr<HostPort> ParseHostPort(std::string_view target);

// A connected TCP socket. Move-only; the destructor closes the fd.
class TcpConnection {
 public:
  TcpConnection() : fd_(-1) {}
  explicit TcpConnection(int fd) : fd_(fd) {}
  ~TcpConnection();

  TcpConnection(TcpConnection&& other) noexcept;
  TcpConnection& operator=(TcpConnection&& other) noexcept;
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // Connects to host:port (numeric IPv4 dotted quad or a resolvable
  // name), bounding the connect itself by `deadline_ms`.
  static StatusOr<TcpConnection> Connect(const std::string& host,
                                         uint16_t port, int64_t deadline_ms);

  bool valid() const { return fd_ >= 0; }
  void Close();

  // Shuts both directions down but keeps the fd open, so a thread blocked
  // in SendFrame/RecvFrame on this connection returns at once (EPIPE or
  // EOF, both Unavailable). Safe to call while other threads do I/O on
  // the connection; Close() afterwards releases the fd.
  void Shutdown();

  // Writes one frame (header + payload), retrying partial writes until
  // everything is out or the deadline lapses.
  Status SendFrame(FrameType type, const std::vector<uint8_t>& payload,
                   int64_t deadline_ms);

  // Reads one full frame. Rejects payload lengths above kMaxFramePayload
  // without allocating. EOF before a full frame -> Unavailable.
  StatusOr<Frame> RecvFrame(int64_t deadline_ms);

  // Raw byte send, bypassing framing. Exposed so tests can put malformed
  // bytes on the wire (oversized length prefixes, truncated frames) and
  // assert the receive side fails closed.
  Status SendBytes(const void* data, size_t len, int64_t deadline_ms);

 private:
  // Reads exactly `len` bytes into `out`. EOF -> Unavailable, stall ->
  // DeadlineExceeded.
  Status RecvExact(void* out, size_t len, int64_t deadline_ms);

  int fd_;
};

// A listening TCP socket bound to INADDR_ANY. Move-only.
class TcpListener {
 public:
  TcpListener() : fd_(-1), port_(0) {}
  ~TcpListener();

  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  // Binds and listens. Port 0 picks an ephemeral port; read it back with
  // port(). SO_REUSEADDR is set so restarted coordinators do not trip
  // over TIME_WAIT.
  Status Listen(uint16_t port);

  bool valid() const { return fd_ >= 0; }
  uint16_t port() const { return port_; }
  void Close();

  // Accepts one connection, waiting at most `deadline_ms` (<= 0 uses the
  // default). No client in time -> DeadlineExceeded.
  StatusOr<TcpConnection> Accept(int64_t deadline_ms);

 private:
  int fd_;
  uint16_t port_;
};

}  // namespace net
}  // namespace mdrr

#endif  // MDRR_NET_SOCKET_H_
