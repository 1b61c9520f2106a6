// Robust POSIX socket helpers shared by MsqServer and the bench_soak and
// bench_churn client drivers.
//
// Everything here assumes a hostile or flaky peer: writes handle partial
// progress and EINTR and never raise SIGPIPE; reads are bounded in bytes
// and in time (SO_RCVTIMEO maps to kDeadlineExceeded, a vanished peer to
// kUnavailable); and the line reader enforces a frame-size cap so a peer
// streaming garbage without a newline cannot grow a connection buffer
// unboundedly.
#ifndef MSQ_SERVE_SOCKET_H_
#define MSQ_SERVE_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace msq::serve {

// Process-wide, idempotent: ignore SIGPIPE so a peer that closed mid-write
// surfaces as an EPIPE Status instead of killing the process. Every server
// or client entry point calls this before touching sockets.
void IgnoreSigpipe();

// Creates a TCP listener bound to `host`:`port` (port 0 picks an ephemeral
// port). Returns the listening fd; *bound_port receives the actual port.
StatusOr<int> ListenTcp(const std::string& host, std::uint16_t port,
                        int backlog, std::uint16_t* bound_port);

// Blocking connect to `host`:`port`. Returns the connected fd.
StatusOr<int> ConnectTcp(const std::string& host, std::uint16_t port);

// Sets SO_RCVTIMEO / SO_SNDTIMEO (seconds; 0 disables the respective
// timeout).
Status SetSocketTimeouts(int fd, double recv_seconds, double send_seconds);

// Writes all `size` bytes, retrying partial writes and EINTR. kUnavailable
// with errno context when the peer stalls past SO_SNDTIMEO or vanishes.
Status WriteAll(int fd, const void* data, std::size_t size);
inline Status WriteAll(int fd, const std::string& s) {
  return WriteAll(fd, s.data(), s.size());
}

// Buffered reader over one connection fd. Owns leftover bytes between
// frames so pipelined requests are not lost; both entry points enforce
// `max_frame_bytes` against the *frame*, independent of how the bytes are
// chunked on the wire.
class FrameReader {
 public:
  FrameReader(int fd, std::size_t max_frame_bytes)
      : fd_(fd), max_frame_bytes_(max_frame_bytes) {}

  // Reads up to and including the next '\n'; returns the line without the
  // terminator (a trailing '\r' is also stripped). Errors:
  //   kNotFound          clean EOF with no buffered partial line
  //   kDeadlineExceeded  SO_RCVTIMEO expired (partial_frame() says whether
  //                      mid-frame or between frames)
  //   kResourceExhausted frame exceeded max_frame_bytes
  //   kUnavailable       connection reset / EOF mid-line
  StatusOr<std::string> ReadLine();

  // Reads exactly `n` bytes (HTTP bodies). Same error taxonomy.
  StatusOr<std::string> ReadExact(std::size_t n);

  // True when buffered bytes exist — a timeout then means a stalled
  // mid-frame peer rather than an idle connection.
  bool partial_frame() const { return !buffer_.empty(); }

 private:
  // Appends one recv() of data to buffer_; Status conveys EOF (kNotFound)
  // or the error taxonomy above.
  Status FillOnce();

  int fd_;
  std::size_t max_frame_bytes_;
  std::string buffer_;
  bool eof_ = false;
};

}  // namespace msq::serve

#endif  // MSQ_SERVE_SOCKET_H_
