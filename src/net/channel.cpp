#include "net/channel.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>

namespace skewless {

bool make_socket_pair(int fds[2], std::string& error) {
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    error = std::string("socketpair: ") + std::strerror(errno);
    return false;
  }
  return true;
}

FrameChannel& FrameChannel::operator=(FrameChannel&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    bytes_sent_ = other.bytes_sent_;
    bytes_received_ = other.bytes_received_;
    last_error_ = std::move(other.last_error_);
    eof_ = other.eof_;
    timed_out_ = other.timed_out_;
  }
  return *this;
}

void FrameChannel::set_io_timeout_ms(int timeout_ms) {
  if (fd_ < 0) return;
  struct timeval tv = {};
  if (timeout_ms > 0) {
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>(timeout_ms % 1000) * 1000;
  }
  (void)::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void FrameChannel::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool FrameChannel::send(FrameType type, std::uint64_t epoch,
                        const std::uint8_t* payload, std::size_t size,
                        const std::uint8_t* tail, std::size_t tail_size) {
  eof_ = false;
  timed_out_ = false;
  if (fd_ < 0) {
    last_error_ = "send on closed channel";
    return false;
  }
  std::uint8_t header[kFrameHeaderBytes];
  {
    ByteWriter w;
    encode_frame_header(w, type, epoch,
                        static_cast<std::uint32_t>(size + tail_size));
    std::memcpy(header, w.bytes().data(), kFrameHeaderBytes);
  }
  // One sendmsg for header + payload when possible; partial writes fall
  // back to byte-offset resumption across the pieces. MSG_NOSIGNAL: a
  // dead peer surfaces as EPIPE here, never as a process-killing SIGPIPE.
  struct Piece {
    const std::uint8_t* data;
    std::size_t size;
  };
  constexpr std::size_t kPieces = 3;
  const Piece pieces[kPieces] = {
      {header, kFrameHeaderBytes}, {payload, size}, {tail, tail_size}};
  std::size_t piece = 0;
  std::size_t offset = 0;
  while (piece < kPieces) {
    if (pieces[piece].size == offset) {
      ++piece;
      offset = 0;
      continue;
    }
    struct iovec iov[kPieces];
    int iovcnt = 0;
    for (std::size_t p = piece; p < kPieces; ++p) {
      const std::size_t skip = p == piece ? offset : 0;
      if (pieces[p].size == skip) continue;
      iov[iovcnt].iov_base =
          const_cast<std::uint8_t*>(pieces[p].data + skip);
      iov[iovcnt].iov_len = pieces[p].size - skip;
      ++iovcnt;
    }
    if (iovcnt == 0) break;
    struct msghdr msg = {};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_SNDTIMEO expired: the peer is alive enough to hold the
        // socket open but is not draining — a wedge, not a crash.
        timed_out_ = true;
        last_error_ = "sendmsg: timed out (peer not draining)";
        return false;
      }
      last_error_ = std::string("sendmsg: ") + std::strerror(errno);
      return false;
    }
    bytes_sent_ += static_cast<std::uint64_t>(n);
    std::size_t advanced = static_cast<std::size_t>(n);
    while (advanced > 0 && piece < kPieces) {
      const std::size_t left = pieces[piece].size - offset;
      if (advanced < left) {
        offset += advanced;
        advanced = 0;
      } else {
        advanced -= left;
        ++piece;
        offset = 0;
      }
    }
  }
  return true;
}

bool FrameChannel::read_exact(std::uint8_t* dst, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd_, dst + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO expired mid-frame: the peer stalled after a
        // partial write — classified as a wedge by the recovery layer.
        timed_out_ = true;
        last_error_ = "recv: timed out mid-frame";
        return false;
      }
      if (errno == ECONNRESET) {
        // A peer that exits with our bytes still unread resets the
        // connection instead of closing it: it is gone all the same.
        eof_ = true;
        last_error_ = "peer reset the connection";
        return false;
      }
      last_error_ = std::string("recv: ") + std::strerror(errno);
      return false;
    }
    if (r == 0) {
      eof_ = true;
      last_error_ = "peer closed the connection";
      return false;
    }
    got += static_cast<std::size_t>(r);
    bytes_received_ += static_cast<std::uint64_t>(r);
  }
  return true;
}

bool FrameChannel::recv(FrameHeader& header,
                        std::vector<std::uint8_t>& payload) {
  eof_ = false;
  timed_out_ = false;
  if (fd_ < 0) {
    last_error_ = "recv on closed channel";
    return false;
  }
  std::uint8_t raw[kFrameHeaderBytes];
  if (!read_exact(raw, kFrameHeaderBytes)) return false;
  if (!decode_frame_header(raw, kFrameHeaderBytes, header, last_error_)) {
    return false;
  }
  payload.resize(header.payload_size);
  if (header.payload_size > 0 &&
      !read_exact(payload.data(), header.payload_size)) {
    return false;
  }
  return true;
}

int FrameChannel::wait_readable(int timeout_ms) {
  struct pollfd pfd = {};
  pfd.fd = fd_;
  pfd.events = POLLIN;
  while (true) {
    const int r = ::poll(&pfd, 1, timeout_ms);
    if (r < 0) {
      if (errno == EINTR) continue;
      last_error_ = std::string("poll: ") + std::strerror(errno);
      return -1;
    }
    if (r == 0) return 0;
    // Readable data (or an EOF, which recv() reports cleanly) counts;
    // a bare error/hangup with nothing buffered is -1.
    if ((pfd.revents & (POLLIN | POLLHUP)) != 0) return 1;
    last_error_ = "poll: socket error";
    return -1;
  }
}

std::string CreditWindow::acquire(FrameChannel& channel, int timeout_ms,
                                  const ChunkFn& on_chunk) {
  return read_until(
      channel, timeout_ms, on_chunk, [this] { return in_flight() < limit_; },
      "credit");
}

std::string CreditWindow::await(FrameChannel& channel, int timeout_ms,
                                const ChunkFn& on_chunk,
                                const std::function<bool()>& done) {
  return read_until(channel, timeout_ms, on_chunk, done, "checkpoint");
}

std::string CreditWindow::read_until(FrameChannel& channel, int timeout_ms,
                                     const ChunkFn& on_chunk,
                                     const std::function<bool()>& done,
                                     const char* what) {
  while (true) {
    const bool waiting = !done();
    const int r = channel.wait_readable(waiting ? std::max(1, timeout_ms) : 0);
    if (r == 0) {
      if (!waiting) return {};
      return std::string("missed the ") + what + " deadline (wedged?)";
    }
    if (r < 0) return "closed its data channel (crashed)";
    std::string why = take(channel, on_chunk);
    if (!why.empty()) return why;
  }
}

std::string CreditWindow::take(FrameChannel& channel,
                               const ChunkFn& on_chunk) {
  FrameHeader header;
  if (!channel.recv(header, payload_)) {
    if (channel.eof()) return "closed its data channel (crashed)";
    if (channel.timed_out()) return "stalled mid-frame (wedged?)";
    return "sent a rejected frame: " + channel.last_error();
  }
  if (header.type == FrameType::kCheckpoint && on_chunk) {
    return on_chunk(header.epoch, payload_);
  }
  if (header.type != FrameType::kCredit || header.payload_size != 0) {
    return std::string("sent a ") + frame_type_name(header.type) + " frame (" +
           std::to_string(header.payload_size) +
           " payload bytes) where a Credit belongs";
  }
  if (header.epoch <= credited_ || header.epoch > sent_) {
    return "sent a Credit for " + std::to_string(header.epoch) +
           " batches with " + std::to_string(credited_) + " credited of " +
           std::to_string(sent_) + " sent";
  }
  credited_ = header.epoch;
  return {};
}

}  // namespace skewless
