// One framed, bidirectional byte channel over a connected stream socket,
// and the credit window that bounds the frames waiting in one.
//
// The engine gives every worker TWO channels over separate socketpairs:
// a data channel (tuple batches — the one that backpressures, through a
// CreditWindow — and, on its return path, credits and checkpoint chunks)
// and a control channel (seals, summaries, heavy sets, plans,
// migration). Keeping them on separate sockets is the whole point: a
// control frame is written to and read from its own kernel buffer, so it
// can never queue behind a data backlog or a checkpoint's bulk bytes —
// the force_push lesson from the in-process engine, applied to sockets.
//
// Error model: send/recv return false and record a human-readable reason
// (last_error()). A FrameChannel never aborts on peer-supplied bytes —
// the owner drops the connection instead.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/serde.h"
#include "net/frame.h"

namespace skewless {

/// Creates a connected AF_UNIX SOCK_STREAM pair (loopback, no ports).
/// Returns false with `error` set on failure.
[[nodiscard]] bool make_socket_pair(int fds[2], std::string& error);

class FrameChannel {
 public:
  FrameChannel() = default;
  explicit FrameChannel(int fd) : fd_(fd) {}
  ~FrameChannel() { close(); }

  FrameChannel(const FrameChannel&) = delete;
  FrameChannel& operator=(const FrameChannel&) = delete;
  FrameChannel(FrameChannel&& other) noexcept { *this = std::move(other); }
  FrameChannel& operator=(FrameChannel&& other) noexcept;

  /// Writes one complete frame (header + payload), looping over partial
  /// writes and EINTR. Blocks when the socket buffer is full — which is
  /// exactly the backpressure the data channel wants. The payload is
  /// `payload` followed by `tail`: a frame can carry stored bytes behind
  /// a fresh prefix without copying them into one buffer first.
  [[nodiscard]] bool send(FrameType type, std::uint64_t epoch,
                          const std::uint8_t* payload, std::size_t size,
                          const std::uint8_t* tail = nullptr,
                          std::size_t tail_size = 0);
  [[nodiscard]] bool send(FrameType type, std::uint64_t epoch,
                          const ByteWriter& payload) {
    return send(type, epoch, payload.bytes().data(), payload.size());
  }

  /// Reads one complete frame. The header is validated (magic, version,
  /// type, payload cap) before the payload is read; `payload` is resized
  /// to exactly the payload bytes. Returns false on EOF, a socket error,
  /// or a rejected header.
  [[nodiscard]] bool recv(FrameHeader& header,
                          std::vector<std::uint8_t>& payload);

  /// Poll for readability: 1 = readable, 0 = timed out, -1 = error/hup
  /// with nothing to read. timeout_ms < 0 blocks indefinitely.
  [[nodiscard]] int wait_readable(int timeout_ms);

  /// Installs SO_SNDTIMEO + SO_RCVTIMEO so a send into a full buffer or
  /// a read of a half-written frame cannot block past the deadline —
  /// crash detection needs every channel operation to be bounded. 0
  /// clears the timeouts (blocking).
  void set_io_timeout_ms(int timeout_ms);

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] const std::string& last_error() const { return last_error_; }
  /// True when the last failed operation hit EOF or a reset (the peer
  /// closed or exited) — the crash-vs-corruption classifier recovery
  /// keys off.
  [[nodiscard]] bool eof() const { return eof_; }
  /// True when the last failed operation exceeded the channel's I/O
  /// timeout (a wedged peer, not a dead one).
  [[nodiscard]] bool timed_out() const { return timed_out_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t bytes_received() const {
    return bytes_received_;
  }

  void close();

 private:
  [[nodiscard]] bool read_exact(std::uint8_t* dst, std::size_t n);

  int fd_ = -1;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::string last_error_;
  bool eof_ = false;
  bool timed_out_ = false;
};

/// The driver's side of one data channel: the credit window that bounds
/// the kBatch frames waiting in it, and the one reader of its return
/// path. The receiver answers every frame it takes off the socket with a
/// kCredit frame (no payload) whose header epoch field is its cumulative
/// count of frames taken; the sender lets at most `limit` frames go
/// uncredited. The return path also carries the worker's checkpoint
/// chunks, which the reader hands to the caller's ChunkFn. The counts
/// belong to one socket pair: reset() them when the peer is respawned.
class CreditWindow {
 public:
  /// Takes one kCheckpoint chunk off the return path (its header epoch
  /// and payload); returns why it is rejected, or an empty string.
  using ChunkFn = std::function<std::string(
      std::uint64_t epoch, const std::vector<std::uint8_t>& payload)>;

  explicit CreditWindow(std::uint64_t limit) : limit_(limit) {
    SKW_EXPECTS(limit > 0);
  }

  /// Readies one send on `channel`: takes every frame already readable
  /// without blocking, then waits up to `timeout_ms` for each further
  /// frame while `limit` frames are uncredited. Returns an empty string
  /// when the frame may go out, else why the peer failed: a missed
  /// deadline (wedged), EOF (crashed), a chunk `on_chunk` rejects (any
  /// chunk, without one), or a rejected frame — a bad header, another
  /// frame type, a credit with a payload, or a count that does not
  /// advance or passes the frames sent. Never aborts on peer bytes.
  [[nodiscard]] std::string acquire(FrameChannel& channel, int timeout_ms,
                                    const ChunkFn& on_chunk = {});

  /// Reads the return path until `done()`, waiting up to `timeout_ms`
  /// for each frame; fails as acquire() does.
  [[nodiscard]] std::string await(FrameChannel& channel, int timeout_ms,
                                  const ChunkFn& on_chunk,
                                  const std::function<bool()>& done);

  /// Counts one frame sent after a successful acquire().
  void sent() {
    ++sent_;
    high_water_ = std::max(high_water_, in_flight());
  }

  /// Forgets the counts of the previous socket pair; keeps the high-water
  /// mark.
  void reset() {
    sent_ = 0;
    credited_ = 0;
  }

  [[nodiscard]] std::uint64_t in_flight() const { return sent_ - credited_; }
  /// The most frames ever uncredited at once; never above the limit.
  [[nodiscard]] std::uint64_t high_water() const { return high_water_; }

 private:
  /// Takes every readable frame, then more, each within `timeout_ms`,
  /// until `done()`; `what` names the deadline a timeout missed.
  [[nodiscard]] std::string read_until(FrameChannel& channel, int timeout_ms,
                                       const ChunkFn& on_chunk,
                                       const std::function<bool()>& done,
                                       const char* what);
  /// Reads and checks one return-path frame; returns the failure reason,
  /// or empty.
  [[nodiscard]] std::string take(FrameChannel& channel,
                                 const ChunkFn& on_chunk);

  std::uint64_t limit_;
  std::uint64_t sent_ = 0;
  std::uint64_t credited_ = 0;
  std::uint64_t high_water_ = 0;
  std::vector<std::uint8_t> payload_;
};

}  // namespace skewless
