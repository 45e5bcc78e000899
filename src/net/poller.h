// Minimal poll(2) wrapper: the worker's event loop waits on its control
// and data channels with ONE syscall and reads back which are ready.
//
// Priority is the caller's job, and it matters: the net worker always
// processes every ready CONTROL frame before the next data frame, so a
// seal, a heavy-set broadcast or a plan never waits behind queued tuple
// batches — the channel-separation contract, enforced at the consumer.
#pragma once

#include <string>
#include <vector>

namespace skewless {

class Poller {
 public:
  /// Registers `fd` under a caller-chosen token (its index in `ready`
  /// order is the registration order). A slot watches for readability,
  /// or with `writable` for room to write; the same fd may hold both.
  void add(int fd, int token, bool writable = false);

  /// Stops (or resumes) polling the slot registered under `token`.
  void enable(int token, bool on);

  /// Waits up to `timeout_ms` (< 0 = forever) and fills `ready` with the
  /// tokens of ready slots, in registration order. Returns false on a
  /// poll error (reason in last_error()); a timeout returns true with
  /// `ready` empty.
  [[nodiscard]] bool wait(int timeout_ms, std::vector<int>& ready);

  [[nodiscard]] const std::string& last_error() const { return last_error_; }

 private:
  struct Slot {
    int fd;
    int token;
    bool writable;
    bool on;
  };
  std::vector<Slot> slots_;
  std::string last_error_;
};

}  // namespace skewless
