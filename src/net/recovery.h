// Driver-side recovery state for the socket engine: each worker's latest
// checkpoint, the bounded replay buffer of the open epoch's routed
// batches, and worker exit-status classification. These are plain data
// structures; the recovery PROTOCOL — detect, respawn, restore, replay —
// and the one recover-and-retry policy every control exchange follows
// live in NetEngine.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace skewless {

// Worker process exit codes (worker_main). The driver logs which one it
// reaped, so a protocol violation, a corrupt frame and a clean stop are
// distinguishable post-mortem instead of all reading as "worker died".
inline constexpr int kWorkerExitOk = 0;
inline constexpr int kWorkerExitChannel = 1;
inline constexpr int kWorkerExitHandshake = 2;
inline constexpr int kWorkerExitProtocol = 3;
inline constexpr int kWorkerExitCorruptFrame = 4;
inline constexpr int kWorkerExitFault = 5;  // injected fault (tests)

/// Human-readable classification of a waitpid status: which exit code
/// (named) or which signal ended the worker.
[[nodiscard]] std::string describe_worker_exit(int wait_status);

/// One worker's latest checkpoint: the kCheckpoint payload bytes it sent
/// for `epoch`, validated on receipt (check_checkpoint) but never
/// decoded — a checkpoint is decoded only when a restore or a degrade
/// reads it, so the clean path pays one receive per epoch and nothing
/// per key. A corrupt checkpoint is never stored (its worker is recovered
/// instead), so one slot is all a restore can use. An empty payload
/// means no checkpoint yet.
struct Checkpoint {
  std::uint64_t epoch = 0;
  std::vector<std::uint8_t> payload;

  /// Payload bytes held: one checkpoint, never O(epochs).
  [[nodiscard]] std::size_t memory_bytes() const { return payload.size(); }
};

/// Bounded record of the open epoch's routed batches for one worker —
/// the verbatim serialized kBatch payloads, so a replay re-sends the
/// exact bytes (same tuples, same emit timestamps, same order) and the
/// respawned worker's fold is bit-identical to the lost one's. Cleared
/// when the epoch's checkpoint lands (the batches are then reflected in
/// durable state). Overflow is sticky: past the byte budget the buffer
/// stops recording, and a crash before the next checkpoint becomes
/// unrecoverable (the engine fails instead of replaying a hole).
class ReplayBuffer {
 public:
  struct RecordedBatch {
    std::uint64_t epoch = 0;
    std::vector<std::uint8_t> payload;
  };

  explicit ReplayBuffer(std::size_t max_bytes) : max_bytes_(max_bytes) {}

  /// Returns false (and records nothing) once the budget is exceeded.
  bool record(std::uint64_t epoch, const std::uint8_t* payload,
              std::size_t size) {
    if (overflowed_ || bytes_ + size > max_bytes_) {
      overflowed_ = true;
      return false;
    }
    RecordedBatch batch;
    batch.epoch = epoch;
    batch.payload.assign(payload, payload + size);
    bytes_ += size;
    batches_.push_back(std::move(batch));
    return true;
  }

  void clear() {
    batches_.clear();
    bytes_ = 0;
    overflowed_ = false;
  }

  [[nodiscard]] const std::vector<RecordedBatch>& batches() const {
    return batches_;
  }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }
  [[nodiscard]] bool overflowed() const { return overflowed_; }

 private:
  std::vector<RecordedBatch> batches_;
  std::size_t max_bytes_;
  std::size_t bytes_ = 0;
  bool overflowed_ = false;
};

}  // namespace skewless
