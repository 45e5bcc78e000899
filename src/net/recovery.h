// Driver-side recovery state for the socket engine: each worker's latest
// checkpoint and the one streaming in behind it, the bounded replay buffer
// of the routed batches no landed checkpoint covers yet, and worker
// exit-status classification. These are plain data structures; the
// recovery PROTOCOL — detect, respawn, restore, replay — and the one
// recover-and-retry policy every control exchange follows live in
// NetEngine.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/wire.h"

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

/// One worker's checkpoints: the latest that landed, kept as the
/// validated kCheckpoint bytes, and the next one while its chunks stream
/// in on the data channel's return path. A landed checkpoint is never
/// decoded on the clean path — a restore sends its bytes verbatim, and
/// only a degrade decodes one — so the clean path pays one receive per
/// epoch and nothing per key. A corrupt chunk stream is never landed
/// (its worker is recovered instead). An empty payload means no
/// checkpoint yet.
///
/// A checkpoint is awaited from the moment its epoch's summary is
/// absorbed until its last chunk lands; meanwhile the previous one stays
/// the restore point.
struct Checkpoint {
  std::uint64_t epoch = 0;
  std::vector<std::uint8_t> payload;
  /// The epoch whose checkpoint is streaming in, or 0 for none.
  std::uint64_t awaited = 0;
  /// Checksum of the awaited epoch's absorbed summary, less its
  /// wall-clock latency sum: a replay of that epoch must regenerate the
  /// same bytes.
  std::uint64_t summary_checksum = 0;
  /// The awaited checkpoint's bytes so far, and its announced size (0
  /// until its first chunk).
  std::vector<std::uint8_t> assembly;
  std::uint32_t total = 0;

  /// Takes one chunk of the awaited checkpoint: the epoch must be the
  /// awaited one, the offset the bytes received so far, and the total
  /// the one announced first, at most kMaxFramePayload; the completed
  /// bytes must pass check_checkpoint with that epoch. Returns why the
  /// chunk is rejected, or an empty string. Never aborts on peer bytes.
  [[nodiscard]] std::string add(std::uint64_t chunk_epoch,
                                const CheckpointChunk& chunk);
  /// True once every byte of the awaited checkpoint arrived and passed.
  [[nodiscard]] bool complete() const {
    return awaited != 0 && total != 0 && assembly.size() == total;
  }
  /// Makes the completed assembly the landed checkpoint. The previous
  /// checkpoint's buffer is freed, not kept for the next assembly, so a
  /// worker's two checkpoints are both held only while one streams in.
  void land() {
    epoch = awaited;
    payload = std::exchange(assembly, {});
    total = 0;
    awaited = 0;
  }
  /// Drops a partial assembly: the awaited checkpoint's sender was lost,
  /// and its successor streams the epoch again from the start.
  void restart() {
    assembly.clear();
    total = 0;
  }

  /// Bytes held: the landed checkpoint plus the one streaming in. Two
  /// per worker, never O(epochs).
  [[nodiscard]] std::size_t memory_bytes() const {
    return payload.size() + assembly.size();
  }
};

/// Cheap position-sensitive 64-bit checksum of a payload (Fletcher-style
/// sums over 64-bit words): what the driver keeps of an absorbed summary
/// to check a replay's regenerated one against.
[[nodiscard]] std::uint64_t payload_checksum(
    const std::vector<std::uint8_t>& bytes);

/// Bounded record of the routed batches no landed checkpoint covers yet,
/// for one worker: the verbatim serialized kBatch payloads, so a replay
/// re-sends the exact bytes (same tuples, same emit timestamps, same
/// order) and the respawned worker's fold is bit-identical to the lost
/// one's. It spans up to two epochs: the open one, and the sealed one
/// whose checkpoint is still streaming. Each epoch's batches are dropped
/// when its checkpoint lands. Past the byte budget the buffer records a
/// hole instead: the rest of that epoch is refused, and a crash while a
/// retained epoch has a hole becomes unrecoverable (the engine fails
/// instead of replaying a hole).
class ReplayBuffer {
 public:
  struct RecordedBatch {
    std::uint64_t epoch = 0;
    std::vector<std::uint8_t> payload;
  };

  explicit ReplayBuffer(std::size_t max_bytes) : max_bytes_(max_bytes) {}

  /// Returns false (and records nothing) once the budget is exceeded or
  /// `epoch` already has a hole.
  bool record(std::uint64_t epoch, const std::uint8_t* payload,
              std::size_t size) {
    if (epoch <= hole_epoch_ || bytes_ + size > max_bytes_) {
      hole_epoch_ = std::max(hole_epoch_, epoch);
      return false;
    }
    RecordedBatch batch;
    batch.epoch = epoch;
    batch.payload.assign(payload, payload + size);
    bytes_ += size;
    batches_.push_back(std::move(batch));
    return true;
  }

  /// Drops the batches of epochs up to `epoch`: a checkpoint of `epoch`
  /// covers them. Batches are recorded in epoch order, so they are a
  /// prefix.
  void drop_through(std::uint64_t epoch) {
    const auto keep = std::find_if(
        batches_.begin(), batches_.end(),
        [epoch](const RecordedBatch& b) { return b.epoch > epoch; });
    for (auto it = batches_.begin(); it != keep; ++it) {
      bytes_ -= it->payload.size();
    }
    batches_.erase(batches_.begin(), keep);
    if (hole_epoch_ <= epoch) hole_epoch_ = 0;
  }

  void clear() {
    batches_.clear();
    bytes_ = 0;
    hole_epoch_ = 0;
  }

  /// Recorded batches of `epoch`: the seal count of its replay.
  [[nodiscard]] std::uint64_t count(std::uint64_t epoch) const {
    return static_cast<std::uint64_t>(std::count_if(
        batches_.begin(), batches_.end(),
        [epoch](const RecordedBatch& b) { return b.epoch == epoch; }));
  }

  [[nodiscard]] const std::vector<RecordedBatch>& batches() const {
    return batches_;
  }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }
  /// True while a retained epoch has a hole.
  [[nodiscard]] bool overflowed() const { return hole_epoch_ != 0; }

 private:
  std::vector<RecordedBatch> batches_;
  std::size_t max_bytes_;
  std::size_t bytes_ = 0;
  /// The latest epoch that lost a batch to the budget, or 0.
  std::uint64_t hole_epoch_ = 0;
};

}  // namespace skewless
