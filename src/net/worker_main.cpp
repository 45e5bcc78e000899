#include "net/worker_main.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "common/clock.h"
#include "engine/interval.h"
#include "engine/state.h"
#include "net/channel.h"
#include "net/frame.h"
#include "net/poller.h"
#include "net/recovery.h"
#include "net/wire.h"
#include "sketch/worker_sketch_slab.h"

namespace skewless {
namespace {

/// Sinks emissions into a plain counter (one thread per process — no
/// atomics needed).
class CountingCollector final : public Collector {
 public:
  explicit CountingCollector(std::uint64_t& counter) : counter_(counter) {}
  void emit(const Tuple& /*tuple*/) override { ++counter_; }

 private:
  std::uint64_t& counter_;
};

/// Everything one worker process owns; the protocol handlers below are
/// methods so the state does not travel through a dozen parameters.
class NetWorker {
 public:
  NetWorker(int data_fd, int ctrl_fd, const NetWorkerOptions& options,
            const OperatorLogic& logic)
      : options_(options),
        logic_(logic),
        data_(data_fd),
        ctrl_(ctrl_fd),
        slab_(options.sketch),
        collector_(outputs_) {}

  int run() {
    if (!handshake()) return kWorkerExitHandshake;
    if (!size_chunks()) return kWorkerExitChannel;
    Poller poller;
    poller.add(ctrl_.fd(), kCtrl);
    poller.add(data_.fd(), kData);
    poller.add(data_.fd(), kDataRoom, /*writable=*/true);
    std::vector<int> ready;
    // The poll wakes at the heartbeat period even when both channels are
    // idle, so liveness beats keep flowing while the driver is busy
    // elsewhere.
    const int poll_timeout = std::max(1, options_.heartbeat_interval_ms);
    while (true) {
      const int rc = maybe_seal();
      if (rc >= 0) return rc;
      const int hb_rc = maybe_heartbeat();
      if (hb_rc >= 0) return hb_rc;
      poller.enable(kDataRoom, streaming());
      if (!poller.wait(poll_timeout, ready)) {
        return fail(kWorkerExitChannel, "poller", poller.last_error().c_str());
      }
      // Control has strict priority: every ready ctrl frame is handled
      // before the next chunk or data frame. The driver's per-socket
      // write order plus AF_UNIX's synchronous delivery make this
      // sufficient for the cross-channel guarantees (a heavy set
      // broadcast written before a batch is always drained before it).
      bool ctrl_ready = false;
      bool data_ready = false;
      bool data_room = false;
      for (const int token : ready) {
        ctrl_ready |= token == kCtrl;
        data_ready |= token == kData;
        data_room |= token == kDataRoom;
      }
      if (ctrl_ready) {
        const int ctrl_rc = handle_ctrl_frame();
        if (ctrl_rc >= 0) return ctrl_rc;
        continue;  // re-poll: drain ALL queued control before any data
      }
      if (data_room && streaming()) {
        const int chunk_rc = send_chunk();
        if (chunk_rc >= 0) return chunk_rc;
      }
      if (data_ready) {
        const int data_rc = handle_data_frame();
        if (data_rc >= 0) return data_rc;
      }
    }
  }

 private:
  static constexpr int kCtrl = 0;
  static constexpr int kData = 1;
  /// The data socket has room to write (polled only while streaming).
  static constexpr int kDataRoom = 2;
  /// Handler return: -1 = keep running, >= 0 = exit with that code.
  static constexpr int kKeepRunning = -1;

  int fail(int code, const char* what, const char* detail) {
    std::fprintf(stderr, "[net-worker %u] %s: %s\n", options_.worker_id, what,
                 detail);
    return code;
  }

  /// Triggers any worker-side fault armed for this epoch's seal. Returns
  /// an exit code for kDrop, kKeepRunning otherwise (kWedge never
  /// returns; kGarble corrupts ctrl and lets the protocol continue).
  int maybe_fault(std::uint64_t epoch) {
    const FaultEvent* ev =
        options_.fault.match(options_.worker_id, epoch, options_.incarnation);
    if (ev == nullptr) return kKeepRunning;
    switch (ev->kind) {
      case FaultKind::kWedge:
        // Alive but silent: holds both sockets open and never speaks
        // again — only the driver's receive deadline can see this.
        for (;;) ::pause();
      case FaultKind::kGarble: {
        // Raw junk where the boundary summary belongs; the driver's
        // header validation rejects it as a corrupt frame.
        std::uint8_t junk[64];
        for (std::uint8_t& b : junk) b = 0xA5;
        (void)::send(ctrl_.fd(), junk, sizeof(junk), MSG_NOSIGNAL);
        return kKeepRunning;
      }
      case FaultKind::kDrop:
        data_.close();
        ctrl_.close();
        return kWorkerExitFault;
      case FaultKind::kKill:
        break;  // driver-side fault; nothing to do in the worker
    }
    return kKeepRunning;
  }

  /// Emits an epoch-progress liveness beat on ctrl when the heartbeat
  /// period has elapsed.
  int maybe_heartbeat() {
    const Micros now = steady_now_us();
    const Micros period =
        static_cast<Micros>(options_.heartbeat_interval_ms) * 1000;
    if (last_heartbeat_us_ != 0 && now - last_heartbeat_us_ < period) {
      return kKeepRunning;
    }
    last_heartbeat_us_ = now;
    scratch_.clear();
    encode_heartbeat(scratch_, HeartbeatPayload{epoch_batches_});
    if (!ctrl_.send(FrameType::kHeartbeat, 0, scratch_)) {
      return fail(kWorkerExitChannel, "send Heartbeat",
                  ctrl_.last_error().c_str());
    }
    return kKeepRunning;
  }

  bool handshake() {
    FrameHeader header;
    std::vector<std::uint8_t> payload;
    if (!ctrl_.recv(header, payload)) {
      fail(kWorkerExitHandshake, "handshake", ctrl_.last_error().c_str());
      return false;
    }
    if (header.type != FrameType::kHello) {
      fail(kWorkerExitHandshake, "handshake", "first frame is not Hello");
      return false;
    }
    ByteReader in(payload, ByteReader::Untrusted{});
    HelloPayload hello;
    if (!decode_hello(in, hello) || hello.worker_id != options_.worker_id ||
        hello.num_workers != options_.num_workers) {
      fail(kWorkerExitHandshake, "handshake", "Hello payload mismatch");
      return false;
    }
    scratch_.clear();
    encode_hello(scratch_, hello);
    if (!ctrl_.send(FrameType::kHello, 0, scratch_)) {
      fail(kWorkerExitHandshake, "handshake", ctrl_.last_error().c_str());
      return false;
    }
    return true;
  }

  /// Sizes the checkpoint chunks from the data socket's send buffer. Linux
  /// reports an AF_UNIX socket writable only while at most a quarter of
  /// that buffer is in use, so a chunk frame of at most half of it always
  /// fits without blocking, with room left for credits behind it.
  bool size_chunks() {
    int sndbuf = 0;
    socklen_t len = sizeof(sndbuf);
    if (::getsockopt(data_.fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf, &len) != 0) {
      fail(kWorkerExitChannel, "getsockopt", "SO_SNDBUF");
      return false;
    }
    const auto half = static_cast<std::size_t>(sndbuf) / 2;
    constexpr std::size_t kOverhead = kFrameHeaderBytes + kChunkHeaderBytes;
    chunk_bytes_ = half > kOverhead ? half - kOverhead : 1;
    return true;
  }

  /// Seals the epoch once every one of its batches has been processed:
  /// stamps + serializes the slab and sends it on ctrl as the boundary
  /// summary, then encodes the post-seal checkpoint and starts streaming
  /// it back on the data channel. The summary goes first because the
  /// driver's boundary waits for it and not for the checkpoint. Nothing
  /// else is handled between the seal and the end of the encode, so the
  /// checkpoint is the sealed state. The driver awaits a checkpoint
  /// before its next seal, so a seal never finds one still streaming.
  int maybe_seal() {
    if (!seal_pending_ || epoch_batches_ != seal_target_ || streaming()) {
      return kKeepRunning;
    }
    slab_.set_epoch(seal_epoch_);
    scratch_.clear();
    slab_.serialize(scratch_);
    if (!ctrl_.send(FrameType::kSummary, seal_epoch_, scratch_)) {
      return fail(kWorkerExitChannel, "send Summary",
                  ctrl_.last_error().c_str());
    }
    encode_sealed_checkpoint();
    slab_.clear();
    epoch_batches_ = 0;
    seal_pending_ = false;
    checkpoint_epoch_ = seal_epoch_;
    checkpoint_sent_ = 0;
    return kKeepRunning;
  }

  [[nodiscard]] bool streaming() const {
    return checkpoint_sent_ < checkpoint_.size();
  }

  /// Sends the next chunk of the checkpoint; called only when poll found
  /// room on the data socket, so it never blocks.
  int send_chunk() {
    const std::size_t n =
        std::min(chunk_bytes_, checkpoint_.size() - checkpoint_sent_);
    scratch_.clear();
    encode_chunk_header(scratch_,
                        static_cast<std::uint32_t>(checkpoint_.size()),
                        static_cast<std::uint32_t>(checkpoint_sent_));
    if (!data_.send(FrameType::kCheckpoint, checkpoint_epoch_,
                    scratch_.bytes().data(), scratch_.size(),
                    checkpoint_.bytes().data() + checkpoint_sent_, n)) {
      return fail(kWorkerExitChannel, "send Checkpoint",
                  data_.last_error().c_str());
    }
    checkpoint_sent_ += n;
    return kKeepRunning;
  }

  /// Encodes the post-seal durable snapshot into checkpoint_: counters,
  /// the scratch map's bucket count (its rehash trajectory is
  /// byte-identity relevant), the state checksum, and every key state's
  /// serialized blob, straight from the store.
  void encode_sealed_checkpoint() {
    CheckpointCounters counters;
    counters.epoch = seal_epoch_;
    counters.processed = processed_;
    counters.outputs = outputs_;
    counters.local_buckets = fold_.per_key().bucket_count();
    counters.state_checksum = store_.checksum();
    checkpoint_.clear();
    encode_store_checkpoint(checkpoint_, counters, store_, blob_);
  }

  /// Reinstalls a driver-held checkpoint after a respawn: replaces the
  /// whole store with the checkpoint's states, drops the keys migrated
  /// away since and installs the states migrated in since, restores the
  /// counters and the scratch map's bucket trajectory, and acks so the
  /// driver can start the replay. Each state is deserialized straight
  /// from the frame.
  int handle_restore(ByteReader& in) {
    CheckpointCounters counters;
    std::vector<KeyId> migrated_away;
    store_.clear();
    const auto install = [this](KeyId key, ByteReader& blob) {
      std::unique_ptr<KeyState> state = logic_.deserialize_state(blob);
      if (state == nullptr || !blob.ok() || !blob.exhausted()) return false;
      store_.install_or_replace(key, std::move(state));
      return true;
    };
    if (!decode_checkpoint_counters(in, counters) ||
        !visit_key_states(in, install) ||
        !decode_key_list(in, migrated_away)) {
      return fail(kWorkerExitCorruptFrame, "decode",
                  "corrupt Restore payload");
    }
    for (const KeyId key : migrated_away) (void)store_.extract(key);
    if (!visit_key_states(in, install) || !in.exhausted()) {
      return fail(kWorkerExitCorruptFrame, "decode",
                  "corrupt Restore payload");
    }
    processed_ = counters.processed;
    outputs_ = counters.outputs;
    fold_.restore_buckets(counters.local_buckets);
    slab_.clear();
    epoch_batches_ = 0;
    seal_pending_ = false;
    checkpoint_.clear();
    checkpoint_sent_ = 0;
    scratch_.clear();
    encode_ack(scratch_, AckPayload{counters.epoch});
    if (!ctrl_.send(FrameType::kRestoreAck, counters.epoch, scratch_)) {
      return fail(kWorkerExitChannel, "send RestoreAck",
                  ctrl_.last_error().c_str());
    }
    return kKeepRunning;
  }

  int handle_ctrl_frame() {
    FrameHeader header;
    if (!ctrl_.recv(header, ctrl_payload_)) {
      return fail(kWorkerExitChannel, "ctrl recv", ctrl_.last_error().c_str());
    }
    ByteReader in(ctrl_payload_, ByteReader::Untrusted{});
    switch (header.type) {
      case FrameType::kSeal: {
        SealPayload seal;
        if (!decode_seal(in, seal)) {
          return fail(kWorkerExitCorruptFrame, "decode",
                      "corrupt Seal payload");
        }
        // Injected worker-side faults fire here: the seal receipt is the
        // protocol point every epoch passes through exactly once.
        const int fault_rc = maybe_fault(header.epoch);
        if (fault_rc >= 0) return fault_rc;
        seal_pending_ = true;
        seal_epoch_ = header.epoch;
        seal_target_ = seal.batches;
        return kKeepRunning;
      }
      case FrameType::kHeavySet: {
        std::vector<KeyId> keys;
        if (!decode_key_list(in, keys)) {
          return fail(kWorkerExitCorruptFrame, "decode",
                      "corrupt HeavySet payload");
        }
        slab_.set_heavy_keys(keys);
        return kKeepRunning;
      }
      case FrameType::kExtract:
        return handle_extract(in);
      case FrameType::kInstall:
        return handle_install(header.epoch, in);
      case FrameType::kRestore:
        return handle_restore(in);
      case FrameType::kPlan: {
        PlanPayload plan;
        if (!decode_plan(in, plan)) {
          return fail(kWorkerExitCorruptFrame, "decode",
                      "corrupt Plan payload");
        }
        // The ack IS the point: it proves a control round-trip completes
        // while the data channel may be fully backlogged.
        scratch_.clear();
        encode_ack(scratch_, AckPayload{plan.seq});
        if (!ctrl_.send(FrameType::kPlanAck, header.epoch, scratch_)) {
          return fail(kWorkerExitChannel, "send PlanAck",
                      ctrl_.last_error().c_str());
        }
        return kKeepRunning;
      }
      case FrameType::kStop:
        return send_fin();
      default:
        return fail(kWorkerExitProtocol, "protocol",
                    "unexpected frame type on ctrl");
    }
  }

  int handle_extract(ByteReader& in) {
    std::vector<KeyId> keys;
    if (!decode_key_list(in, keys)) {
      return fail(kWorkerExitCorruptFrame, "decode",
                  "corrupt Extract payload");
    }
    std::vector<std::pair<KeyId, std::unique_ptr<KeyState>>> extracted;
    extracted.reserve(keys.size());
    for (const KeyId key : keys) {
      std::unique_ptr<KeyState> state = store_.extract(key);
      if (state == nullptr) continue;  // key had no state yet
      extracted.emplace_back(key, std::move(state));
    }
    scratch_.clear();
    encode_extracted_states(scratch_, extracted, blob_);
    if (!ctrl_.send(FrameType::kMigrated, 0, scratch_)) {
      return fail(kWorkerExitChannel, "send Migrated",
                  ctrl_.last_error().c_str());
    }
    return kKeepRunning;
  }

  int handle_install(std::uint64_t epoch, ByteReader& in) {
    std::vector<WireKeyState> states;
    if (!decode_key_states(in, states)) {
      return fail(kWorkerExitCorruptFrame, "decode",
                  "corrupt Install payload");
    }
    for (const WireKeyState& wire : states) {
      ByteReader blob(wire.blob, ByteReader::Untrusted{});
      std::unique_ptr<KeyState> state = logic_.deserialize_state(blob);
      if (!blob.ok() || !blob.exhausted()) {
        return fail(kWorkerExitCorruptFrame, "decode",
                    "corrupt migrated state blob");
      }
      // Degraded-mode re-home installs are barrier-free (the driver may
      // still be re-routing tuples while this frame is in flight), so a
      // fresh state created a moment earlier must be replaceable.
      store_.install_or_replace(wire.key, std::move(state));
    }
    // The ack closes the migration barrier: the driver routes no
    // next-interval tuple to ANY worker until every destination has
    // confirmed its installs, so a tuple can never race its key's state.
    scratch_.clear();
    encode_ack(scratch_, AckPayload{epoch});
    if (!ctrl_.send(FrameType::kInstallAck, epoch, scratch_)) {
      return fail(kWorkerExitChannel, "send InstallAck",
                  ctrl_.last_error().c_str());
    }
    return kKeepRunning;
  }

  int handle_data_frame() {
    FrameHeader header;
    if (!data_.recv(header, data_payload_)) {
      return fail(kWorkerExitChannel, "data recv", data_.last_error().c_str());
    }
    if (header.type != FrameType::kBatch) {
      return fail(kWorkerExitProtocol, "protocol",
                  "non-Batch frame on the data channel");
    }
    // The batch left the socket: credit its slot back now, before the
    // fold, as a threaded worker's pop frees its queue slot.
    ++batches_taken_;
    if (!data_.send(FrameType::kCredit, batches_taken_, nullptr, 0)) {
      return fail(kWorkerExitChannel, "send Credit",
                  data_.last_error().c_str());
    }
    ByteReader in(data_payload_, ByteReader::Untrusted{});
    if (!decode_tuple_batch(in, batch_)) {
      return fail(kWorkerExitCorruptFrame, "decode", "corrupt Batch payload");
    }
    // The same BatchFold as ThreadedEngine::worker_loop's BatchMsg path,
    // so a net run's slab contents match the in-process run's batch for
    // batch.
    fold_.run(batch_, steady_now_us() - options_.engine_epoch_us, store_,
              logic_, collector_);
    fold_.add_to(slab_);
    processed_ += batch_.size();
    ++epoch_batches_;
    return kKeepRunning;
  }

  int send_fin() {
    FinPayload fin;
    fin.state_checksum = store_.checksum();
    fin.state_entries = store_.size();
    fin.processed = processed_;
    fin.outputs = outputs_;
    scratch_.clear();
    encode_fin(scratch_, fin);
    if (!ctrl_.send(FrameType::kFin, 0, scratch_)) {
      return fail(kWorkerExitChannel, "send Fin", ctrl_.last_error().c_str());
    }
    return kWorkerExitOk;
  }

  NetWorkerOptions options_;
  const OperatorLogic& logic_;
  FrameChannel data_;
  FrameChannel ctrl_;
  StateStore store_;
  WorkerSketchSlab slab_;
  std::uint64_t outputs_ = 0;
  std::uint64_t processed_ = 0;
  CountingCollector collector_;
  BatchFold fold_;
  std::vector<Tuple> batch_;
  std::vector<std::uint8_t> ctrl_payload_;
  std::vector<std::uint8_t> data_payload_;
  ByteWriter scratch_;
  /// The sealed epoch's checkpoint, encoded right after its summary went
  /// out, and how many of its bytes have been streamed back.
  ByteWriter checkpoint_;
  std::uint64_t checkpoint_epoch_ = 0;
  std::size_t checkpoint_sent_ = 0;
  /// Largest checkpoint piece per chunk frame (size_chunks()).
  std::size_t chunk_bytes_ = 0;
  /// Per-state serialization scratch for the checkpoint and kMigrated
  /// encoders; reused, so steady state allocates nothing per key.
  ByteWriter blob_;
  bool seal_pending_ = false;
  std::uint64_t seal_epoch_ = 0;
  std::uint64_t seal_target_ = 0;
  std::uint64_t epoch_batches_ = 0;
  /// Batches taken off the data channel by this process: the cumulative
  /// count every kCredit carries.
  std::uint64_t batches_taken_ = 0;
  Micros last_heartbeat_us_ = 0;
};

}  // namespace

int run_net_worker(int data_fd, int ctrl_fd, const NetWorkerOptions& options,
                   const OperatorLogic& logic) {
  NetWorker worker(data_fd, ctrl_fd, options, logic);
  return worker.run();
}

}  // namespace skewless
