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
#include "net/poller.h"
#include "net/recovery.h"
#include "net/wire.h"
#include "sketch/sharded_worker_slab.h"

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
        slab_(options.sketch, options.shards),
        collector_(outputs_) {}

  int run() {
    if (!handshake()) return kWorkerExitHandshake;
    Poller poller;
    poller.add(ctrl_.fd(), kCtrl);
    poller.add(data_.fd(), kData);
    std::vector<int> ready;
    // With recovery on, the poll wakes at the heartbeat period even when
    // both channels are idle, so liveness beats keep flowing while the
    // driver is busy elsewhere.
    const int poll_timeout = options_.recovery
                                 ? std::max(1, options_.heartbeat_interval_ms)
                                 : -1;
    while (true) {
      const int rc = maybe_seal();
      if (rc >= 0) return rc;
      const int hb_rc = maybe_heartbeat();
      if (hb_rc >= 0) return hb_rc;
      if (!poller.wait(poll_timeout, ready)) {
        return fail(kWorkerExitChannel, "poller", poller.last_error().c_str());
      }
      // Control has strict priority: every ready ctrl frame is handled
      // before the next data frame. The driver's per-socket write order
      // plus AF_UNIX's synchronous delivery make this sufficient for the
      // cross-channel guarantees (a heavy set broadcast written before a
      // batch is always drained before it).
      bool ctrl_ready = false;
      bool data_ready = false;
      for (const int token : ready) {
        ctrl_ready |= token == kCtrl;
        data_ready |= token == kData;
      }
      if (ctrl_ready) {
        const int ctrl_rc = handle_ctrl_frame();
        if (ctrl_rc >= 0) return ctrl_rc;
        continue;  // re-poll: drain ALL queued control before any data
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
  /// period has elapsed (recovery mode only).
  int maybe_heartbeat() {
    if (!options_.recovery) return kKeepRunning;
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

  /// Seals the epoch once every one of its batches has been processed:
  /// stamps + serializes the slab as the boundary summary, encodes the
  /// post-seal checkpoint when recovery is on, ships both on ctrl, and
  /// resets for the next epoch. Both are encoded BEFORE either is sent:
  /// the summary outgrows the socket buffer, so its send blocks until
  /// the driver reads it, and the driver reads workers in index order —
  /// encoding the checkpoint after the send would queue every worker's
  /// encode behind the previous workers' summary reads.
  int maybe_seal() {
    if (!seal_pending_ || epoch_batches_ != seal_target_) return kKeepRunning;
    slab_.set_epoch(seal_epoch_);
    scratch_.clear();
    slab_.serialize(scratch_);
    if (options_.recovery) encode_sealed_checkpoint();
    if (!ctrl_.send(FrameType::kSummary, seal_epoch_, scratch_)) {
      return fail(kWorkerExitChannel, "send Summary",
                  ctrl_.last_error().c_str());
    }
    slab_.clear();
    epoch_batches_ = 0;
    seal_pending_ = false;
    if (options_.recovery &&
        !ctrl_.send(FrameType::kCheckpoint, seal_epoch_, checkpoint_)) {
      return fail(kWorkerExitChannel, "send Checkpoint",
                  ctrl_.last_error().c_str());
    }
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
  /// whole store, restores the counters and the scratch map's bucket
  /// trajectory, and acks so the driver can start the replay.
  int handle_restore(ByteReader& in) {
    CheckpointPayload cp;
    if (!decode_checkpoint(in, cp)) {
      return fail(kWorkerExitCorruptFrame, "decode",
                  "corrupt Restore payload");
    }
    store_.clear();
    for (const WireKeyState& wire : cp.states) {
      ByteReader blob(wire.blob, ByteReader::Untrusted{});
      std::unique_ptr<KeyState> state = logic_.deserialize_state(blob);
      if (state == nullptr || !blob.ok() || !blob.exhausted()) {
        return fail(kWorkerExitCorruptFrame, "decode",
                    "corrupt checkpoint state blob");
      }
      store_.install_or_replace(wire.key, std::move(state));
    }
    processed_ = cp.processed;
    outputs_ = cp.outputs;
    fold_.restore_buckets(cp.local_buckets);
    slab_.clear();
    epoch_batches_ = 0;
    seal_pending_ = false;
    scratch_.clear();
    encode_ack(scratch_, AckPayload{cp.epoch});
    if (!ctrl_.send(FrameType::kRestoreAck, cp.epoch, scratch_)) {
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
      case FrameType::kExpire: {
        Micros watermark = 0;
        if (!decode_expire(in, watermark)) {
          return fail(kWorkerExitCorruptFrame, "decode",
                      "corrupt Expire payload");
        }
        store_.expire_before(watermark);
        return kKeepRunning;
      }
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
      if (options_.recovery) {
        // Degraded-mode re-home installs are barrier-free (the driver
        // may still be re-routing tuples while this frame is in flight),
        // so a fresh state created a moment earlier must be replaceable.
        store_.install_or_replace(wire.key, std::move(state));
      } else {
        store_.install(wire.key, std::move(state));
      }
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
  ShardedWorkerSlab slab_;
  std::uint64_t outputs_ = 0;
  std::uint64_t processed_ = 0;
  CountingCollector collector_;
  BatchFold fold_;
  std::vector<Tuple> batch_;
  std::vector<std::uint8_t> ctrl_payload_;
  std::vector<std::uint8_t> data_payload_;
  ByteWriter scratch_;
  /// The sealed epoch's checkpoint, encoded before the summary is sent.
  ByteWriter checkpoint_;
  /// Per-state serialization scratch for the checkpoint and kMigrated
  /// encoders; reused, so steady state allocates nothing per key.
  ByteWriter blob_;
  bool seal_pending_ = false;
  std::uint64_t seal_epoch_ = 0;
  std::uint64_t seal_target_ = 0;
  std::uint64_t epoch_batches_ = 0;
  Micros last_heartbeat_us_ = 0;
};

}  // namespace

int run_net_worker(int data_fd, int ctrl_fd, const NetWorkerOptions& options,
                   const OperatorLogic& logic) {
  NetWorker worker(data_fd, ctrl_fd, options, logic);
  return worker.run();
}

}  // namespace skewless
