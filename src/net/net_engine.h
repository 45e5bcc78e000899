// NetEngine — the distributed deployment of the single-operator engine:
// a driver/controller process and N forked worker PROCESSES connected by
// loopback sockets, speaking the framed wire protocol (net/frame.h).
//
// Topology per worker (socketpair(AF_UNIX, SOCK_STREAM), created before
// fork — no ports, no listeners):
//   * data channel — kBatch frames of routed tuples, answered by one
//     kCredit per batch the worker takes off the socket. This is the
//     channel that fills up: the driver lets at most kQueueBatches
//     batches go uncredited (a CreditWindow), so a slow worker
//     backpressures the driver through the same bound as the threaded
//     engine's queues, whatever the batch size or the kernel's buffer.
//   * ctrl channel — everything else (seal, boundary summary, heavy-set
//     broadcast, plan, migration, checkpoint, shutdown). A separate
//     socket means a control frame NEVER queues behind a data backlog —
//     the socket translation of the force_push lesson from the
//     in-process engine.
//
// Epoch protocol (mirrors ThreadedEngine's inline boundary):
//   1. the driver routes the interval's tuples as kBatch frames, counting
//      frames per worker;
//   2. at the boundary it sends each worker kSeal{epoch, batch count} on
//      ctrl — the worker seals only after processing exactly that many
//      batches, which re-establishes cross-channel ordering by content;
//   3. each worker serializes its WorkerSketchSlab as the kSummary
//      boundary payload (O(sketch), never O(|K|)) and encodes a
//      kCheckpoint snapshot of its key states straight from its
//      StateStore — both BEFORE sending either, so the workers encode in
//      parallel while the driver reads summaries one worker at a time.
//      The driver validates each checkpoint without decoding it and
//      keeps each worker's latest checkpoint as bytes (Checkpoint);
//   4. the driver absorbs the summaries IN WORKER-INDEX ORDER into the
//      controller's SketchStatsWindow — the same fixed order as the
//      in-process merge, which is what makes a net run byte-identical to
//      a ThreadedEngine run on the same seed: identical plans, identical
//      θ trajectory, identical state checksums;
//   5. rolls/plans via close_statistics (Controller::end_interval, the
//      same step the threaded engine runs), migrates state with
//      kExtract / kMigrated / kInstall / kInstallAck (the driver forwards
//      serialized state blobs without materializing them), broadcasts the
//      post-roll heavy set, and only then routes the next interval.
//
// Failure model (recovery is always on): a worker crash, wedge or
// corrupt frame is detected by deadline-bounded control receives
// (heartbeats extend the deadline; EOF/POLLHUP classifies a crash, a
// timeout classifies a wedge). The driver then respawns the worker with
// exponential backoff, reinstalls its last checkpoint (adjusted for any
// migration since), re-broadcasts the heavy set and expiry watermark,
// replays the open epoch's recorded batches VERBATIM, and re-seals.
// Because the replayed bytes and control sequence are exactly the lost
// worker's inputs, a recovered run is byte-identical to a crash-free
// run: same plan-history digest, same θ bit patterns, same state
// checksums. Every control exchange follows one policy (round_trip,
// broadcast): a failed send, a failed or mistyped receive or a rejected
// reply recovers the worker, which is then either asked again or — when
// the restore already re-delivers what the request carried — left to
// the restore. When the per-worker retry budget is exhausted the worker
// degrades instead, which ends its part of the exchange: its keys and
// checkpointed states are reassigned to the survivors and the run
// finishes with every tuple still counted exactly once. A protocol
// breach no restore can mend (a migrated key the plan never moved, a
// corrupt Fin, a crash after the replay buffer overflowed) fails the
// engine: it records a reason (error()), kills and reaps every worker,
// and makes further engine calls no-ops — the driver process never
// aborts on bytes a peer sent.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <sys/types.h>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "core/controller.h"
#include "engine/interval.h"
#include "engine/operator.h"
#include "engine/tuple.h"
#include "engine/workload_source.h"
#include "net/channel.h"
#include "net/fault_injector.h"
#include "net/recovery.h"
#include "net/wire.h"
#include "sketch/worker_sketch_slab.h"

namespace skewless {

struct NetConfig {
  /// Tuples per kBatch frame (amortizes syscalls, as batch_size
  /// amortizes queue locking in the threaded engine). Each worker's data
  /// channel holds at most kQueueBatches such frames.
  std::size_t batch_size = 256;
  /// Window expiry watermark lag, in intervals (0 = no expiry frames).
  int expire_lag_intervals = 0;

  // --- fault tolerance (checkpoint + replay recovery, always on) ---
  /// Deterministic fault schedule (tests / skewless_sim --fault).
  FaultPlan fault = {};
  /// Deadline for any control-channel receive, for each credit the
  /// driver waits for, and for channel I/O via SO_RCVTIMEO/SO_SNDTIMEO.
  /// A worker that neither speaks nor heartbeats for this long, or holds
  /// a full data channel for this long, is declared wedged and recovered.
  int ctrl_timeout_ms = 30'000;
  /// Worker heartbeat period; must be well under ctrl_timeout_ms.
  int heartbeat_interval_ms = 250;
  /// Respawn attempts per failure before degrading the worker away.
  /// The budget resets whenever the worker completes an epoch
  /// (checkpoint received) — it bounds retries per wedge, not per run.
  int respawn_max_attempts = 3;
};

/// The net engine reports the shared IntervalReport; this name is kept
/// for callers written against it.
using NetIntervalReport = IntervalReport;

class NetEngine {
 public:
  /// Controller mode only, and the controller must be in sketch stats
  /// mode: the boundary summary IS the serialized sketch slab. (A dense
  /// exact-mode summary would be O(|K|) per interval per worker — the
  /// design this subsystem exists to avoid.)
  NetEngine(NetConfig config, std::shared_ptr<OperatorLogic> logic,
            std::unique_ptr<Controller> controller);

  ~NetEngine();

  NetEngine(const NetEngine&) = delete;
  NetEngine& operator=(const NetEngine&) = delete;

  /// Expands + routes `intervals` intervals from `source` with the SAME
  /// deterministic expansion and shuffle as ThreadedEngine::run — the
  /// byte-identity contract starts with identical tuple sequences.
  std::vector<IntervalReport> run(WorkloadSource& source, int intervals,
                                  std::uint64_t seed = 1);

  /// Routes an explicit tuple sequence as one interval and completes the
  /// boundary before returning.
  IntervalReport run_interval(const std::vector<Tuple>& tuples);

  /// Routes tuples into the open interval WITHOUT closing it (the bench
  /// uses this to saturate the data channel, then probes the control
  /// channel with broadcast_plan before finish_interval).
  IntervalReport ingest(const std::vector<Tuple>& tuples);

  /// Closes the open interval: seal, summaries, checkpoints, absorb,
  /// plan, migrate, heavy-set broadcast, expiry. Injected kKill faults
  /// scheduled for this epoch fire at entry.
  void finish_interval(IntervalReport& report);

  /// Broadcasts a sparse plan on every worker's CONTROL channel and
  /// waits for all acks. Returns the round-trip wall time in ms, or a
  /// negative value on failure. Callable mid-interval — proving this
  /// completes while the data channel is backlogged is the bench's
  /// control-latency gate.
  double broadcast_plan(const RebalancePlan& plan, std::uint64_t seq);

  /// Stops the workers (kStop / kFin), harvests final counters and reaps
  /// the child processes. Called automatically by the destructor. In
  /// degraded mode any re-routed replay tuples still pending are sealed
  /// through one extra interval first, so mass stays conserved.
  void shutdown();

  /// Empty while healthy; set to the failure reason after any
  /// unrecoverable error (workers are killed and reaped at that point).
  /// A degraded run stays ok() — degradation is a survival mode, not a
  /// failure.
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] bool ok() const { return error_.empty(); }

  /// Valid after shutdown(): order-insensitive checksum over all worker
  /// states, directly comparable to ThreadedEngine::state_checksum().
  /// Dead workers contribute their last effective checkpoint.
  [[nodiscard]] std::uint64_t state_checksum() const;
  [[nodiscard]] std::size_t total_state_entries() const;

  [[nodiscard]] Controller* controller() { return controller_.get(); }
  [[nodiscard]] InstanceId num_workers() const { return num_workers_; }

  [[nodiscard]] std::uint64_t total_emitted() const { return total_emitted_; }
  [[nodiscard]] std::uint64_t total_processed() const {
    return total_processed_;
  }
  [[nodiscard]] std::uint64_t total_output_tuples() const {
    return total_outputs_;
  }

  /// Successful crash recoveries (respawn + restore + replay) so far.
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }
  /// True once a worker exhausted its retry budget and was retired.
  [[nodiscard]] bool degraded() const { return degraded_; }
  /// Wall time spent inside recovery (reap → replay), summed — the MTTR
  /// numerator the fault bench gates on.
  [[nodiscard]] double total_recovery_ms() const {
    return total_recovery_ms_;
  }
  [[nodiscard]] std::size_t live_workers() const;
  /// The most batches worker `w`'s data channel ever held uncredited:
  /// its credit window's high-water mark, never above kQueueBatches.
  [[nodiscard]] std::uint64_t data_window_high_water(std::size_t w) const {
    return workers_[w].credits.high_water();
  }
  /// Worker `w`'s latest checkpoint. The name stays because perfbench
  /// reads memory_bytes() through it.
  [[nodiscard]] const Checkpoint& checkpoint_ring(std::size_t w) const {
    return checkpoints_[w];
  }

 private:
  struct Worker {
    FrameChannel data;
    FrameChannel ctrl;
    pid_t pid = -1;
    std::uint64_t batches_sent = 0;  // kBatch frames this epoch
    /// Bounds the kBatch frames waiting in `data`; reset at each spawn.
    CreditWindow credits{kQueueBatches};
    /// The open epoch's kSeal went out; a restore must re-send it.
    bool seal_sent = false;
    /// Retired after retry-budget exhaustion (degraded mode).
    bool dead = false;
    /// Consecutive recoveries without a completed epoch; reset when a
    /// checkpoint arrives.
    int recover_attempts = 0;
    /// Respawn generation; one-shot fault events arm only for 0.
    std::uint32_t incarnation = 0;
  };

  /// Outcome of one bounded control receive.
  enum class CtrlRecv {
    kFrame,    // a non-heartbeat frame landed in header/payload
    kTimeout,  // deadline expired with no frame and no heartbeat
    kClosed,   // EOF / POLLHUP — the peer process is gone
    kBadFrame  // bytes arrived but the frame was rejected
  };

  /// What a round trip's `accept` makes of one reply payload.
  enum class Reply {
    kAccept,   // the exchange with this worker is done
    kRecover,  // rejected: recover the worker, as for a lost reply
    kFail      // protocol breach; accept has already called fail()
  };
  /// Writes worker `w`'s request payload into frame_scratch_.
  using EncodeFn = std::function<void(std::size_t w)>;
  using AcceptFn = std::function<Reply(std::size_t w, ByteReader& payload)>;

  void spawn_workers();
  [[nodiscard]] bool spawn_one(std::size_t w, std::string& err);
  /// Hello with every worker in turn; fail() names the worker and cause.
  [[nodiscard]] bool handshake();
  [[nodiscard]] bool handshake_one(std::size_t w, std::string& err);
  /// Records the failure, kills + reaps every worker. Every public
  /// method becomes a no-op afterwards.
  void fail(const std::string& what);
  /// Closes channels, SIGKILLs and reaps worker `w`, logging the
  /// classified exit status.
  void reap_worker(std::size_t w, const char* why);
  /// Detect → respawn → restore → replay. Returns true when the worker
  /// is live again; false when it was degraded away or the engine
  /// failed (check ok()).
  [[nodiscard]] bool recover_worker(std::size_t w, const std::string& why);
  [[nodiscard]] bool restore_worker(std::size_t w);
  /// Latest checkpoint minus keys migrated away since, plus states
  /// installed since — the state worker `w` is responsible for. The
  /// only place a checkpoint payload is decoded (restore and degrade).
  [[nodiscard]] CheckpointPayload effective_checkpoint(std::size_t w) const;
  /// Retry budget exhausted: retire `w`, re-home its checkpointed
  /// states and replay tuples onto the survivors.
  void degrade_worker(std::size_t w);
  /// Fires scheduled driver-side kKill events for `epoch`.
  void inject_kills(std::uint64_t epoch);
  void route_tuple(const Tuple& tuple);
  /// The one data send, for routed and replayed batches alike: waits for
  /// room in worker `w`'s credit window, then sends one kBatch frame.
  /// Returns why the worker failed, or an empty string. Never recovers
  /// the worker itself: the caller decides.
  [[nodiscard]] std::string send_batch(std::size_t w, std::uint64_t epoch,
                                       const std::uint8_t* payload,
                                       std::size_t size);
  void flush_batch(InstanceId d);
  void flush_batches();
  /// One bounded ctrl receive from worker `w`. Skips heartbeat frames
  /// (each restarts the deadline and marks liveness). Never calls
  /// fail() — callers decide between recovering the worker and failing
  /// the engine.
  [[nodiscard]] CtrlRecv recv_ctrl_any(std::size_t w, FrameHeader& header,
                                       std::vector<std::uint8_t>& payload);
  /// Human-readable classification of a non-kFrame recv_ctrl_any outcome.
  [[nodiscard]] std::string ctrl_failure_reason(std::size_t w,
                                                CtrlRecv rc) const;
  /// Sends frame_scratch_ to worker `w`, recovering it if the send
  /// fails. Returns true when the frame went out.
  bool send_ctrl(std::size_t w, FrameType type, std::uint64_t epoch);
  /// Sends `encode(w)` to every live worker; no reply is expected (a
  /// recovered worker's restore re-delivers what it needs). Returns ok().
  [[nodiscard]] bool broadcast(FrameType type, std::uint64_t epoch,
                               const EncodeFn& encode);
  /// The control plane's one request/reply exchange. Sends `encode(w)`
  /// to every live target before reading any reply, then reads one
  /// `reply` frame per target in order and hands its payload to
  /// `accept`. A failed send or receive, a wrong frame type or a rejected
  /// payload recovers the worker; the request then goes out again if
  /// `resend`, else the restore stands in for it. A degraded worker ends
  /// its part of the exchange. Returns false once !ok().
  [[nodiscard]] bool round_trip(const std::vector<std::size_t>& targets,
                                FrameType request, std::uint64_t epoch,
                                const EncodeFn& encode, FrameType reply,
                                bool resend, const AcceptFn& accept);
  /// Receives every live worker's summary and checkpoint for `epoch`
  /// and absorbs the summaries into `tally` in worker-index order.
  [[nodiscard]] bool absorb_summaries(std::uint64_t epoch, SlabTally& tally);
  [[nodiscard]] bool execute_migration(const RebalancePlan& plan,
                                       IntervalReport& report);
  [[nodiscard]] std::uint64_t wire_bytes_data() const;
  [[nodiscard]] std::uint64_t wire_bytes_ctrl() const;

  NetConfig config_;
  std::shared_ptr<OperatorLogic> logic_;
  std::unique_ptr<Controller> controller_;
  SketchStatsWindow* sketch_stats_ = nullptr;
  InstanceId num_workers_ = 0;
  std::vector<Worker> workers_;
  std::vector<std::vector<Tuple>> pending_batches_;
  /// A state kInstall-ed into a worker since its last checkpoint (a
  /// restore must re-deliver it — the checkpoint predates it). Tagged
  /// with the epoch of the boundary that sent it: a checkpoint for
  /// epoch e proves only installs tagged BEFORE e are reflected.
  struct PendingInstall {
    std::uint64_t epoch = 0;
    WireKeyState state;
  };

  /// Per-worker recovery state, indexed like workers_.
  std::vector<Checkpoint> checkpoints_;
  std::vector<ReplayBuffer> replay_;
  std::vector<std::vector<PendingInstall>> pending_installs_;
  /// Keys kExtract-ed from the worker since its last checkpoint (a
  /// restore must NOT resurrect them).
  std::vector<std::unordered_set<KeyId>> migrated_away_;
  /// InstallAcks owed by each worker for barrier-free degrade installs;
  /// recv_ctrl_any consumes them transparently, like heartbeats.
  std::vector<int> owed_install_acks_;
  /// One flag per fault-plan event: driver-side kills fire once.
  std::vector<bool> fault_fired_;
  /// Reusable decode target for boundary summaries (same geometry as
  /// every worker slab).
  std::unique_ptr<WorkerSketchSlab> scratch_slab_;
  ByteWriter frame_scratch_;
  std::vector<std::uint8_t> recv_scratch_;
  /// Boundary receive buffers: the worker summary being absorbed (held
  /// until its checkpoint lands), and the checkpoint that follows it.
  /// A validated checkpoint swaps buffers with the worker's previous
  /// one, so steady state allocates no multi-MB buffer per boundary.
  std::vector<std::uint8_t> summary_buf_;
  std::vector<std::uint8_t> checkpoint_buf_;

  std::string error_;
  std::uint64_t total_processed_ = 0;
  std::uint64_t total_outputs_ = 0;
  std::uint64_t total_emitted_ = 0;
  std::uint64_t final_checksum_ = 0;
  std::size_t final_state_entries_ = 0;
  IntervalId interval_ = 0;
  Micros engine_epoch_us_ = 0;
  /// The last broadcast heavy set / expiry watermark — a restored
  /// worker needs both re-delivered before its replay.
  std::vector<KeyId> last_heavy_keys_;
  bool heavy_broadcast_done_ = false;
  Micros last_expire_watermark_ = 0;
  bool expire_sent_ = false;
  std::uint64_t recoveries_ = 0;
  bool degraded_ = false;
  double total_recovery_ms_ = 0.0;
  /// Wire-counter snapshots at the open interval's start (per-interval
  /// byte deltas in the report).
  std::uint64_t wire_mark_data_ = 0;
  std::uint64_t wire_mark_ctrl_ = 0;
  /// Byte counters of channels closed by recovery reaps, folded in so
  /// the totals stay monotonic across respawns.
  std::uint64_t wire_retired_data_ = 0;
  std::uint64_t wire_retired_ctrl_ = 0;
  double open_interval_wall_ms_ = 0.0;
  bool interval_open_ = false;
  bool stopped_ = false;
};

}  // namespace skewless
