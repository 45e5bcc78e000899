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
//     Its return path also carries the worker's checkpoint, in kCheckpoint
//     chunks sent between batches; the driver collects them wherever it
//     reads credits.
//   * ctrl channel — everything else (seal, boundary summary, heavy-set
//     broadcast, plan, migration, restore, shutdown). A separate socket
//     means a control frame NEVER queues behind a data backlog or a
//     checkpoint's bulk bytes — the socket translation of the force_push
//     lesson from the in-process engine.
//
// Epoch protocol (ThreadedEngine's boundary, over sockets):
//   1. the driver routes the interval's tuples as kBatch frames, counting
//      frames per worker;
//   2. at the boundary it first awaits any checkpoint still streaming
//      from the previous boundary, then sends each worker kSeal{epoch,
//      batch count} on ctrl — the worker seals only after processing
//      exactly that many batches, which re-establishes cross-channel
//      ordering by content;
//   3. each worker serializes its WorkerSketchSlab as the kSummary
//      boundary payload (O(sketch), never O(|K|)) and sends it at once;
//      only then does it encode a checkpoint of its key states straight
//      from its StateStore and stream it back on the data channel, one
//      chunk per event-loop pass, as the next interval's batches arrive.
//      The driver validates the assembled checkpoint without decoding it
//      and keeps each worker's latest one as bytes (Checkpoint);
//   4. the driver then runs close_boundary (engine/interval.h), the
//      boundary routine the threaded engine runs too. Its collect absorbs
//      each summary the moment the driver reads it, IN WORKER-INDEX
//      ORDER, into the controller's SketchStatsWindow — the same fixed
//      order as the in-process merge, which is what makes a net run
//      byte-identical to a ThreadedEngine run on the same seed: identical
//      plans, identical θ trajectory, identical state checksums;
//   5. the routine rolls and plans (Controller::end_interval), and its
//      publish broadcasts the post-roll heavy set. If a plan was decided,
//      its migrate awaits this boundary's checkpoints, then moves state
//      with kExtract / kMigrated / kInstall / kInstallAck (the driver
//      forwards serialized state blobs without materializing them). Only
//      then is the next interval routed. Shutdown awaits every checkpoint
//      before kStop, so each worker has at most one in flight.
//
// Failure model (recovery is always on): a worker crash, wedge or
// corrupt frame is detected by deadline-bounded receives (heartbeats
// extend the control deadline; EOF/POLLHUP classifies a crash, a timeout
// a wedge, and a checkpoint chunk out of sequence a corrupt frame). The
// driver then respawns the worker with exponential backoff, sends its
// last checkpoint's bytes verbatim plus the migrations since, re-sends the
// heavy set, replays the recorded batches VERBATIM, and re-seals. A worker
// lost after its summary was absorbed but before its checkpoint landed is
// restored from the checkpoint before: the sealed epoch is replayed under
// the heavy set it ran under and resealed, and its regenerated summary —
// checked against the absorbed one, whose statistics already count — is
// dropped before the boundary's own heavy set and the open epoch's
// batches go out. A mismatch means the replay was not
// deterministic and fails the engine. Because the replayed bytes and
// control sequence are exactly the lost worker's inputs, a recovered run
// is byte-identical to a crash-free run: same plan-history digest, same θ
// bit patterns, same state checksums. Every control exchange follows one
// policy (round_trip, broadcast): a failed send, a failed or mistyped
// receive or a rejected reply recovers the worker, which is then either
// asked again or — when the restore already re-delivers what the request
// carried — left to the restore. When the per-worker retry budget is
// exhausted the worker degrades instead, which ends its part of the
// exchange: its keys and checkpointed states are reassigned to the
// survivors — a sealed epoch whose checkpoint never landed folded into
// those states first, since its summary was absorbed — and the run
// finishes with every tuple still counted exactly once. A protocol breach
// no restore can mend (a migrated key the plan never moved, a corrupt
// Fin, a replay that regenerates a different summary, a crash while the
// replay buffer has a hole) fails the engine: it records a reason
// (error()), kills and reaps every worker, and makes further engine calls
// no-ops — the driver process never aborts on bytes a peer sent.
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

  // --- fault tolerance (checkpoint + replay recovery, always on) ---
  /// Deterministic fault schedule (tests / skewless_sim --fault).
  FaultPlan fault = {};
  /// Deadline for any control-channel receive, for each credit or
  /// checkpoint chunk the driver waits for, and for channel I/O via
  /// SO_RCVTIMEO/SO_SNDTIMEO. A worker that neither speaks nor heartbeats
  /// for this long, holds a full data channel for this long, or leaves
  /// an awaited checkpoint without a chunk for this long is declared
  /// wedged and recovered.
  int ctrl_timeout_ms = 30'000;
  /// Worker heartbeat period; must be well under ctrl_timeout_ms.
  int heartbeat_interval_ms = 250;
  /// Respawn attempts per failure before degrading the worker away.
  /// The budget resets whenever the worker completes an epoch (its
  /// checkpoint lands) — it bounds retries per wedge, not per run.
  int respawn_max_attempts = 3;
};

/// The net engine reports the shared IntervalReport; this name is kept
/// for callers written against it.
using NetIntervalReport = IntervalReport;

class NetEngine : private BoundaryTransport {
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

  /// Closes the open interval: await the previous checkpoints, seal, then
  /// close_boundary (absorb the summaries, plan, heavy-set broadcast,
  /// migrate). This epoch's checkpoints stream in during the next
  /// interval. Injected kKill faults scheduled for this epoch fire at
  /// entry.
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
  /// Worker `w`'s latest checkpoint and the one streaming in behind it.
  /// The name stays because perfbench reads memory_bytes() through it.
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
    /// The open epoch's kSeal went out and its summary is not in yet; a
    /// restore must re-send it.
    bool seal_sent = false;
    /// Retired after retry-budget exhaustion (degraded mode).
    bool dead = false;
    /// Consecutive recoveries without a completed epoch; reset when a
    /// checkpoint lands.
    int recover_attempts = 0;
    /// Respawn generation; one-shot fault events arm only for 0.
    std::uint32_t incarnation = 0;
  };

  /// What a boundary broadcast to every worker after its roll: the heavy
  /// set. A restored worker needs the one in force during each epoch it
  /// replays.
  struct BoundaryContext {
    std::uint64_t epoch = 0;  // the boundary's epoch; 0 = none yet
    std::vector<KeyId> heavy_keys;
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
  /// Brings a respawned worker `w` back to where the lost one was: sends
  /// its latest checkpoint's bytes plus the migrations since, then
  /// replays. With a checkpoint awaited (its epoch's summary absorbed,
  /// and so its boundary's heavy set already published), that epoch is
  /// replayed under the heavy set before and resealed first, and its
  /// regenerated summary checked against the absorbed one. Returns why
  /// the restore failed, or an empty string; fails the engine on a
  /// mismatch.
  [[nodiscard]] std::string restore_worker(std::size_t w);
  /// Sends a boundary's heavy set to worker `w`.
  [[nodiscard]] std::string send_context(std::size_t w,
                                         const BoundaryContext& context);
  [[nodiscard]] std::string send_seal(std::size_t w, std::uint64_t epoch,
                                      std::uint64_t batches);
  /// Re-sends worker `w`'s recorded batches of epochs first..last.
  [[nodiscard]] std::string replay(std::size_t w, std::uint64_t first,
                                   std::uint64_t last);
  /// Receives a replayed epoch's summary and checks it against the one
  /// absorbed for that epoch; a mismatch fails the engine.
  [[nodiscard]] std::string check_replayed_summary(std::size_t w,
                                                   std::uint64_t epoch);
  /// Latest checkpoint minus keys migrated away since, plus states
  /// installed since — the state worker `w` is responsible for. The
  /// only place a checkpoint payload is decoded (degrade).
  [[nodiscard]] CheckpointPayload effective_checkpoint(std::size_t w) const;
  /// Retry budget exhausted: retire `w`, re-home its checkpointed
  /// states and replay tuples onto the survivors.
  void degrade_worker(std::size_t w);
  /// Degrading a worker whose awaited checkpoint never landed: folds that
  /// epoch's recorded batches into `eff`'s states and counts their
  /// outputs, recording no statistics (its summary was absorbed).
  void fold_sealed_epoch(std::size_t w, CheckpointPayload& eff);
  /// The return-path reader's handler for worker `w`'s checkpoint chunks.
  [[nodiscard]] CreditWindow::ChunkFn chunk_taker(std::size_t w);
  /// Worker `w`'s awaited checkpoint is complete: keep it, and drop the
  /// recovery bookkeeping it makes stale.
  void land_checkpoint(std::size_t w);
  /// Reads every live worker's return path until its awaited checkpoint
  /// has landed, recovering a worker that fails. Returns ok().
  [[nodiscard]] bool await_checkpoints();
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
  /// Sends `encode(w)` to every live worker, recovering one whose send
  /// fails; no reply is expected (a recovered worker's restore
  /// re-delivers what it needs). Returns ok().
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
  // The boundary transport, called by close_boundary.
  /// Receives every live worker's summary for `epoch` and absorbs it into
  /// `tally` the moment it lands, in worker-index order.
  bool collect(std::uint64_t epoch, SlabTally& tally) override;
  /// Makes `heavy` the latest context and broadcasts it as kHeavySet.
  /// The context before stays until this boundary's checkpoints land: it
  /// is what the sealed epoch ran under.
  bool publish(std::uint64_t epoch, std::vector<KeyId> heavy) override;
  /// Awaits this boundary's checkpoints, then runs the extract and the
  /// install round trips.
  bool migrate(const RebalancePlan& plan, IntervalReport& report) override;
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
  /// Receive buffer of the boundary summary being absorbed.
  std::vector<std::uint8_t> summary_buf_;

  std::string error_;
  std::uint64_t total_processed_ = 0;
  std::uint64_t total_outputs_ = 0;
  std::uint64_t total_emitted_ = 0;
  std::uint64_t final_checksum_ = 0;
  std::size_t final_state_entries_ = 0;
  IntervalId interval_ = 0;
  Micros engine_epoch_us_ = 0;
  /// The latest boundary's context, and the one before it: the sealed
  /// epoch whose checkpoint may still be streaming ran under that one.
  BoundaryContext context_;
  BoundaryContext prev_context_;
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
