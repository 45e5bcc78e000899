// Real multi-threaded single-operator engine: a driver (spout + router +
// controller host) feeding N worker threads over bounded queues.
//
// This driver exists to prove the protocol end to end with real threads,
// real queues and real state objects — the examples and integration tests
// run on it. The figure benches use the deterministic SimEngine instead.
//
// Migration protocol (Fig. 5), mapped onto queue FIFO ordering:
//   1. the controller decides a plan at an interval boundary;
//   2. while the driver routes no tuples, the merge thread pushes one
//      Extract control message per source worker — every tuple sent
//      earlier is ahead of the Extract in that worker's FIFO queue, so
//      extraction sees the fully up-to-date state;
//   3. workers reply with the extracted KeyState objects through the
//      migration mailbox;
//   4. the merge thread pushes Install messages to the destination
//      workers, and only then does the driver resume routing with the new
//      assignment — any tuple routed afterwards sits behind the Install in
//      the destination's FIFO queue, so it can never observe a missing
//      state.
// Keys not involved in ∆(F, F') keep flowing the whole time.
//
// Queue bound: each worker queue holds kQueueBatches batches
// (engine/interval.h, which is also the net engine's credit window)
// before the driver blocks. The driver routes a batch several
// times faster than a worker processes one, so under load every queue
// sits full: its depth is the backlog a boundary waits for the workers to
// drain, and by Little's law most of a tuple's latency. Four 256-tuple
// batches are still ~2 ms of operator work per worker, far longer than
// the driver needs to refill a slot, so the workers do not starve.
//
// Statistics contract (worker ↔ driver): the controller's provider is
// the one statistics store, configured by ControllerConfig. The engine
// always runs a controller; the hash-only baseline is a controller built
// without a planner, which keeps the same statistics and never plans.
// Each worker writes its own epoch buffer with no lock, in either mode:
//   * exact mode — a per-key map plus the interval scalars; the merge
//     thread replays every sealed map into the provider in worker-index
//     order, so O(|K|) keys cross threads each interval, but only at the
//     boundary and never under a lock.
//   * sketch mode — a WorkerSketchSlab (Count-Min sketches + Misra-Gries
//     candidates + exact hot-key map for the current heavy set) that the
//     merge thread absorbs into the SketchStatsWindow in worker-index
//     order. No per-key hash traffic crosses threads.
// Either way the merged statistics are byte-identical regardless of
// worker finish order.
//
// Seal protocol (every boundary, both modes): each worker owns a PAIR of
// epoch buffers. At the boundary the driver pushes one lightweight
// SealMsg per worker and immediately returns to ingesting — the stall is
// the seal pushes plus whatever merge work has not finished when the
// driver next needs the controller. Each worker, on reaching its SealMsg
// (FIFO: after every batch of the closing epoch), release-publishes its
// active buffer through SlabPair::sealed_epoch, swaps onto the other
// buffer and clears it (the merge thread finished reading it at the
// previous boundary), and then waits for the NEW heavy set
// (epoch-stamped, published after the merge thread rolls the window;
// empty in exact mode) before touching the next epoch's batches — so
// every slab accumulates under
// exactly the heavy set a sequential run would have installed. A
// driver-side merge thread runs the whole boundary through
// close_boundary (engine/interval.h), the routine the net engine runs
// too: it absorbs the sealed buffers in worker-index order (collect),
// rolls and plans, publishes the heavy set (publish), and migrates the
// planned keys (migrate), while run() generates the next interval's
// tuples; the driver's finish_boundary only waits for it. The sealed
// workers resume at the publish, before any Extract is pushed, and the
// driver routes nothing until finish_boundary returns. The merge input
// is exactly the sealed epoch regardless of scheduling, so the merged
// window state and the plan are schedule-independent too.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <variant>
#include <vector>

#include "common/queue.h"
#include "common/types.h"
#include "core/controller.h"
#include "engine/interval.h"
#include "engine/operator.h"
#include "engine/state.h"
#include "engine/tuple.h"
#include "engine/workload_source.h"
#include "sketch/worker_sketch_slab.h"

namespace skewless {

struct ThreadedConfig {
  /// Ignored: the controller's assignment fixes the worker count. Kept
  /// because existing callers still set it.
  InstanceId num_workers = 4;
  /// Tuples per Batch message (amortizes queue locking).
  std::size_t batch_size = 256;
  /// Ignored: ControllerConfig::stats_mode picks the statistics store.
  /// Kept because existing callers still set it.
  StatsMode stats_mode = StatsMode::kExact;
  /// Pin worker w to the w-th CPU of the topology-aware pin order (one
  /// CPU per distinct physical core first, SMT siblings only after every
  /// core carries a worker — see cpu_topology()) where the platform
  /// supports it (pthread_setaffinity_np), so each worker's slab pair
  /// stays resident in its owner's private L2 instead of migrating
  /// between cores with the thread, and two workers never share a core's
  /// execution ports while whole cores sit idle. The merge thread takes
  /// the slot after the last worker. No-op elsewhere; see
  /// ThreadedEngine::pinned_workers() for how many pins took effect.
  bool pin_workers = false;
};

class ThreadedEngine : private BoundaryTransport {
 public:
  /// The controller's AssignmentFunction routes tuples, its provider
  /// holds the statistics, and its planner (if any) rebalances at
  /// interval boundaries. A planner-less controller is the hash-only
  /// baseline: consistent hashing, no migration.
  ThreadedEngine(ThreadedConfig config, std::shared_ptr<OperatorLogic> logic,
                 std::unique_ptr<Controller> controller);

  ~ThreadedEngine();

  ThreadedEngine(const ThreadedEngine&) = delete;
  ThreadedEngine& operator=(const ThreadedEngine&) = delete;

  /// Processes `intervals` intervals from `source` (counts are expanded
  /// into a deterministic shuffled tuple sequence with `seed`). The next
  /// interval's tuple expansion overlaps the previous boundary's merge —
  /// the pipelining run_interval's one-shot API cannot express.
  std::vector<IntervalReport> run(WorkloadSource& source, int intervals,
                                  std::uint64_t seed = 1);

  /// Processes an explicit tuple sequence as one interval. Uses the same
  /// seal/merge protocol as run() but completes the boundary before
  /// returning (no overlap window), so the merged statistics are fully
  /// visible to the caller.
  IntervalReport run_interval(const std::vector<Tuple>& tuples);

  /// Stops and joins the workers; further run() calls are invalid.
  /// Called automatically by the destructor.
  void shutdown();

  /// Valid after shutdown(): combined order-insensitive checksum over all
  /// workers' states — equal across runs regardless of key placement.
  [[nodiscard]] std::uint64_t state_checksum() const;

  /// Valid after shutdown(): number of distinct keys with live state.
  [[nodiscard]] std::size_t total_state_entries() const;

  [[nodiscard]] Controller* controller() { return controller_.get(); }

  /// Number of workers whose core pin (ThreadedConfig::pin_workers) took
  /// effect — 0 when pinning is off or unsupported on this platform.
  [[nodiscard]] InstanceId pinned_workers() const { return pinned_workers_; }

  [[nodiscard]] std::uint64_t total_emitted() const {
    return total_emitted_;
  }
  [[nodiscard]] std::uint64_t total_processed() const {
    return total_processed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_output_tuples() const {
    return total_outputs_.load(std::memory_order_relaxed);
  }

 private:
  struct BatchMsg {
    std::vector<Tuple> tuples;
  };
  struct ExtractMsg {
    std::vector<KeyId> keys;
  };
  struct InstallMsg {
    std::vector<std::pair<KeyId, std::unique_ptr<KeyState>>> states;
  };
  /// Interval-boundary seal: the worker publishes its active epoch
  /// buffer as `epoch`'s sealed buffer, swaps onto the other one, and
  /// installs the epoch's new heavy set before processing anything that
  /// follows. FIFO ordering guarantees every batch of the closing epoch
  /// is ahead of the seal.
  struct SealMsg {
    std::uint64_t epoch;
  };
  struct StopMsg {};
  using WorkerMsg =
      std::variant<BatchMsg, ExtractMsg, InstallMsg, SealMsg, StopMsg>;

  struct ExtractedState {
    KeyId key = 0;
    InstanceId from = 0;
    std::unique_ptr<KeyState> state;  // nullptr if the key had no state yet
  };

  /// One worker's statistics for one epoch: the slab in sketch mode, the
  /// per-key map plus the interval scalars in exact mode (the slab
  /// carries its own scalars). Only the owning worker writes it, with no
  /// lock, and it clears it as it switches into it; the merge thread only
  /// reads it, after the seal published it.
  struct EpochBuffer {
    /// Empties the epoch's statistics and keeps every allocation but the
    /// slab's candidate table.
    void clear() {
      if (slab != nullptr) {
        slab->clear();
      } else {
        per_key.clear();
        scalars = {};
      }
    }

    std::unique_ptr<WorkerSketchSlab> slab;
    KeyAggMap per_key;
    WorkerSketchSlab::IntervalScalars scalars;
  };

  /// Double-buffered epoch pair. The worker writes the active buffer
  /// exclusively; sealed_epoch release-publishes the other one to the
  /// merge path. Which buffer is sealed at epoch e is a pure function of
  /// e (buffer (e-1)&1 — the worker starts on buffer 0 and alternates),
  /// so neither side needs to share an index.
  struct SlabPair {
    EpochBuffer bufs[2];
    std::atomic<std::uint64_t> sealed_epoch{0};
  };

  void start_workers();
  void worker_loop(InstanceId id);
  void merge_loop();
  /// Routes one tuple through F(k), stamps its emit time as it lands in
  /// its pending batch, and flushes that batch once it is full.
  void route_tuple(const Tuple& tuple);
  void flush_batches();
  void flush_batch(InstanceId d);
  /// Pushes `msg` to worker d's queue (a push only fails after close(),
  /// which cannot happen while the engine runs).
  void push(InstanceId d, WorkerMsg msg);
  // The boundary transport; close_boundary calls these on the merge
  // thread.
  /// Tallies every worker's sealed buffer for `epoch` in worker-index
  /// order (waiting for stragglers to seal): absorbs the slabs in sketch
  /// mode, replays the per-key maps into the provider in exact mode.
  /// False once the engine is stopping.
  bool collect(std::uint64_t epoch, SlabTally& tally) override;
  /// Epoch-stamped release-publish of the post-roll heavy set (empty in
  /// exact mode); sealed workers waiting at their SealMsg barrier install
  /// it and resume.
  bool publish(std::uint64_t epoch, std::vector<KeyId> heavy) override;
  /// Extracts the plan's keys at their sources and installs them at
  /// their new owners (the post-plan assignment).
  bool migrate(const RebalancePlan& plan, IntervalReport& report) override;
  /// Routes `tuples` as the open interval's stream (wall_ms accumulates
  /// the routing segment only).
  IntervalReport ingest(const std::vector<Tuple>& tuples);
  /// Starts the interval boundary: pushes the seals and hands the epoch
  /// and the open `report` to the merge thread, which runs the boundary
  /// into it. Between begin and finish the caller may overlap driver-side
  /// work (run() expands the next interval's tuples there) — but must not
  /// route tuples or touch the controller or `report`.
  void begin_boundary(IntervalReport& report);
  /// Completes the boundary: waits for the merge thread, then finalizes
  /// the report's wall/stall/throughput numbers.
  void finish_boundary(IntervalReport& report);

  ThreadedConfig config_;
  std::shared_ptr<OperatorLogic> logic_;
  std::unique_ptr<Controller> controller_;
  InstanceId num_workers_;

  std::vector<std::unique_ptr<BoundedMpmcQueue<WorkerMsg>>> queues_;
  std::vector<std::unique_ptr<StateStore>> stores_;
  /// The controller's sketch provider in sketch mode, null in exact
  /// mode. Non-null makes every epoch buffer a slab.
  SketchStatsWindow* sketch_stats_ = nullptr;
  /// One epoch-buffer pair per worker.
  std::vector<std::unique_ptr<SlabPair>> slabs_;
  BoundedMpmcQueue<ExtractedState> migration_mailbox_;
  std::vector<std::thread> workers_;
  std::vector<std::vector<Tuple>> pending_batches_;

  // --- Seal/merge protocol state ---
  /// The post-roll heavy set of epoch heavy_epoch_. Written by the merge
  /// thread after its roll, BEFORE the release-store of heavy_epoch_;
  /// workers read it after their acquire-load, so the handoff is
  /// race-free.
  /// Both barrier waits below use condition variables, NOT yield spins:
  /// on a loaded (or single-core) machine a spinning waiter keeps
  /// burning scheduler slices the merge path needs, which is exactly the
  /// overlap this protocol exists to create.
  std::vector<KeyId> heavy_published_;
  std::atomic<std::uint64_t> heavy_epoch_{0};
  std::mutex heavy_mu_;
  std::condition_variable heavy_cv_;
  /// Signalled by workers after each seal publication; the merge thread
  /// sleeps here until the next sealed slab is available.
  std::mutex seal_mu_;
  std::condition_variable seal_cv_;
  /// Set once at shutdown; breaks workers out of the heavy-set barrier
  /// and the merge thread out of its seal waits.
  std::atomic<bool> stopping_{false};
  std::thread merge_thread_;
  std::mutex merge_mu_;
  std::condition_variable merge_cv_;
  std::uint64_t merge_requested_ = 0;  // guarded by merge_mu_
  std::uint64_t merge_completed_ = 0;  // guarded by merge_mu_
  bool merge_stop_ = false;            // guarded by merge_mu_
  /// The open boundary's report, handed to the merge thread by
  /// begin_boundary; the driver does not touch it until the merge
  /// completes.
  IntervalReport* merge_report_ = nullptr;  // guarded by merge_mu_
  /// Boundary-in-flight epoch between begin_boundary and
  /// finish_boundary (driver-only).
  std::uint64_t open_boundary_epoch_ = 0;
  /// Driver-side stall accumulator for the open boundary.
  double open_boundary_stall_ms_ = 0.0;

  InstanceId pinned_workers_ = 0;
  std::atomic<std::uint64_t> total_processed_{0};
  std::atomic<std::uint64_t> total_outputs_{0};
  std::uint64_t total_emitted_ = 0;
  IntervalId interval_ = 0;
  Micros engine_epoch_us_ = 0;
  bool stopped_ = false;
};

}  // namespace skewless
