// Real multi-threaded single-operator engine: a driver (spout + router +
// controller host) feeding N worker threads over bounded queues.
//
// This driver exists to prove the protocol end to end with real threads,
// real queues and real state objects — the examples and integration tests
// run on it. The figure benches use the deterministic SimEngine instead.
//
// Migration protocol (Fig. 5), mapped onto queue FIFO ordering:
//   1. the controller decides a plan at an interval boundary;
//   2. the driver routes no tuples while it pushes one Extract control
//      message per source worker — every tuple sent earlier is ahead of
//      the Extract in that worker's FIFO queue, so extraction sees the
//      fully up-to-date state;
//   3. workers reply with the extracted KeyState objects through the
//      migration mailbox;
//   4. the driver pushes Install messages to the destination workers and
//      only then resumes routing with the new assignment — any tuple
//      routed afterwards sits behind the Install in the destination's
//      FIFO queue, so it can never observe a missing state.
// Keys not involved in ∆(F, F') keep flowing the whole time.
//
// Queue bound: each worker queue holds 8 batches (kQueueBatches in the
// .cpp) before the driver blocks. The driver routes a batch several
// times faster than a worker processes one, so under load every queue
// sits full: its depth is the backlog a boundary waits for the workers to
// drain, and by Little's law most of a tuple's latency. Eight 256-tuple
// batches are still milliseconds of operator work per worker, far longer
// than the driver needs to refill a slot, so the workers do not starve.
//
// Statistics contract (worker ↔ driver): the controller's provider is
// the one statistics store, configured by ControllerConfig. The engine
// always runs a controller; the hash-only baseline is a controller built
// without a planner, which keeps the same statistics and never plans.
//   * exact mode — workers aggregate per batch into a private map, merge
//     it into a mutex-guarded shared map, and the driver swaps those out
//     at interval boundaries and replays them into the provider. O(|K|)
//     hash traffic crosses threads each interval.
//   * sketch mode — each worker owns thread-local WorkerSketchSlabs
//     (Count-Min sketches + Misra-Gries candidates + exact hot-key map
//     for the current heavy set) that are merged into the
//     SketchStatsWindow at the interval boundary in worker-index order,
//     so results are byte-identical regardless of worker finish order.
//     No per-key hash traffic crosses threads on the data path.
//
// Seal protocol (sketch mode, ThreadedConfig::async_merge — the
// asynchronous boundary merge): each worker owns a PAIR of slabs. At the
// boundary the driver pushes one lightweight SealMsg per worker and
// immediately returns to ingesting — the stall shrinks from the full
// quiesce-and-merge to the seal pushes. Each worker, on reaching its
// SealMsg (FIFO: after every batch of the closing epoch), stamps the
// active slab with the epoch, release-publishes it through
// SlabPair::sealed_epoch, swaps onto the other buffer, and then waits for
// the NEW heavy set (epoch-stamped, published after the merge thread
// rolls the window) before touching the next epoch's batches — which is
// what keeps double-buffered runs byte-identical to the inline merge:
// every slab accumulates under exactly the heavy set the inline schedule
// would have installed. A driver-side merge thread owns the whole
// statistics close: it absorbs the sealed slabs in worker-index order,
// rolls and plans (close_statistics), and publishes the heavy set, while
// the next interval's tuples are generated; the driver's finish_boundary
// only waits for it and executes the migration it planned. The merge
// input is exactly the sealed epoch regardless of scheduling, so the
// merged window state and the plan are schedule-independent too. With
// async_merge off the inline protocol (gap-free quiescence wait, then
// absorb, roll and plan on the driver) runs instead and is the
// determinism baseline the double-buffer path is tested against.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
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
  /// Window expiry watermark lag, in intervals (0 = no expiry messages).
  int expire_lag_intervals = 0;
  /// Ignored: ControllerConfig::stats_mode picks the statistics store.
  /// Kept because existing callers still set it.
  StatsMode stats_mode = StatsMode::kExact;
  /// Sketch mode only: double-buffer each worker's slab and absorb the
  /// sealed buffers, roll and plan on a merge thread that overlaps the
  /// next interval's tuple flow (see the seal protocol in the header
  /// comment). Off = the inline boundary (full quiescence wait, then
  /// absorb, roll and plan on the driver), kept as the byte-identical
  /// determinism baseline and the stall_ms A/B reference. Exact mode
  /// ignores this flag.
  bool async_merge = true;
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

class ThreadedEngine {
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
  /// into a deterministic shuffled tuple sequence with `seed`). With the
  /// asynchronous boundary merge enabled, the next interval's tuple
  /// expansion overlaps the previous boundary's slab merge — the
  /// pipelining run_interval's one-shot API cannot express.
  std::vector<IntervalReport> run(WorkloadSource& source, int intervals,
                                  std::uint64_t seed = 1);

  /// Processes an explicit tuple sequence as one interval. Uses the same
  /// seal/merge protocol as run() but completes the boundary before
  /// returning (no overlap window), so the merged statistics are fully
  /// visible to the caller — and byte-identical to the inline merge.
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
  struct ExpireMsg {
    Micros watermark;
  };
  /// Interval-boundary seal (sketch mode, async_merge): the worker
  /// stamps + publishes its active slab as `epoch`'s sealed buffer,
  /// swaps onto the other one, and installs the epoch's new heavy set
  /// before processing anything that follows. FIFO ordering guarantees
  /// every batch of the closing epoch is ahead of the seal.
  struct SealMsg {
    std::uint64_t epoch;
  };
  struct StopMsg {};
  using WorkerMsg = std::variant<BatchMsg, ExtractMsg, InstallMsg, ExpireMsg,
                                 SealMsg, StopMsg>;

  struct ExtractedState {
    KeyId key = 0;
    InstanceId from = 0;
    std::unique_ptr<KeyState> state;  // nullptr if the key had no state yet
  };

  /// Per-worker statistics shared with the driver. The channel depends
  /// on the stats mode:
  ///
  ///  * EXACT — the per_key map AND the scalar counters, merged under
  ///    the mutex per batch (one uncontended lock) and swapped out by
  ///    the driver at interval boundaries against a cleared scratch map
  ///    that keeps its buckets, so steady-state intervals do no
  ///    hash-table allocation on the hot path.
  ///  * SKETCH — the worker writes its WorkerSketchSlab (per-key AND
  ///    scalar counters — see WorkerSketchSlab::IntervalScalars) with NO
  ///    lock at all: the merge path only reads a slab after it was
  ///    published — by the quiescence wait (inline merge: done_msgs
  ///    observed equal, with acquire ordering, to the driver's push
  ///    count) or by the seal (async merge: sealed_epoch acquired) —
  ///    which orders every worker write before the read. No per-key
  ///    hash traffic and no lock on the data path.
  struct WorkerStats {
    std::mutex mu;
    KeyAggMap per_key;
    WorkerSketchSlab::IntervalScalars scalars;
    /// Messages fully handled by the worker, incremented with release
    /// ordering only AFTER all the message's effects (state mutations,
    /// slab writes, stats updates) are complete. The driver is the only
    /// producer, so `done_msgs == pushed_msgs_[w]` observed with acquire
    /// is gap-free quiescence: a popped-but-unfinished message keeps the
    /// counts unequal. (A busy *flag* set after pop() would leave a
    /// window where the queue is empty and the flag not yet raised.)
    std::atomic<std::uint64_t> done_msgs{0};
  };

  /// Double-buffered slab pair (sketch mode). The worker writes the
  /// active buffer exclusively; sealed_epoch release-publishes the other
  /// one to the merge path. Which buffer is sealed at epoch e is a pure
  /// function of e (buffer (e-1)&1 — the worker starts on buffer 0 and
  /// alternates), so neither side needs to share an index. With
  /// async_merge off only buffer 0 exists and is never sealed.
  struct SlabPair {
    std::unique_ptr<WorkerSketchSlab> bufs[2];
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
  /// Pushes `msg` to worker d's queue and counts it in pushed_msgs_.
  void push_counted(InstanceId d, WorkerMsg msg);
  void execute_migration(const RebalancePlan& plan);
  /// Inline boundary: tallies every (quiescent) worker's interval
  /// statistics in worker-index order — absorbing the slabs in sketch
  /// mode, replaying the per-key maps into the provider in exact mode.
  void drain_worker_stats(SlabTally& tally);
  /// Absorbs every worker's sealed slab for `epoch` in worker-index
  /// order (waiting for stragglers to seal), filling `tally`. Runs on
  /// the merge thread.
  void merge_sealed_slabs(std::uint64_t epoch, SlabTally& tally);
  /// Pushes the sketch provider's post-roll heavy set into every worker
  /// slab (inline merge only; workers must be quiescent).
  void refresh_worker_heavy_sets();
  /// Epoch-stamped release-publish of the post-roll heavy set; sealed
  /// workers waiting at their SealMsg barrier install it and resume.
  void publish_heavy_set(std::uint64_t epoch);
  /// Routes `tuples` as the open interval's stream (wall_ms accumulates
  /// the routing segment only).
  IntervalReport ingest(const std::vector<Tuple>& tuples);
  /// Starts the interval boundary: async merge pushes the seals and
  /// hands the epoch and the open `report` to the merge thread, which
  /// closes the statistics into it; inline/exact modes do nothing yet.
  /// Between begin and finish the caller may overlap driver-side work
  /// (run() expands the next interval's tuples there) — but must not
  /// route tuples or touch the controller or `report`.
  void begin_boundary(IntervalReport& report);
  /// Completes the boundary: waits for the merge thread (async) or
  /// absorbs, rolls and plans inline, executes the plan's migration, and
  /// finalizes the report's wall/stall/throughput numbers.
  void finish_boundary(IntervalReport& report);
  [[nodiscard]] bool async_merge_on() const {
    return sketch_stats_ != nullptr && config_.async_merge;
  }

  ThreadedConfig config_;
  std::shared_ptr<OperatorLogic> logic_;
  std::unique_ptr<Controller> controller_;
  InstanceId num_workers_;

  std::vector<std::unique_ptr<BoundedMpmcQueue<WorkerMsg>>> queues_;
  std::vector<std::unique_ptr<StateStore>> stores_;
  std::vector<std::unique_ptr<WorkerStats>> stats_;
  /// Messages the driver has pushed to each worker (driver-owned; the
  /// quiescence wait compares it against WorkerStats::done_msgs).
  /// StopMsg is deliberately uncounted — nothing waits after shutdown.
  std::vector<std::uint64_t> pushed_msgs_;
  /// Driver-side scratch maps swapped against WorkerStats::per_key at
  /// each drain (cleared with buckets retained — no per-interval rebuild).
  std::vector<KeyAggMap> drain_scratch_;
  /// The controller's sketch provider in sketch mode, null in exact
  /// mode. Non-null switches the worker↔driver statistics contract to
  /// thread-local slabs + boundary merge.
  SketchStatsWindow* sketch_stats_ = nullptr;
  /// One slab pair per worker (sketch mode only, else empty). Inline
  /// merge uses buffer 0 only.
  std::vector<std::unique_ptr<SlabPair>> slabs_;
  BoundedMpmcQueue<ExtractedState> migration_mailbox_;
  std::vector<std::thread> workers_;
  std::vector<std::vector<Tuple>> pending_batches_;
  /// CPU the driver ran start_workers() on (-1 if unknown); the merge
  /// thread prefers allocations from this CPU's NUMA node.
  int driver_cpu_ = -1;

  // --- Seal/merge protocol state (sketch mode + async_merge only) ---
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
  IntervalReport* merge_report_ = nullptr;       // guarded by merge_mu_
  std::optional<RebalancePlan> boundary_plan_;   // guarded by merge_mu_
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
