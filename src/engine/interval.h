// Interval-level steps the engines share: the per-interval report every
// engine returns (SimEngine included) and the copy of a decided plan into
// it, plus what the threaded and the net engine alone share — a worker's
// per-batch operator fold, the boundary tally of sealed worker buffers,
// the boundary routine (collect, roll and plan, publish the heavy set,
// migrate), the closing timing arithmetic, and the expansion of a source
// interval into a shuffled tuple sequence. The net ≡ threaded
// byte-identity contract rests on these being one copy: both engines
// fold, tally, close and expand through the same code, in the same order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/controller.h"
#include "engine/operator.h"
#include "engine/state.h"
#include "engine/tuple.h"
#include "engine/workload_source.h"
#include "sketch/worker_sketch_slab.h"

namespace skewless {

/// Batches that may wait for one worker before the driver blocks: the
/// capacity of each ThreadedEngine worker queue and the credit window of
/// each NetEngine data channel. Both engines let at most this many
/// batches wait per worker, besides the one it is folding, so under load
/// the backlog a boundary drains and, by Little's law, most of a tuple's
/// latency are the same on both.
///
/// Sizing (perfbench, 3 workers + driver on a 4-vCPU host, 20 s runs): a
/// worker folds a 256-tuple batch in ~0.43 ms, so four queued batches are
/// ~1.8 ms of operator work per worker, still ~18× the ~0.1 ms the driver
/// needs to route a worker's next batch. Going from 8 to 4 nearly halved
/// zipf-threaded's tuple latency (1.60 → 0.89 ms and 1.92 → 1.03 ms,
/// medians of two sets of 10 pairs) with throughput inside the runs'
/// spread; 3 cut it to ~0.9 ms but cost shift-threaded 2–6% of its
/// throughput.
inline constexpr std::size_t kQueueBatches = 4;

/// One closed interval, reported by every engine. The wire,
/// migration-wire and recovery fields read 0 on the threaded engine.
/// SimEngine fills the tuple counts, the rates, θ, the plan fields and
/// instance_load; its wall_ms, throughput_tps and avg_latency_ms are
/// virtual time (wall_ms is the simulated interval length), and its
/// stall, merge, roll and memory fields read 0. Offered rate =
/// emitted / (wall_ms / 1000); skewness = load_skewness(report).
struct IntervalReport {
  IntervalId interval = 0;
  std::uint64_t emitted = 0;
  std::uint64_t processed = 0;
  double wall_ms = 0.0;
  double throughput_tps = 0.0;
  double avg_latency_ms = 0.0;
  double max_theta = 0.0;
  /// Work per instance this interval: the operator cost the instance ran
  /// (micros of work on the sim, the worker's cost sum on the threaded
  /// and net engines).
  std::vector<double> instance_load;
  bool migrated = false;
  std::size_t moves = 0;
  /// Routing-table entries after the interval's plan (0 without one).
  std::size_t table_size = 0;
  Bytes migration_bytes = 0.0;
  /// migration_bytes as a percentage of the post-roll windowed state.
  double migration_pct = 0.0;
  /// Serialized state payload shipped during migration (net engine; the
  /// threaded engine moves state objects and reports 0).
  Bytes migration_wire_bytes = 0.0;
  Micros generation_micros = 0;
  /// Resident bytes of ALL statistics structures: the provider plus the
  /// per-worker accumulators (on the threaded engine both epoch buffers
  /// of every worker: two slabs in sketch mode, two per-key maps in exact
  /// mode). The end-to-end number of the exact-vs-sketch memory
  /// trade-off.
  std::size_t stats_memory_bytes = 0;
  /// Time the driver's ingestion was blocked by this interval's boundary,
  /// from the interval's last tuple until it could route the next one,
  /// excluding ThreadedEngine::run's overlapped generation of the next
  /// interval. On the threaded engine that is the seal pushes plus
  /// whatever of the merge thread's boundary (merge, roll, plan,
  /// migration) had not finished when the driver waited for it.
  double stall_ms = 0.0;
  /// Time absorbing worker statistics into the provider (slab absorbs,
  /// or the exact-mode per-key replay).
  double merge_ms = 0.0;
  /// Wall time of Controller::end_interval(): the statistics roll, plus
  /// the snapshot, the trigger and the plan when the controller has a
  /// planner. Set by every engine. Part of stall_ms under run_interval();
  /// under ThreadedEngine::run() the merge thread's roll can overlap the
  /// next interval's expansion, which stall_ms excludes.
  double roll_ms = 0.0;
  /// Net engine: data / ctrl socket bytes this interval (both
  /// directions, frame headers included), cumulative crash recoveries,
  /// and whether any worker has been retired.
  std::uint64_t data_wire_bytes = 0;
  std::uint64_t ctrl_wire_bytes = 0;
  std::uint64_t recoveries = 0;
  bool degraded = false;
};

/// max_d L(d) / L̄ over instance_load, the paper's "workload skewness"
/// (1 when no instance did any work).
[[nodiscard]] double load_skewness(const IntervalReport& report);

/// Copies a decided plan's figures into `report`: migrated, moves,
/// migration bytes, generation time, table size, and the migration as a
/// share of `stats`' windowed state (call after the roll).
void note_plan(const RebalancePlan& plan, const StatsProvider& stats,
               IntervalReport& report);

/// Per-key aggregates of one batch, in the shape
/// WorkerSketchSlab::add_batch folds.
using KeyAggMap = std::unordered_map<KeyId, WorkerSketchSlab::KeyAgg>;

/// A worker's per-batch operator fold: runs the operator over every tuple
/// of a batch against the worker's state store and aggregates cost and
/// state growth per key, so each distinct key pays ONE slab/map update
/// per batch, not one per tuple.
class BatchFold {
 public:
  BatchFold();

  /// Folds `batch`; `now_us` is the batch's arrival on the engine clock
  /// (the same epoch-relative clock the driver stamps emit_micros on).
  void run(const std::vector<Tuple>& batch, Micros now_us, StateStore& store,
           const OperatorLogic& logic, Collector& out);

  /// Adds the last run's interval scalars: processed and the latency
  /// sum (one sample per tuple).
  void add_scalars(WorkerSketchSlab::IntervalScalars& sc) const;

  /// Adds the last run to `slab`: the per-key aggregates plus the scalars.
  void add_to(WorkerSketchSlab& slab) const;

  /// Grows the scratch map to at least `buckets` buckets: a restored
  /// net worker resumes its predecessor's rehash trajectory, which its
  /// checkpoint records as per_key().bucket_count().
  void restore_buckets(std::size_t buckets) {
    if (buckets > per_key_.bucket_count()) per_key_.rehash(buckets);
  }

  [[nodiscard]] const KeyAggMap& per_key() const { return per_key_; }

 private:
  KeyAggMap per_key_;
  std::size_t tuples_ = 0;
  double latency_sum_us_ = 0.0;
};

/// The boundary's per-worker tally, filled in worker-index order:
/// processed tuples, latency, per-worker cost, statistics memory and
/// merge time. Sketch mode fills it from sealed slabs through absorb();
/// the threaded engine's exact mode fills the same fields from its
/// sealed per-key maps through replay().
struct SlabTally {
  explicit SlabTally(std::size_t workers = 0) : worker_cost(workers, 0.0) {}

  /// Adds one worker's interval scalars.
  void add(const WorkerSketchSlab::IntervalScalars& sc);

  /// Tallies worker `w`'s sealed slab and absorbs it into `stats`, timing
  /// the absorb as merge time. Worker w IS instance w: the slab's whole
  /// cold stream ran there, which is the attribution the compact
  /// planning view's per-instance cold residuals need. Absorbing in
  /// worker-index order keeps the merged statistics byte-identical
  /// whichever worker finished (or whose summary arrived) first.
  void absorb(SketchStatsWindow& stats, const WorkerSketchSlab& slab,
              std::size_t w);

  /// Exact mode's absorb(): tallies worker `w`'s scalars, its map at its
  /// fullest and its cost, and replays every key of `per_key` into
  /// `stats`, timing the replay as merge time.
  void replay(StatsProvider& stats, const KeyAggMap& per_key,
              const WorkerSketchSlab::IntervalScalars& sc, std::size_t w);

  WorkerSketchSlab::IntervalScalars scalars;
  std::vector<double> worker_cost;
  double merge_ms = 0.0;
  std::size_t memory_bytes = 0;
};

/// How close_boundary reaches one engine's workers. Each hook returns
/// false once the engine has failed or is stopping; close_boundary then
/// stops. Nothing is owned or deleted through this interface.
class BoundaryTransport {
 public:
  /// Tallies every worker's sealed statistics for `epoch` into `tally`,
  /// in worker-index order: SlabTally::absorb for a sealed slab,
  /// SlabTally::replay for a sealed per-key map.
  virtual bool collect(std::uint64_t epoch, SlabTally& tally) = 0;

  /// Hands every worker `epoch`'s post-roll heavy set (empty in exact
  /// mode); a sealed worker installs it before its next batch.
  virtual bool publish(std::uint64_t epoch, std::vector<KeyId> heavy) = 0;

  /// Moves the state of `plan`'s keys to their new owners; the next
  /// interval is routed only after this returns.
  virtual bool migrate(const RebalancePlan& plan, IntervalReport& report) = 0;

 protected:
  ~BoundaryTransport() = default;
};

/// The boundary of Fig. 5, one order for both engines: collects every
/// worker's sealed statistics for `epoch`, adds the tally to `report`
/// (processed, average latency, merge time, memory), rolls and plans
/// (Controller::end_interval, timed as roll_ms), copies a decided plan's
/// figures through note_plan, sets instance_load to the per-worker costs
/// and max_theta to the controller's observed imbalance (for a
/// planner-less controller, which observes none, the realized one over
/// the per-worker costs), adds the provider's post-roll memory, publishes
/// the post-roll heavy set, and then, if a plan was decided, migrates.
/// Returns false as soon as a hook does.
bool close_boundary(Controller& controller, BoundaryTransport& transport,
                    std::uint64_t epoch, IntervalReport& report);

/// Closes the report's timing: wall = routing time + boundary stall,
/// throughput = processed / wall. The boundary's merge and stall times
/// also go to `controller`.
void close_interval(IntervalReport& report, double routed_ms,
                    double stall_ms, Controller& controller);

/// Expands `source`'s next interval into one tuple per count (key k's
/// c-th tuple carries value c) and shuffles it with `rng` so hot keys
/// interleave like a stream. Both engines' run() use it: the byte-identity
/// contract starts with identical tuple sequences, so the RNG must be
/// consumed in exactly this order.
void expand_interval(WorkloadSource& source, Xoshiro256& rng,
                     std::vector<Tuple>& tuples);

}  // namespace skewless
