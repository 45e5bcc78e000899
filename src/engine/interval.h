// Interval-level steps the threaded and the net engine share: the
// per-interval report, a worker's per-batch operator fold, the boundary
// tally of sealed worker slabs, the plan fields, the closing timing
// arithmetic, and the expansion of a source interval into a shuffled
// tuple sequence. The net ≡ threaded byte-identity contract rests on
// these being one copy: both engines fold, tally and expand through the
// same code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/controller.h"
#include "engine/operator.h"
#include "engine/state.h"
#include "engine/tuple.h"
#include "engine/workload_source.h"
#include "sketch/sharded_worker_slab.h"
#include "sketch/worker_sketch_slab.h"

namespace skewless {

/// One closed interval, reported by ThreadedEngine and NetEngine alike.
/// The wire and recovery fields read 0 on the threaded engine.
struct IntervalReport {
  IntervalId interval = 0;
  std::uint64_t emitted = 0;
  std::uint64_t processed = 0;
  double wall_ms = 0.0;
  double throughput_tps = 0.0;
  double avg_latency_ms = 0.0;
  double max_theta = 0.0;
  bool migrated = false;
  std::size_t moves = 0;
  Bytes migration_bytes = 0.0;
  /// Serialized state payload shipped during migration (threaded: only
  /// with ThreadedConfig::serialize_migration).
  Bytes migration_wire_bytes = 0.0;
  Micros generation_micros = 0;
  /// Resident bytes of ALL statistics structures: the provider plus the
  /// per-worker accumulators (sketch slabs — both buffers of each pair
  /// under the async merge — or, in exact mode, the shared per-key maps
  /// and drain scratch). The end-to-end number of the exact-vs-sketch
  /// memory trade-off.
  std::size_t stats_memory_bytes = 0;
  /// Time the driver's ingestion was blocked by this interval's boundary,
  /// from the interval's last tuple until it could route the next one,
  /// excluding ThreadedEngine::run's overlapped generation of the next
  /// interval. The async merge leaves only the seal pushes plus whatever
  /// merge/plan work had not finished by harvest time.
  double stall_ms = 0.0;
  /// Time absorbing worker statistics into the provider (slab absorbs,
  /// or the exact-mode per-key replay under the drain locks).
  double merge_ms = 0.0;
  /// Wall time of Controller::end_interval(): the statistics roll, the
  /// snapshot, the trigger and the plan. Part of stall_ms; 0 without a
  /// controller.
  double roll_ms = 0.0;
  /// Net engine: data / ctrl socket bytes this interval (both
  /// directions, frame headers included), cumulative crash recoveries,
  /// and whether any worker has been retired.
  std::uint64_t data_wire_bytes = 0;
  std::uint64_t ctrl_wire_bytes = 0;
  std::uint64_t recoveries = 0;
  bool degraded = false;
};

/// Per-key aggregates of one batch, in the shape
/// ShardedWorkerSlab::add_batch folds.
using KeyAggMap = std::unordered_map<KeyId, WorkerSketchSlab::KeyAgg>;

/// A worker's per-batch operator fold: runs the operator over every tuple
/// of a batch against the worker's state store and aggregates cost,
/// state growth and frequency per key, so each distinct key pays ONE
/// slab/map update per batch, not one per tuple.
class BatchFold {
 public:
  BatchFold();

  /// Folds `batch`; `now_us` is the batch's arrival on the engine clock
  /// (the same epoch-relative clock the driver stamps emit_micros on).
  void run(const std::vector<Tuple>& batch, Micros now_us, StateStore& store,
           const OperatorLogic& logic, Collector& out);

  /// Adds the last run's interval scalars: processed, latency sum and
  /// latency samples (one per tuple).
  void add_scalars(WorkerSketchSlab::IntervalScalars& sc) const;

  /// Adds the last run to `slab`: the per-key aggregates plus the scalars.
  void add_to(ShardedWorkerSlab& slab) const;

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
/// the threaded engine's exact-mode drain fills the same fields from its
/// per-key maps.
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
  void absorb(ShardedSketchStats& stats, const ShardedWorkerSlab& slab,
              std::size_t w);

  /// Adds the tally to `report`: processed, average latency, the
  /// realized imbalance over the per-worker costs, merge time, memory.
  void add_to(IntervalReport& report) const;

  WorkerSketchSlab::IntervalScalars scalars;
  std::vector<double> worker_cost;
  double merge_ms = 0.0;
  std::size_t memory_bytes = 0;
};

/// Rolls and plans the closing interval (Controller::end_interval) and
/// copies the decision into `report`: the plan's figures when a
/// migration was decided, the observed imbalance either way, and the
/// call's wall time as roll_ms. Returns the plan for the engine to
/// execute.
std::optional<RebalancePlan> plan_boundary(Controller& controller,
                                           IntervalReport& report);

/// Closes the report's timing: wall = routing time + boundary stall,
/// throughput = processed / wall. The boundary's merge and stall times
/// also go to `controller` when there is one.
void close_interval(IntervalReport& report, double routed_ms,
                    double stall_ms, Controller* controller);

/// Expands `source`'s next interval into one tuple per count (key k's
/// c-th tuple carries value c) and shuffles it with `rng` so hot keys
/// interleave like a stream. Both engines' run() use it: the byte-identity
/// contract starts with identical tuple sequences, so the RNG must be
/// consumed in exactly this order.
void expand_interval(WorkloadSource& source, Xoshiro256& rng,
                     std::vector<Tuple>& tuples);

}  // namespace skewless
