#include "engine/interval.h"

#include <algorithm>
#include <optional>

#include "common/clock.h"
#include "core/snapshot.h"
#include "sketch/sketch_stats_window.h"

namespace skewless {

BatchFold::BatchFold() {
  // Load-bearing for byte-identity: add_batch folds keys in the map's
  // iteration order, which depends on the bucket history, so every
  // worker — thread or process — must grow its map through identical
  // rehash points. clear() keeps the buckets, so steady state allocates
  // nothing per batch.
  per_key_.reserve(256);
}

void BatchFold::run(const std::vector<Tuple>& batch, Micros now_us,
                    StateStore& store, const OperatorLogic& logic,
                    Collector& out) {
  per_key_.clear();
  latency_sum_us_ = 0.0;
  for (const Tuple& t : batch) {
    KeyState& state =
        store.get_or_create(t.key, [&] { return logic.make_state(); });
    const Bytes before = state.bytes();
    const Cost cost = logic.process(t, state, out);
    auto& entry = per_key_[t.key];
    entry.cost += cost;
    entry.state_bytes += std::max(0.0, state.bytes() - before);
    latency_sum_us_ += static_cast<double>(now_us - t.emit_micros);
  }
  tuples_ = batch.size();
}

void BatchFold::add_scalars(WorkerSketchSlab::IntervalScalars& sc) const {
  sc.processed += tuples_;
  sc.latency_sum_us += latency_sum_us_;
}

void BatchFold::add_to(WorkerSketchSlab& slab) const {
  slab.add_batch(per_key_);
  add_scalars(slab.scalars());
}

void SlabTally::add(const WorkerSketchSlab::IntervalScalars& sc) {
  scalars.processed += sc.processed;
  scalars.latency_sum_us += sc.latency_sum_us;
}

void SlabTally::absorb(SketchStatsWindow& stats, const WorkerSketchSlab& slab,
                       std::size_t w) {
  add(slab.scalars());
  worker_cost[w] = slab.total_cost();
  memory_bytes += slab.memory_bytes();
  WallTimer merge_timer;
  stats.absorb(slab, static_cast<InstanceId>(w));
  merge_ms += merge_timer.elapsed_millis();
}

void SlabTally::replay(StatsProvider& stats, const KeyAggMap& per_key,
                       const WorkerSketchSlab::IntervalScalars& sc,
                       std::size_t w) {
  add(sc);
  constexpr std::size_t kNodeOverhead = 2 * sizeof(void*);
  memory_bytes +=
      per_key.size() * (sizeof(KeyAggMap::value_type) + kNodeOverhead) +
      per_key.bucket_count() * sizeof(void*);
  WallTimer merge_timer;
  for (const auto& [key, cb] : per_key) {
    worker_cost[w] += cb.cost;
    stats.record(key, cb.cost, cb.state_bytes, static_cast<InstanceId>(w));
  }
  merge_ms += merge_timer.elapsed_millis();
}

double load_skewness(const IntervalReport& report) {
  double total = 0.0;
  double max = 0.0;
  for (const double w : report.instance_load) {
    total += w;
    max = std::max(max, w);
  }
  const double mean =
      report.instance_load.empty()
          ? 0.0
          : total / static_cast<double>(report.instance_load.size());
  return mean > 0.0 ? max / mean : 1.0;
}

void note_plan(const RebalancePlan& plan, const StatsProvider& stats,
               IntervalReport& report) {
  report.migrated = true;
  report.moves = plan.moves.size();
  report.migration_bytes = plan.migration_bytes;
  report.generation_micros = plan.generation_micros;
  report.table_size = plan.table_size;
  const Bytes total = stats.total_windowed_state();
  report.migration_pct =
      total > 0.0 ? plan.migration_bytes / total * 100.0 : 0.0;
}

namespace {

/// close_boundary's statistics step: adds `tally` to `report`, rolls and
/// plans, and fills the plan, load, θ and memory fields.
std::optional<RebalancePlan> close_statistics(Controller& controller,
                                              const SlabTally& tally,
                                              IntervalReport& report) {
  report.processed += tally.scalars.processed;
  const auto processed = static_cast<double>(tally.scalars.processed);
  report.avg_latency_ms =
      processed > 0.0 ? tally.scalars.latency_sum_us / processed / 1000.0 : 0.0;
  report.merge_ms += tally.merge_ms;
  report.stats_memory_bytes += tally.memory_bytes;
  WallTimer roll_timer;
  std::optional<RebalancePlan> plan = controller.end_interval();
  report.roll_ms = roll_timer.elapsed_millis();
  if (plan) note_plan(*plan, controller.stats(), report);
  report.instance_load = tally.worker_cost;
  // A planner-less controller observes no imbalance: report the
  // realized one over the per-worker costs.
  report.max_theta = controller.has_planner()
                         ? controller.last_observed_theta()
                         : PartitionSnapshot::max_theta(tally.worker_cost);
  report.stats_memory_bytes += controller.stats_memory_bytes();
  return plan;
}

}  // namespace

bool close_boundary(Controller& controller, BoundaryTransport& transport,
                    std::uint64_t epoch, IntervalReport& report) {
  SlabTally tally(static_cast<std::size_t>(controller.num_instances()));
  if (!transport.collect(epoch, tally)) return false;
  const std::optional<RebalancePlan> plan =
      close_statistics(controller, tally, report);
  const SketchStatsWindow* sketch = controller.slab_sink();
  if (!transport.publish(epoch, sketch != nullptr ? sketch->heavy_keys()
                                                  : std::vector<KeyId>{})) {
    return false;
  }
  return !plan || transport.migrate(*plan, report);
}

void close_interval(IntervalReport& report, double routed_ms,
                    double stall_ms, Controller& controller) {
  report.stall_ms = stall_ms;
  report.wall_ms = routed_ms + stall_ms;
  report.throughput_tps = report.wall_ms > 0.0
                              ? static_cast<double>(report.processed) /
                                    (report.wall_ms / 1000.0)
                              : 0.0;
  controller.note_boundary(report.merge_ms, report.stall_ms);
}

void expand_interval(WorkloadSource& source, Xoshiro256& rng,
                     std::vector<Tuple>& tuples) {
  const IntervalWorkload load = source.next_interval();
  tuples.clear();
  tuples.reserve(static_cast<std::size_t>(load.total()));
  for (std::size_t k = 0; k < load.counts.size(); ++k) {
    for (std::uint64_t c = 0; c < load.counts[k]; ++c) {
      Tuple t;
      t.key = static_cast<KeyId>(k);
      t.value = static_cast<std::int64_t>(c);
      tuples.push_back(t);
    }
  }
  for (std::size_t j = tuples.size(); j > 1; --j) {
    std::swap(tuples[j - 1], tuples[rng.next_below(j)]);
  }
}

}  // namespace skewless
