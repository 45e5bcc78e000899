#include "engine/interval.h"

#include <algorithm>

#include "common/clock.h"
#include "core/sharded_controller.h"
#include "core/snapshot.h"

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
    ++entry.frequency;
    latency_sum_us_ += static_cast<double>(now_us - t.emit_micros);
  }
  tuples_ = batch.size();
}

void BatchFold::add_scalars(WorkerSketchSlab::IntervalScalars& sc) const {
  sc.processed += tuples_;
  sc.latency_sum_us += latency_sum_us_;
  sc.latency_samples += tuples_;
}

void BatchFold::add_to(ShardedWorkerSlab& slab) const {
  slab.add_batch(per_key_);
  add_scalars(slab.scalars());
}

void SlabTally::add(const WorkerSketchSlab::IntervalScalars& sc) {
  scalars.processed += sc.processed;
  scalars.latency_sum_us += sc.latency_sum_us;
  scalars.latency_samples += sc.latency_samples;
}

void SlabTally::absorb(ShardedSketchStats& stats,
                       const ShardedWorkerSlab& slab, std::size_t w) {
  add(slab.scalars());
  worker_cost[w] = slab.total_cost();
  memory_bytes += slab.memory_bytes();
  WallTimer merge_timer;
  stats.absorb_slab(slab, static_cast<InstanceId>(w));
  merge_ms += merge_timer.elapsed_millis();
}

void SlabTally::add_to(IntervalReport& report) const {
  report.processed += scalars.processed;
  const auto samples = static_cast<double>(scalars.latency_samples);
  report.avg_latency_ms =
      samples > 0.0 ? scalars.latency_sum_us / samples / 1000.0 : 0.0;
  report.max_theta = PartitionSnapshot::max_theta(worker_cost);
  report.merge_ms += merge_ms;
  report.stats_memory_bytes += memory_bytes;
}

std::optional<RebalancePlan> plan_boundary(Controller& controller,
                                           IntervalReport& report) {
  WallTimer roll_timer;
  std::optional<RebalancePlan> plan = controller.end_interval();
  report.roll_ms = roll_timer.elapsed_millis();
  if (plan) {
    report.migrated = true;
    report.moves = plan->moves.size();
    report.migration_bytes = plan->migration_bytes;
    report.generation_micros = plan->generation_micros;
  }
  report.max_theta = controller.last_observed_theta();
  return plan;
}

void close_interval(IntervalReport& report, double routed_ms,
                    double stall_ms, Controller* controller) {
  report.stall_ms = stall_ms;
  report.wall_ms = routed_ms + stall_ms;
  report.throughput_tps = report.wall_ms > 0.0
                              ? static_cast<double>(report.processed) /
                                    (report.wall_ms / 1000.0)
                              : 0.0;
  if (controller != nullptr) {
    controller->note_boundary(report.merge_ms, report.stall_ms);
  }
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
