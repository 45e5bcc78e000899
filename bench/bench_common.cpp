#include "bench_common.h"

#include <algorithm>
#include <thread>

#include "common/consistent_hash.h"
#include "common/hash.h"

namespace skewless::bench {

std::string env_json() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return "  \"hardware_threads\": " + std::to_string(hw) + ",\n";
}

DriverResult drive_planner(WorkloadSource& source, PlannerPtr planner,
                           const DriverOptions& opts) {
  ControllerConfig cfg;
  cfg.planner.theta_max = opts.theta_max;
  cfg.planner.max_table_entries = opts.max_table_entries;
  cfg.planner.beta = opts.beta;
  cfg.window = opts.window;
  cfg.stats_mode = opts.stats_mode;
  cfg.sketch = opts.sketch;
  Controller controller(
      AssignmentFunction(
          ConsistentHashRing(opts.num_instances, 128, opts.ring_seed),
          opts.max_table_entries),
      std::move(planner), cfg, source.num_keys());

  DriverResult result;
  for (int i = 0; i < opts.intervals; ++i) {
    const IntervalWorkload load = source.next_interval();
    for (std::size_t k = 0; k < load.counts.size(); ++k) {
      if (load.counts[k] == 0) continue;
      const auto n = static_cast<double>(load.counts[k]);
      double per_tuple_bytes = opts.bytes_per_tuple;
      if (opts.state_heterogeneity > 0.0) {
        const double u =
            static_cast<double>(hash64(static_cast<KeyId>(k), 0xb17e) >> 11) *
            0x1.0p-53;
        per_tuple_bytes *= 1.0 + opts.state_heterogeneity * u;
      }
      // Destination-attributed, like the engines' record paths: sketch
      // mode needs it for exact per-instance cold residuals (the compact
      // planning view); the exact provider ignores it.
      controller.record(static_cast<KeyId>(k), opts.cost_per_tuple * n,
                        per_tuple_bytes * n, 1,
                        controller.assignment()(static_cast<KeyId>(k)));
    }
    const auto plan = controller.end_interval();
    result.theta_before.add(controller.last_observed_theta());
    result.theta_trajectory.push_back(controller.last_observed_theta());
    result.rebalanced_at.push_back(plan.has_value() ? 1 : 0);
    ++result.intervals;
    if (plan.has_value()) {
      ++result.rebalances;
      result.generation_ms.add(
          static_cast<double>(plan->generation_micros) / 1000.0);
      const Bytes total = controller.stats().total_windowed_state();
      result.migration_pct.add(
          total > 0.0 ? plan->migration_bytes / total * 100.0 : 0.0);
      result.table_size.add(static_cast<double>(plan->table_size));
      result.moves.add(static_cast<double>(plan->moves.size()));
      result.theta_after.add(plan->achieved_theta);
    }
  }
  result.promotions = controller.heavy_promotions();
  result.demotions = controller.heavy_demotions();
  result.stats_memory_bytes = controller.stats_memory_bytes();
  return result;
}

std::unique_ptr<Controller> make_controller(PlannerPtr planner,
                                            InstanceId num_instances,
                                            std::size_t num_keys,
                                            double theta_max,
                                            std::size_t max_table_entries,
                                            int window,
                                            std::uint64_t ring_seed) {
  ControllerConfig cfg;
  cfg.planner.theta_max = theta_max;
  cfg.planner.max_table_entries = max_table_entries;
  cfg.window = window;
  return std::make_unique<Controller>(
      AssignmentFunction(
          ConsistentHashRing(num_instances, 128, ring_seed),
          max_table_entries),
      std::move(planner), cfg, num_keys);
}

double mean_of(const std::vector<IntervalMetrics>& ms,
               double (*extract)(const IntervalMetrics&), int skip) {
  double acc = 0.0;
  int n = 0;
  for (std::size_t i = static_cast<std::size_t>(skip); i < ms.size(); ++i) {
    acc += extract(ms[i]);
    ++n;
  }
  return n > 0 ? acc / n : 0.0;
}

}  // namespace skewless::bench
