// Shared machinery for the figure-reproduction benches.
//
// Two drivers:
//  * PlannerDriver — feeds per-interval workloads straight into a
//    Controller and aggregates planning metrics (generation time,
//    migration cost %, routing-table size). Used by the figures that
//    study the rebalance algorithms themselves (Figs. 8-12, 17-21).
//  * sim helpers — build SimEngine configurations for the end-to-end
//    throughput/latency figures (Figs. 13-16).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/table.h"
#include "core/controller.h"
#include "core/plan.h"
#include "engine/sim_engine.h"
#include "engine/workload_source.h"

namespace skewless::bench {

struct DriverOptions {
  InstanceId num_instances = 10;
  double theta_max = 0.08;
  std::size_t max_table_entries = 0;  // Amax (0 = unbounded)
  double beta = 1.5;
  int window = 1;
  int intervals = 8;
  /// Per-tuple CPU cost and state growth fed into the statistics.
  Cost cost_per_tuple = 1.0;
  Bytes bytes_per_tuple = 8.0;
  /// Per-key state heterogeneity: key k appends
  /// bytes_per_tuple · (1 + state_heterogeneity · u(k)) bytes per tuple,
  /// u(k) ∈ [0, 1) a per-key hash. 0 = homogeneous (state strictly
  /// proportional to cost); > 0 spreads the cost-per-byte ratios, which
  /// the γ = c^β / S criterion trades off.
  double state_heterogeneity = 0.0;
  std::uint64_t ring_seed = 21;
  /// Statistics storage for the driven controller: exact (default) or
  /// the sketch provider — the knob the sketch-mode bench columns flip.
  StatsMode stats_mode = StatsMode::kExact;
  SketchStatsConfig sketch = {};
};

struct DriverResult {
  Welford generation_ms;    // per rebalance
  Welford migration_pct;    // migrated bytes / total windowed state * 100
  Welford table_size;       // N_A' after each rebalance
  Welford moves;            // |∆(F, F')|
  Welford theta_before;     // imbalance observed at each interval boundary
  Welford theta_after;      // plan's achieved balance
  std::size_t rebalances = 0;
  std::size_t intervals = 0;
  /// Heavy-set churn over the run (sketch mode; zeros in exact mode).
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  /// Statistics memory after the final interval.
  std::size_t stats_memory_bytes = 0;
  /// Per-interval observed θ and whether that boundary rebalanced —
  /// theta_trajectory[i+1] is the REALIZED imbalance of the assignment
  /// installed at boundary i (the number a plan should be judged by,
  /// rather than its own predicted achieved θ).
  std::vector<double> theta_trajectory;
  std::vector<char> rebalanced_at;
};

/// Runs `planner` against `source` through a Controller for
/// `opts.intervals` intervals and aggregates the planning metrics.
DriverResult drive_planner(WorkloadSource& source, PlannerPtr planner,
                           const DriverOptions& opts);

/// Builds a controller for sim-engine experiments.
std::unique_ptr<Controller> make_controller(PlannerPtr planner,
                                            InstanceId num_instances,
                                            std::size_t num_keys,
                                            double theta_max,
                                            std::size_t max_table_entries = 0,
                                            int window = 1,
                                            std::uint64_t ring_seed = 21);

/// Mean of a metric over intervals [skip, end).
double mean_of(const std::vector<IntervalMetrics>& ms,
               double (*extract)(const IntervalMetrics&), int skip = 2);

/// The environment stanza every BENCH_*.json carries — the host's
/// hardware thread count (tools/check_bench_regression.py refuses to
/// compare numbers produced under different thread counts). Returns
///   "  \"hardware_threads\": N,\n"
/// ready to splice into a printf JSON template via %s.
std::string env_json();

inline double throughput_of(const IntervalMetrics& m) {
  return m.throughput_tps;
}
inline double latency_of(const IntervalMetrics& m) { return m.avg_latency_ms; }

}  // namespace skewless::bench
