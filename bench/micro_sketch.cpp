// micro_sketch — the exact-vs-sketch statistics accuracy harness.
//
// Scenario: a 1M-key Zipf(1.2) synthetic workload (the ROADMAP's
// "millions of users" regime). Both providers ingest the identical
// stream; we then measure
//
//   1. MEMORY   — resident bytes of the statistics structures,
//   2. ACCURACY — cost-weighted relative error of the sketch's dense
//                 synthesized view against the exact one, plus the error
//                 over the top-K hottest keys (which should be ~0: the
//                 hot tier is exact),
//   3. PLAN QUALITY — the Mixed planner runs once on each provider's
//                 snapshot; both plans are evaluated under the EXACT
//                 statistics (the ground truth the system would really
//                 experience): post-rebalance max_theta and migration %.
//
// Output: a human-readable summary on stderr and machine-readable JSON
// on stdout (bench/run_benches.sh redirects it into BENCH_sketch.json).
// Exit status is non-zero if the acceptance gates fail (memory ratio
// ≥ 10x, |theta_sketch − theta_exact| ≤ 5% relative with a 0.005
// absolute floor), so CI can run it as a check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "common/clock.h"
#include "common/consistent_hash.h"
#include "common/zipf.h"
#include "core/controller.h"
#include "core/planners.h"
#include "core/snapshot.h"
#include "core/stats_window.h"
#include "sketch/sketch_stats_window.h"

using namespace skewless;

namespace {

struct PlanEval {
  double theta_before = 0.0;
  double theta_after = 0.0;   // under EXACT costs
  double migration_pct = 0.0; // exact migrated bytes / exact total state
  std::size_t moves = 0;
  std::size_t table_size = 0;
  double generation_ms = 0.0;
};

/// Evaluates `assignment` under the ground-truth snapshot.
PlanEval evaluate(const PartitionSnapshot& truth, const RebalancePlan& plan,
                  double theta_before) {
  PlanEval ev;
  ev.theta_before = theta_before;
  ev.theta_after =
      PartitionSnapshot::max_theta(truth.loads_under(plan.assignment));
  Bytes moved = 0.0;
  for (const KeyMove& mv : plan.moves) {
    moved += truth.state[static_cast<std::size_t>(mv.key)];
  }
  Bytes total_state = 0.0;
  for (const Bytes b : truth.state) total_state += b;
  ev.migration_pct = total_state > 0.0 ? moved / total_state * 100.0 : 0.0;
  ev.moves = plan.moves.size();
  ev.table_size = plan.table_size;
  ev.generation_ms = static_cast<double>(plan.generation_micros) / 1000.0;
  return ev;
}

}  // namespace

int main(int argc, char** argv) {
  // Defaults reproduce the acceptance scenario; smaller values are
  // available for quick runs (--keys, --tuples, --intervals).
  std::uint64_t num_keys = 1'000'000;
  std::uint64_t tuples_per_interval = 4'000'000;
  int intervals = 4;
  const InstanceId num_instances = 10;
  const int window = 2;
  for (int i = 1; i < argc; ++i) {
    const auto need = [&]() -> long long {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "usage: %s [--keys N] [--tuples N] [--intervals N]\n",
                     argv[0]);
        std::exit(2);
      }
      return std::atoll(argv[++i]);
    };
    if (std::strcmp(argv[i], "--keys") == 0) {
      num_keys = static_cast<std::uint64_t>(need());
    } else if (std::strcmp(argv[i], "--tuples") == 0) {
      tuples_per_interval = static_cast<std::uint64_t>(need());
    } else if (std::strcmp(argv[i], "--intervals") == 0) {
      intervals = static_cast<int>(need());
    } else {
      std::fprintf(stderr, "usage: %s [--keys N] [--tuples N] [--intervals N]\n",
                   argv[0]);
      return 2;
    }
  }

  const double kCostPerTuple = 2.0;   // us
  const double kBytesPerTuple = 16.0;

  std::fprintf(stderr, "generating Zipf(1.2) over %llu keys...\n",
               static_cast<unsigned long long>(num_keys));
  const ZipfDistribution zipf(num_keys, 1.2, true, 0x217f);
  const auto counts = zipf.expected_counts(tuples_per_interval);

  StatsWindow exact(num_keys, window);
  SketchStatsWindow sketch(num_keys, window);  // default SketchStatsConfig

  WallTimer ingest_timer;
  for (int interval = 0; interval < intervals; ++interval) {
    for (std::size_t k = 0; k < counts.size(); ++k) {
      const auto n = counts[k];
      if (n == 0) continue;
      const auto key = static_cast<KeyId>(k);
      const double nd = static_cast<double>(n);
      exact.record(key, kCostPerTuple * nd, kBytesPerTuple * nd);
      sketch.record(key, kCostPerTuple * nd, kBytesPerTuple * nd);
    }
    exact.roll();
    sketch.roll();
  }
  const double ingest_ms = ingest_timer.elapsed_millis();

  // ---- 1. Memory.
  const std::size_t exact_bytes = exact.memory_bytes();
  const std::size_t sketch_bytes = sketch.memory_bytes();
  const double memory_ratio = static_cast<double>(exact_bytes) /
                              static_cast<double>(sketch_bytes);

  // ---- 2. Accuracy of the synthesized dense view.
  std::vector<Cost> cost_e, cost_s;
  std::vector<Bytes> state_e, state_s;
  exact.synthesize_dense(cost_e, state_e);
  sketch.synthesize_dense(cost_s, state_s);

  double weighted_err_num = 0.0, weighted_err_den = 0.0;
  for (std::size_t k = 0; k < cost_e.size(); ++k) {
    weighted_err_num += std::abs(cost_s[k] - cost_e[k]);
    weighted_err_den += cost_e[k];
  }
  const double weighted_cost_err =
      weighted_err_den > 0.0 ? weighted_err_num / weighted_err_den : 0.0;

  const std::uint64_t kTop = 1000;
  double top_err_num = 0.0, top_err_den = 0.0;
  for (std::uint64_t r = 0; r < kTop && r < num_keys; ++r) {
    const auto k = static_cast<std::size_t>(zipf.key_at_rank(r));
    top_err_num += std::abs(cost_s[k] - cost_e[k]);
    top_err_den += cost_e[k];
  }
  const double top1000_cost_err =
      top_err_den > 0.0 ? top_err_num / top_err_den : 0.0;

  // ---- 3. Plan quality: Mixed on each view, both judged by the truth.
  PartitionSnapshot truth;
  truth.num_instances = num_instances;
  truth.cost = std::move(cost_e);
  truth.state = std::move(state_e);
  {
    const ConsistentHashRing ring(num_instances, 128, 21);
    truth.hash_dest.resize(truth.cost.size());
    for (std::size_t k = 0; k < truth.cost.size(); ++k) {
      truth.hash_dest[k] = ring.owner(static_cast<KeyId>(k));
    }
  }
  truth.current = truth.hash_dest;

  PartitionSnapshot approx = truth;  // same routing view...
  approx.cost = std::move(cost_s);   // ...sketch-synthesized statistics
  approx.state = std::move(state_s);

  PlannerConfig pcfg;
  pcfg.theta_max = 0.08;
  pcfg.max_table_entries = 3000;

  const double theta_before =
      PartitionSnapshot::max_theta(truth.current_loads());

  MixedPlanner planner_e, planner_s;
  std::fprintf(stderr, "planning (exact view)...\n");
  const RebalancePlan plan_e = planner_e.plan(truth, pcfg);
  std::fprintf(stderr, "planning (sketch view)...\n");
  const RebalancePlan plan_s = planner_s.plan(approx, pcfg);

  const PlanEval ev_e = evaluate(truth, plan_e, theta_before);
  const PlanEval ev_s = evaluate(truth, plan_s, theta_before);

  // ---- Acceptance gates.
  const double theta_delta = std::abs(ev_s.theta_after - ev_e.theta_after);
  const double theta_tolerance = std::max(0.05 * ev_e.theta_after, 0.005);
  const bool pass_memory = memory_ratio >= 10.0;
  const bool pass_theta = theta_delta <= theta_tolerance;

  std::fprintf(stderr,
               "\n%-28s %15s %15s\n"
               "%-28s %15zu %15zu\n"
               "%-28s %15.4f %15.4f\n"
               "%-28s %15.4f %15.4f\n"
               "%-28s %15.2f %15.2f\n"
               "%-28s %15zu %15zu\n"
               "%-28s %15zu %15zu\n",
               "", "exact", "sketch",
               "stats memory (bytes)", exact_bytes, sketch_bytes,
               "theta before", ev_e.theta_before, ev_s.theta_before,
               "theta after (true eval)", ev_e.theta_after, ev_s.theta_after,
               "migration % (true eval)", ev_e.migration_pct,
               ev_s.migration_pct,
               "moves", ev_e.moves, ev_s.moves,
               "table size", ev_e.table_size, ev_s.table_size);
  std::fprintf(stderr,
               "memory ratio %.1fx (gate >= 10x: %s), theta delta %.4f "
               "(gate <= %.4f: %s)\n"
               "weighted cost err %.4f, top-1000 cost err %.6f, heavy keys "
               "%zu, ingest %.0f ms\n",
               memory_ratio, pass_memory ? "PASS" : "FAIL", theta_delta,
               theta_tolerance, pass_theta ? "PASS" : "FAIL",
               weighted_cost_err, top1000_cost_err, sketch.heavy_count(),
               ingest_ms);

  // ---- Machine-readable record (stdout).
  std::printf(
      "{\n"
      "  \"bench\": \"micro_sketch\",\n"
      "%s"
      "  \"workload\": {\"distribution\": \"zipf\", \"skew\": 1.2, "
      "\"keys\": %llu, \"tuples_per_interval\": %llu, \"intervals\": %d, "
      "\"window\": %d, \"instances\": %d},\n"
      "  \"memory\": {\"exact_bytes\": %zu, \"sketch_bytes\": %zu, "
      "\"ratio\": %.2f},\n"
      "  \"accuracy\": {\"weighted_cost_rel_err\": %.6f, "
      "\"top1000_cost_rel_err\": %.8f, \"heavy_keys\": %zu},\n"
      "  \"plan_quality\": {\n"
      "    \"theta_before\": %.6f,\n"
      "    \"exact\":  {\"theta_after\": %.6f, \"migration_pct\": %.4f, "
      "\"moves\": %zu, \"table_size\": %zu, \"generation_ms\": %.2f},\n"
      "    \"sketch\": {\"theta_after\": %.6f, \"migration_pct\": %.4f, "
      "\"moves\": %zu, \"table_size\": %zu, \"generation_ms\": %.2f},\n"
      "    \"theta_delta\": %.6f, \"theta_tolerance\": %.6f\n"
      "  },\n"
      "  \"gates\": {\"memory_ratio_ge_10x\": %s, "
      "\"theta_within_tolerance\": %s}\n"
      "}\n",
      bench::env_json().c_str(),
      static_cast<unsigned long long>(num_keys),
      static_cast<unsigned long long>(tuples_per_interval), intervals, window,
      static_cast<int>(num_instances), exact_bytes, sketch_bytes, memory_ratio,
      weighted_cost_err, top1000_cost_err, sketch.heavy_count(),
      ev_e.theta_before, ev_e.theta_after, ev_e.migration_pct, ev_e.moves,
      ev_e.table_size, ev_e.generation_ms, ev_s.theta_after,
      ev_s.migration_pct, ev_s.moves, ev_s.table_size, ev_s.generation_ms,
      theta_delta, theta_tolerance, pass_memory ? "true" : "false",
      pass_theta ? "true" : "false");

  return (pass_memory && pass_theta) ? 0 : 1;
}
