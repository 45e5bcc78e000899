// micro_plan — the compact-planning-path latency harness.
//
// Scenario: a 1M-key Zipf(1.2) workload (the ROADMAP's "millions of
// users" regime) with a 4096-entry heavy tier. Both statistics providers
// ingest the identical stream; we then time the full planning path —
// snapshot synthesis + Mixed planning — through each representation:
//
//   EXACT  — StatsWindow::synthesize_dense materializes O(|K|) vectors
//            and the planner scans all |K| keys per phase;
//   SKETCH — SketchStatsWindow::synthesize_compact emits the heavy set
//            plus per-instance cold residuals, and the planner touches
//            only k = heavy_capacity entries (O(k log k)).
//
// Gates (exit status, so CI can run this as a check):
//   1. SPEEDUP  — the sketch-mode planning path is >= 20x faster;
//   2. COMPACT  — the compact path provably allocates nothing O(|K|):
//                 entry count <= heavy capacity, the plan's assignment is
//                 entry-aligned, and every structure the planner builds
//                 is sized by entries (checked structurally here).
//
// Output: human-readable summary on stderr, machine-readable JSON on
// stdout (bench/run_benches.sh redirects it into BENCH_plan.json).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "common/clock.h"
#include "common/consistent_hash.h"
#include "common/zipf.h"
#include "core/planners.h"
#include "core/snapshot.h"
#include "core/stats_window.h"
#include "sketch/sketch_stats_window.h"

using namespace skewless;

namespace {

struct PathTiming {
  Micros snapshot_micros = 0;  // snapshot synthesis
  Micros plan_micros = 0;      // planner->plan
  [[nodiscard]] Micros total() const { return snapshot_micros + plan_micros; }
};

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t num_keys = 1'000'000;
  std::uint64_t tuples_per_interval = 4'000'000;
  std::size_t heavy_capacity = 4096;
  int rounds = 3;
  const InstanceId num_instances = 10;
  const int window = 2;
  for (int i = 1; i < argc; ++i) {
    const auto need = [&]() -> long long {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "usage: %s [--keys N] [--tuples N] [--heavy N]\n",
                     argv[0]);
        std::exit(2);
      }
      return std::atoll(argv[++i]);
    };
    if (std::strcmp(argv[i], "--keys") == 0) {
      num_keys = static_cast<std::uint64_t>(need());
    } else if (std::strcmp(argv[i], "--tuples") == 0) {
      tuples_per_interval = static_cast<std::uint64_t>(need());
    } else if (std::strcmp(argv[i], "--heavy") == 0) {
      heavy_capacity = static_cast<std::size_t>(need());
    } else {
      std::fprintf(stderr, "usage: %s [--keys N] [--tuples N] [--heavy N]\n",
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
  const ConsistentHashRing ring(num_instances, 128, 21);

  StatsWindow exact(num_keys, window);
  SketchStatsConfig scfg;
  scfg.heavy_capacity = heavy_capacity;
  SketchStatsWindow sketch(num_keys, window, scfg);

  // Two identical intervals: interval 1 nominates the heavy set, interval
  // 2 gives it exact statistics. Destinations (needed for the sketch's
  // per-instance cold residuals) are the hash placement — the usual
  // "skewed workload just arrived, table still empty" planning input.
  WallTimer ingest_timer;
  for (int interval = 0; interval < 2; ++interval) {
    for (std::size_t k = 0; k < counts.size(); ++k) {
      const auto n = counts[k];
      if (n == 0) continue;
      const auto key = static_cast<KeyId>(k);
      const double nd = static_cast<double>(n);
      const InstanceId dest = ring.owner(key);
      exact.record(key, kCostPerTuple * nd, kBytesPerTuple * nd, dest);
      sketch.record(key, kCostPerTuple * nd, kBytesPerTuple * nd, dest);
    }
    exact.roll();
    sketch.roll();
  }
  const double ingest_ms = ingest_timer.elapsed_millis();

  PlannerConfig pcfg;
  pcfg.theta_max = 0.08;
  pcfg.max_table_entries = 3000;

  // ---- Exact-mode dense planning path, best of `rounds`.
  PathTiming best_exact;
  PartitionSnapshot dense;
  for (int r = 0; r < rounds; ++r) {
    PathTiming t;
    WallTimer snap_timer;
    PartitionSnapshot snap;
    snap.num_instances = num_instances;
    exact.synthesize_dense(snap.cost, snap.state);
    snap.hash_dest.resize(snap.cost.size());
    for (std::size_t k = 0; k < snap.cost.size(); ++k) {
      snap.hash_dest[k] = ring.owner(static_cast<KeyId>(k));
    }
    snap.current = snap.hash_dest;
    t.snapshot_micros = snap_timer.elapsed_micros();

    MixedPlanner planner;
    WallTimer plan_timer;
    const RebalancePlan plan = planner.plan(snap, pcfg);
    t.plan_micros = plan_timer.elapsed_micros();
    if (r == 0 || t.total() < best_exact.total()) best_exact = t;
    if (r == rounds - 1) dense = std::move(snap);
    (void)plan;
  }

  // ---- Sketch-mode compact planning path, best of `rounds`.
  PathTiming best_sketch;
  std::size_t entries = 0;
  std::size_t compact_moves = 0;
  double theta_after_true = 0.0;
  double theta_before = 0.0;
  bool compact_structural_ok = true;
  for (int r = 0; r < rounds; ++r) {
    PathTiming t;
    WallTimer snap_timer;
    PartitionSnapshot snap;
    snap.num_instances = num_instances;
    sketch.synthesize_compact(num_instances, snap.keys, snap.cost, snap.state,
                              snap.cold_cost, snap.cold_state);
    snap.total_keys = num_keys;
    snap.hash_dest.resize(snap.keys.size());
    for (std::size_t e = 0; e < snap.keys.size(); ++e) {
      snap.hash_dest[e] = ring.owner(snap.keys[e]);
    }
    snap.current = snap.hash_dest;
    t.snapshot_micros = snap_timer.elapsed_micros();

    MixedPlanner planner;
    WallTimer plan_timer;
    const RebalancePlan plan = planner.plan(snap, pcfg);
    t.plan_micros = plan_timer.elapsed_micros();
    if (r == 0 || t.total() < best_sketch.total()) best_sketch = t;

    if (r == rounds - 1) {
      entries = snap.num_entries();
      compact_moves = plan.moves.size();
      theta_before = PartitionSnapshot::max_theta(dense.current_loads());
      // Structural no-O(|K|) checks: every planning-path structure is
      // entry-aligned, and entries are bounded by the heavy capacity.
      compact_structural_ok =
          !snap.keys.empty() && snap.num_entries() <= heavy_capacity &&
          plan.assignment.size() == snap.num_entries() &&
          plan.moves.size() <= snap.num_entries() &&
          snap.cold_cost.size() == static_cast<std::size_t>(num_instances);
      // Judge the compact plan under the exact ground truth: apply its
      // moves to the dense current assignment.
      std::vector<InstanceId> applied = dense.current;
      for (const KeyMove& mv : plan.moves) {
        applied[static_cast<std::size_t>(mv.key)] = mv.to;
      }
      theta_after_true =
          PartitionSnapshot::max_theta(dense.loads_under(applied));
    }
  }

  const double speedup = best_sketch.total() > 0
                             ? static_cast<double>(best_exact.total()) /
                                   static_cast<double>(best_sketch.total())
                             : 0.0;
  const bool pass_speedup = speedup >= 20.0;
  const bool pass_compact = compact_structural_ok;

  std::fprintf(stderr,
               "\n%-28s %15s %15s\n"
               "%-28s %15lld %15lld\n"
               "%-28s %15lld %15lld\n"
               "%-28s %15lld %15lld\n"
               "%-28s %15llu %15zu\n",
               "", "exact", "sketch",
               "snapshot micros",
               static_cast<long long>(best_exact.snapshot_micros),
               static_cast<long long>(best_sketch.snapshot_micros),
               "plan micros", static_cast<long long>(best_exact.plan_micros),
               static_cast<long long>(best_sketch.plan_micros),
               "total micros", static_cast<long long>(best_exact.total()),
               static_cast<long long>(best_sketch.total()),
               "planning entries",
               static_cast<unsigned long long>(num_keys), entries);
  std::fprintf(stderr,
               "speedup %.1fx (gate >= 20x: %s), compact structure: %s\n"
               "theta %.4f -> %.4f (true eval of the compact plan, %zu "
               "moves), ingest %.0f ms\n",
               speedup, pass_speedup ? "PASS" : "FAIL",
               pass_compact ? "PASS" : "FAIL", theta_before, theta_after_true,
               compact_moves, ingest_ms);

  std::printf(
      "{\n"
      "  \"bench\": \"micro_plan\",\n"
      "%s"
      "  \"workload\": {\"distribution\": \"zipf\", \"skew\": 1.2, "
      "\"keys\": %llu, \"tuples_per_interval\": %llu, \"instances\": %d, "
      "\"window\": %d, \"heavy_capacity\": %zu},\n"
      "  \"exact\":  {\"snapshot_micros\": %lld, \"plan_micros\": %lld, "
      "\"total_micros\": %lld},\n"
      "  \"sketch\": {\"snapshot_micros\": %lld, \"plan_micros\": %lld, "
      "\"total_micros\": %lld, \"entries\": %zu, \"moves\": %zu},\n"
      "  \"quality\": {\"theta_before\": %.6f, "
      "\"theta_after_true_eval\": %.6f},\n"
      "  \"speedup\": %.2f,\n"
      "  \"gates\": {\"speedup_ge_20x\": %s, \"no_dense_allocations\": %s}\n"
      "}\n",
      bench::env_json().c_str(),
      static_cast<unsigned long long>(num_keys),
      static_cast<unsigned long long>(tuples_per_interval),
      static_cast<int>(num_instances), window, heavy_capacity,
      static_cast<long long>(best_exact.snapshot_micros),
      static_cast<long long>(best_exact.plan_micros),
      static_cast<long long>(best_exact.total()),
      static_cast<long long>(best_sketch.snapshot_micros),
      static_cast<long long>(best_sketch.plan_micros),
      static_cast<long long>(best_sketch.total()), entries, compact_moves,
      theta_before, theta_after_true, speedup,
      pass_speedup ? "true" : "false", pass_compact ? "true" : "false");

  return (pass_speedup && pass_compact) ? 0 : 1;
}
