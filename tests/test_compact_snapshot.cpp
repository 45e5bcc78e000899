// CompactSnapshot semantics: a snapshot holding only the heavy entries
// plus per-instance cold residual aggregates must reproduce EXACTLY the
// load figures (L(d), L̄, θ(d), Lmax) of the dense snapshot it condenses
// — per-key resolution is lost for the cold tail, load fidelity is not —
// and plans over it may only ever move entry keys. Also covers the
// SketchStatsWindow::synthesize_compact contract: per-instance cold
// aggregates are exact sums of the recorded cold mass by destination.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "core/controller.h"
#include "core/planners.h"
#include "core/snapshot.h"
#include "core/working_assignment.h"
#include "sketch/sketch_stats_window.h"
#include "test_util.h"

namespace skewless {
namespace {

using testutil::random_zipf_snapshot;

/// Condenses a dense snapshot into a compact one: keys with cost >=
/// `threshold` become entries, everything else folds into the cold
/// residual aggregates pinned at its current destination.
PartitionSnapshot condense(const PartitionSnapshot& dense, Cost threshold) {
  PartitionSnapshot compact;
  compact.num_instances = dense.num_instances;
  compact.total_keys = dense.num_keys();
  compact.cold_cost.assign(static_cast<std::size_t>(dense.num_instances), 0.0);
  compact.cold_state.assign(static_cast<std::size_t>(dense.num_instances),
                            0.0);
  for (std::size_t k = 0; k < dense.num_keys(); ++k) {
    if (dense.cost[k] >= threshold) {
      compact.keys.push_back(static_cast<KeyId>(k));
      compact.cost.push_back(dense.cost[k]);
      compact.state.push_back(dense.state[k]);
      compact.hash_dest.push_back(dense.hash_dest[k]);
      compact.current.push_back(dense.current[k]);
    } else {
      const auto d = static_cast<std::size_t>(dense.current[k]);
      compact.cold_cost[d] += dense.cost[k];
      compact.cold_state[d] += dense.state[k];
      if (dense.current[k] != dense.hash_dest[k]) {
        ++compact.cold_table_entries;
      }
    }
  }
  compact.validate();
  return compact;
}

/// A dense Zipf snapshot with integer-valued statistics (every sum below
/// is exact in floating point) and a routing perturbation so both tiers
/// hold table entries.
PartitionSnapshot perturbed_dense(std::uint64_t seed) {
  auto dense = random_zipf_snapshot(6, 2000, 0.9, seed);
  for (std::size_t k = 0; k < dense.num_keys(); k += 7) {
    dense.current[k] =
        static_cast<InstanceId>((dense.hash_dest[k] + 1) % dense.num_instances);
  }
  return dense;
}

TEST(CompactSnapshot, ColdAggregatesKeepLoadFiguresExact) {
  const auto dense = perturbed_dense(3);
  const auto compact = condense(dense, 5.0);
  ASSERT_LT(compact.num_entries(), dense.num_entries());
  ASSERT_GT(compact.num_entries(), 0u);
  ASSERT_TRUE(compact.has_cold());

  // Integer statistics: the load figures must agree EXACTLY, not within
  // a tolerance — this is the "loads, L̄, θ(d) and Lmax stay exact" claim.
  EXPECT_DOUBLE_EQ(compact.average_load(), dense.average_load());
  const auto dense_loads = dense.current_loads();
  const auto compact_loads = compact.current_loads();
  ASSERT_EQ(dense_loads.size(), compact_loads.size());
  for (std::size_t d = 0; d < dense_loads.size(); ++d) {
    EXPECT_DOUBLE_EQ(compact_loads[d], dense_loads[d]) << "instance " << d;
  }
  EXPECT_DOUBLE_EQ(PartitionSnapshot::max_theta(compact_loads),
                   PartitionSnapshot::max_theta(dense_loads));
  EXPECT_DOUBLE_EQ(compact.overload_threshold(0.08),
                   dense.overload_threshold(0.08));
}

TEST(CompactSnapshot, PlansOnlyMoveEntryKeys) {
  const auto dense = perturbed_dense(4);
  const auto compact = condense(dense, 5.0);
  std::set<KeyId> entry_keys(compact.keys.begin(), compact.keys.end());

  PlannerConfig cfg;
  cfg.theta_max = 0.08;
  cfg.max_table_entries = 0;
  MixedPlanner planner;
  const auto plan = planner.plan(compact, cfg);
  EXPECT_EQ(plan.assignment.size(), compact.num_entries());
  EXPECT_FALSE(plan.moves.empty());
  for (const KeyMove& mv : plan.moves) {
    EXPECT_TRUE(entry_keys.count(mv.key) > 0)
        << "plan moved untracked cold key " << mv.key;
  }
  // The plan's balance verdict is judged against loads that include the
  // cold residuals — evaluating the plan's assignment over the compact
  // snapshot must agree with its achieved_theta.
  EXPECT_DOUBLE_EQ(
      plan.achieved_theta,
      PartitionSnapshot::max_theta(compact.loads_under(plan.assignment)));
}

TEST(CompactSnapshot, FinalizePlanCountsColdTableEntries) {
  const auto dense = perturbed_dense(5);
  const auto compact = condense(dense, 5.0);
  ASSERT_GT(compact.cold_table_entries, 0u);

  PlannerConfig cfg;
  cfg.theta_max = 1e9;  // identity plan: nothing needs to move
  const auto plan = finalize_plan(compact, compact.current, cfg);
  EXPECT_TRUE(plan.moves.empty());
  // Identity keeps every table entry: the entry-tier ones plus the cold
  // ones the planner cannot see.
  EXPECT_EQ(plan.table_size,
            implied_table_size(compact.current, compact.hash_dest) +
                compact.cold_table_entries);
  // And the dense count of the source snapshot is the same number.
  EXPECT_EQ(plan.table_size,
            implied_table_size(dense.current, dense.hash_dest));
}

TEST(CompactSnapshot, WorkingAssignmentSeedsColdLoads) {
  const auto dense = perturbed_dense(6);
  const auto compact = condense(dense, 5.0);
  WorkingAssignment wa(compact);
  const auto dense_loads = dense.current_loads();
  for (InstanceId d = 0; d < compact.num_instances; ++d) {
    EXPECT_DOUBLE_EQ(wa.load(d), dense_loads[static_cast<std::size_t>(d)]);
  }
  // Moving an entry away moves only its own cost; the cold residual on
  // its instance stays put.
  const KeyId slot = 0;
  const InstanceId from = compact.current[0];
  wa.disassociate(slot);
  EXPECT_DOUBLE_EQ(wa.load(from),
                   dense_loads[static_cast<std::size_t>(from)] -
                       compact.cost[0]);
}

TEST(CompactSnapshot, SynthesizeCompactEmitsExactPerInstanceColdMass) {
  constexpr std::size_t kKeys = 3000;
  constexpr InstanceId kNd = 4;
  SketchStatsConfig cfg;
  cfg.heavy_capacity = 32;
  // High promotion bar: only the 8-key hot head ever promotes, so the
  // second roll performs no promotion debits and the interval-2 cold
  // aggregates equal the tallied ground truth exactly.
  cfg.promote_fraction = 0.05;
  SketchStatsWindow w(kKeys, 1, cfg);

  // Integer stream: key k costs (k % 13) + 1 on destination k % kNd;
  // the hot head (k < 8) is big enough to promote.
  std::vector<Cost> cold_cost_true(kNd, 0.0);
  std::vector<Bytes> cold_state_true(kNd, 0.0);
  const auto feed = [&](bool tally) {
    for (std::size_t k = 0; k < kKeys; ++k) {
      const auto key = static_cast<KeyId>(k);
      const auto dest = static_cast<InstanceId>(k % kNd);
      const Cost c = k < 8 ? 50'000.0 : static_cast<Cost>(k % 13 + 1);
      const Bytes s = 2.0 * c;
      w.record(key, c, s, dest);
      if (tally && !w.is_heavy(key)) {
        // Ground truth per-destination cold mass of this interval.
        cold_cost_true[static_cast<std::size_t>(dest)] += c;
        cold_state_true[static_cast<std::size_t>(dest)] += s;
      }
    }
  };
  feed(false);
  w.roll();  // promotes the head, debits its backfill from the cold tier
  feed(true);
  w.roll();

  std::vector<KeyId> keys;
  std::vector<Cost> cost;
  std::vector<Bytes> state;
  std::vector<Cost> cold_cost;
  std::vector<Bytes> cold_state;
  w.synthesize_compact(kNd, keys, cost, state, cold_cost, cold_state);
  ASSERT_EQ(keys.size(), 8u);
  ASSERT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  ASSERT_EQ(cold_cost.size(), static_cast<std::size_t>(kNd));

  // Heavy entries carry their exact values; with window = 1 the second
  // interval's cold mass per destination is exactly the tallied truth.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(w.is_heavy(keys[i]));
    EXPECT_EQ(cost[i], w.last_cost_of(keys[i]));
    EXPECT_EQ(state[i], w.windowed_state_of(keys[i]));
  }
  for (std::size_t d = 0; d < cold_cost.size(); ++d) {
    EXPECT_DOUBLE_EQ(cold_cost[d], cold_cost_true[d]) << "instance " << d;
    EXPECT_DOUBLE_EQ(cold_state[d], cold_state_true[d]) << "instance " << d;
  }
}

TEST(CompactSnapshot, SynthesizeCompactSpreadsUnattributedMassEvenly) {
  SketchStatsConfig cfg;
  cfg.heavy_capacity = 4;
  cfg.promote_fraction = 0.9;  // nothing promotes: all mass stays cold
  SketchStatsWindow w(100, 1, cfg);
  for (KeyId k = 0; k < 100; ++k) w.record(k, 3.0, 6.0);  // no dest
  w.roll();

  std::vector<KeyId> keys;
  std::vector<Cost> cost;
  std::vector<Bytes> state;
  std::vector<Cost> cold_cost;
  std::vector<Bytes> cold_state;
  w.synthesize_compact(5, keys, cost, state, cold_cost, cold_state);
  // Totals are conserved exactly (L̄ stays truthful)...
  Cost total_c = 0.0;
  Bytes total_s = 0.0;
  for (const Cost c : cold_cost) total_c += c;
  for (const Bytes s : cold_state) total_s += s;
  EXPECT_DOUBLE_EQ(total_c, 300.0);
  EXPECT_DOUBLE_EQ(total_s, 600.0);
  // ...and the unattributable mass is spread evenly.
  for (const Cost c : cold_cost) EXPECT_DOUBLE_EQ(c, 60.0);
  for (const Bytes s : cold_state) EXPECT_DOUBLE_EQ(s, 120.0);
}

// End-to-end controller equivalence: an exact-mode controller and a
// sketch-mode controller with full heavy coverage, fed the identical
// integer-valued stream, must make the SAME rebalance decision — the
// compact build_snapshot path against the dense one, through the public
// Controller interface.
TEST(CompactSnapshot, ControllersAgreeUnderFullHeavyCoverage) {
  constexpr std::size_t kKeys = 400;
  constexpr InstanceId kNd = 5;
  const auto make = [&](StatsMode mode) {
    ControllerConfig cfg;
    cfg.planner.theta_max = 0.05;
    cfg.planner.max_table_entries = 0;
    cfg.stats_mode = mode;
    cfg.sketch.heavy_capacity = 1024;
    cfg.sketch.promote_fraction = 0.0;
    return std::make_unique<Controller>(
        AssignmentFunction(ConsistentHashRing(kNd, 128, 17), 0),
        std::make_unique<MixedPlanner>(), cfg, kKeys);
  };
  auto exact = make(StatsMode::kExact);
  auto sketch = make(StatsMode::kSketch);

  const auto feed = [&](Controller& ctrl) {
    for (KeyId k = 0; k < kKeys; ++k) {
      const Cost c = static_cast<Cost>(kKeys - k);  // integer, skewed
      ctrl.stats().record(k, c, 2.0 * c, ctrl.assignment()(k));
    }
  };

  for (int interval = 0; interval < 4; ++interval) {
    feed(*exact);
    feed(*sketch);
    const auto plan_e = exact->end_interval();
    const auto plan_s = sketch->end_interval();
    ASSERT_EQ(plan_e.has_value(), plan_s.has_value())
        << "interval " << interval;
    if (plan_e.has_value()) {
      ASSERT_EQ(plan_e->moves.size(), plan_s->moves.size());
      for (std::size_t i = 0; i < plan_e->moves.size(); ++i) {
        EXPECT_EQ(plan_e->moves[i].key, plan_s->moves[i].key);
        EXPECT_EQ(plan_e->moves[i].from, plan_s->moves[i].from);
        EXPECT_EQ(plan_e->moves[i].to, plan_s->moves[i].to);
        EXPECT_EQ(plan_e->moves[i].state_bytes, plan_s->moves[i].state_bytes);
      }
      EXPECT_EQ(plan_e->table_size, plan_s->table_size);
      EXPECT_EQ(plan_e->migration_bytes, plan_s->migration_bytes);
      EXPECT_EQ(plan_e->achieved_theta, plan_s->achieved_theta);
    }
    EXPECT_EQ(exact->last_observed_theta(), sketch->last_observed_theta())
        << "interval " << interval;
    // The live assignments must stay in lockstep key-by-key.
    for (KeyId k = 0; k < kKeys; ++k) {
      ASSERT_EQ(exact->assignment()(k), sketch->assignment()(k))
          << "interval " << interval << " key " << k;
    }
  }
}

}  // namespace
}  // namespace skewless
