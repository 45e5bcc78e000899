#include "core/controller.h"

#include <gtest/gtest.h>

#include "core/planners.h"

namespace skewless {
namespace {

Controller make_controller(InstanceId nd, std::size_t num_keys,
                           double theta_max, int window = 1,
                           bool with_planner = true) {
  ControllerConfig cfg;
  cfg.planner.theta_max = theta_max;
  cfg.planner.max_table_entries = 0;
  cfg.window = window;
  return Controller(AssignmentFunction(ConsistentHashRing(nd, 128, 9), 0),
                    with_planner ? std::make_unique<MixedPlanner>() : nullptr,
                    cfg, num_keys);
}

TEST(Controller, NoTriggerWhenBalanced) {
  auto ctrl = make_controller(2, 10, 0.5);
  // Two keys on different instances with equal cost.
  KeyId k0 = 0;
  while (ctrl.assignment()(k0) != 0) ++k0;
  KeyId k1 = 0;
  while (ctrl.assignment()(k1) != 1) ++k1;
  ctrl.stats().record(k0, 10.0, 1.0);
  ctrl.stats().record(k1, 10.0, 1.0);
  EXPECT_FALSE(ctrl.end_interval().has_value());
  EXPECT_NEAR(ctrl.last_observed_theta(), 0.0, 1e-9);
}

TEST(Controller, TriggersAndInstallsOnImbalance) {
  auto ctrl = make_controller(2, 10, 0.08);
  // Load two keys onto whatever instance key 0 maps to; leave the other
  // instance idle -> max theta = 1.
  const InstanceId hot = ctrl.assignment()(0);
  ctrl.stats().record(0, 10.0, 4.0);
  KeyId other = 1;
  while (ctrl.assignment()(other) != hot) ++other;
  ctrl.stats().record(other, 10.0, 4.0);

  const auto plan = ctrl.end_interval();
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->moves.size(), 1u);
  EXPECT_EQ(ctrl.rebalance_count(), 1u);
  EXPECT_GT(ctrl.total_migrated_bytes(), 0.0);
  // The live assignment now routes the moved key to the other instance.
  const KeyId moved = plan->moves.front().key;
  EXPECT_EQ(ctrl.assignment()(moved), plan->moves.front().to);
}

TEST(Controller, PlannerlessControllerOnlyRolls) {
  auto ctrl = make_controller(2, 10, 0.08, 1, /*with_planner=*/false);
  EXPECT_FALSE(ctrl.has_planner());
  const InstanceId hot = ctrl.assignment()(0);
  ctrl.stats().record(0, 10.0, 1.0);
  KeyId other = 1;
  while (ctrl.assignment()(other) != hot) ++other;
  ctrl.stats().record(other, 10.0, 1.0);
  // The same imbalance makes the planning controller rebalance (see
  // TriggersAndInstallsOnImbalance); this one only rolls its statistics.
  EXPECT_FALSE(ctrl.end_interval().has_value());
  EXPECT_EQ(ctrl.rebalance_count(), 0u);
  EXPECT_EQ(ctrl.assignment().table().size(), 0u);
  EXPECT_EQ(ctrl.stats().closed_intervals(), 1);
  EXPECT_DOUBLE_EQ(ctrl.stats().last_cost_of(0), 10.0);
  EXPECT_DOUBLE_EQ(ctrl.stats().last_cost_of(other), 10.0);
  // No snapshot is built, so no imbalance is observed.
  EXPECT_EQ(ctrl.last_observed_theta(), 0.0);
  EXPECT_EQ(ctrl.last_snapshot().num_instances, 0);
}

TEST(Controller, RepeatedIntervalsConverge) {
  auto ctrl = make_controller(4, 100, 0.1);
  // Skewed load: key k costs ~1/(rank+1).
  for (int interval = 0; interval < 5; ++interval) {
    for (KeyId k = 0; k < 100; ++k) {
      ctrl.stats().record(k, 1000.0 / (1.0 + static_cast<double>(k)), 8.0);
    }
    ctrl.end_interval();
  }
  // After rebalancing, one more identical interval must be balanced.
  for (KeyId k = 0; k < 100; ++k) {
    ctrl.stats().record(k, 1000.0 / (1.0 + static_cast<double>(k)), 8.0);
  }
  EXPECT_FALSE(ctrl.end_interval().has_value());
  EXPECT_LE(ctrl.last_observed_theta(), 0.1 + 1e-9);
}

TEST(Controller, AddInstancePinsExistingPlacement) {
  auto ctrl = make_controller(3, 50, 0.1);
  std::vector<InstanceId> before(50);
  for (KeyId k = 0; k < 50; ++k) {
    before[static_cast<std::size_t>(k)] = ctrl.assignment()(k);
  }
  ctrl.add_instance();
  EXPECT_EQ(ctrl.num_instances(), 4);
  for (KeyId k = 0; k < 50; ++k) {
    EXPECT_EQ(ctrl.assignment()(k), before[static_cast<std::size_t>(k)])
        << "key " << k << " moved implicitly during scale-out";
  }
}

// Without a planner nothing would ever move a pinned key, so scale-out
// is plain consistent hashing: the ring grows, the keys it hands the new
// instance move there, and the routing table stays empty.
TEST(Controller, PlannerlessAddInstanceRehashes) {
  auto ctrl = make_controller(3, 200, 0.1, 1, /*with_planner=*/false);
  ctrl.add_instance();
  EXPECT_EQ(ctrl.num_instances(), 4);
  EXPECT_EQ(ctrl.assignment().table().size(), 0u);
  const ConsistentHashRing grown(4, 128, 9);
  int on_new = 0;
  for (KeyId k = 0; k < 200; ++k) {
    EXPECT_EQ(ctrl.assignment()(k), grown.owner(k)) << "key " << k;
    on_new += grown.owner(k) == 3 ? 1 : 0;
  }
  EXPECT_GT(on_new, 0);
}

TEST(Controller, ScaleOutThenRebalanceUsesNewInstance) {
  auto ctrl = make_controller(2, 200, 0.05);
  ctrl.add_instance();
  for (KeyId k = 0; k < 200; ++k) ctrl.stats().record(k, 1.0, 1.0);
  const auto plan = ctrl.end_interval();
  ASSERT_TRUE(plan.has_value());
  bool new_instance_used = false;
  for (const KeyMove& mv : plan->moves) {
    if (mv.to == 2) new_instance_used = true;
  }
  EXPECT_TRUE(new_instance_used);
  EXPECT_LE(plan->achieved_theta, 0.05 + 1e-9);
}

TEST(Controller, GenerationTimeAccumulates) {
  auto ctrl = make_controller(2, 20, 0.01);
  const InstanceId hot = ctrl.assignment()(0);
  for (int i = 0; i < 3; ++i) {
    // Alternate hot instance to keep triggering.
    for (KeyId k = 0; k < 20; ++k) {
      if (ctrl.assignment()(k) == hot) ctrl.stats().record(k, 10.0 + i, 1.0);
    }
    ctrl.end_interval();
  }
  EXPECT_GE(ctrl.total_generation_micros(), 0);
}

}  // namespace
}  // namespace skewless
