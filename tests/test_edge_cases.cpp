// Edge-case and failure-injection coverage across modules: degenerate
// domains, bound violations, scale-out corner cases, generator cadence.
#include <gtest/gtest.h>

#include "core/controller.h"
#include "core/planners.h"
#include "engine/sim_engine.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace skewless {
namespace {

using testutil::make_snapshot;

TEST(EdgeCases, SingleInstanceNeverRebalances) {
  ControllerConfig cfg;
  cfg.planner.theta_max = 0.0;
  Controller ctrl(AssignmentFunction(ConsistentHashRing(1), 0),
                  std::make_unique<MixedPlanner>(), cfg, 10);
  for (KeyId k = 0; k < 10; ++k) ctrl.stats().record(k, 100.0, 1.0);
  // One instance: theta is 0 by definition; no trigger.
  EXPECT_FALSE(ctrl.end_interval().has_value());
  EXPECT_EQ(ctrl.last_observed_theta(), 0.0);
}

TEST(EdgeCases, EmptyIntervalNoTrigger) {
  ControllerConfig cfg;
  cfg.planner.theta_max = 0.01;
  Controller ctrl(AssignmentFunction(ConsistentHashRing(4), 0),
                  std::make_unique<MixedPlanner>(), cfg, 100);
  EXPECT_FALSE(ctrl.end_interval().has_value());  // zero load everywhere
}

TEST(EdgeCases, PlannerOnSingleKeyDomain) {
  const auto snap = make_snapshot(3, {42.0}, {0});
  MixedPlanner planner;
  PlannerConfig cfg;
  cfg.theta_max = 0.0;
  const auto plan = planner.plan(snap, cfg);
  ASSERT_EQ(plan.assignment.size(), 1u);
  // One key cannot be balanced across three instances; planner must not
  // crash nor lose the key.
  EXPECT_GE(plan.assignment[0], 0);
  EXPECT_LT(plan.assignment[0], 3);
}

TEST(EdgeCases, AllZeroCostKeys) {
  const auto snap = make_snapshot(4, std::vector<Cost>(50, 0.0),
                                  std::vector<InstanceId>(50, 0));
  MixedPlanner planner;
  PlannerConfig cfg;
  cfg.theta_max = 0.05;
  const auto plan = planner.plan(snap, cfg);
  EXPECT_TRUE(plan.moves.empty());  // nothing to balance
  EXPECT_EQ(plan.achieved_theta, 0.0);
}

TEST(EdgeCases, MixedDegeneratesGracefullyWhenBoundImpossible) {
  // Needs ~half the keys routed explicitly, but Amax = 1: Mixed must
  // terminate (degenerating to full cleaning) and flag the bound miss.
  const std::size_t n = 60;
  std::vector<Cost> cost(n, 1.0);
  std::vector<InstanceId> current(n, 0);
  const auto snap = make_snapshot(2, cost, current);
  MixedPlanner planner;
  PlannerConfig cfg;
  cfg.theta_max = 0.01;
  cfg.max_table_entries = 1;
  const auto plan = planner.plan(snap, cfg);
  EXPECT_TRUE(plan.balanced);
  EXPECT_FALSE(plan.table_fits);  // honest about the bound violation
}

TEST(EdgeCases, ControllerHonorsUnboundedAfterBoundedPlans) {
  // Repeated rebalances with a bound never corrupt the assignment: every
  // key remains routable and loads conserve.
  ControllerConfig cfg;
  cfg.planner.theta_max = 0.05;
  cfg.planner.max_table_entries = 8;
  Controller ctrl(AssignmentFunction(ConsistentHashRing(3), 8),
                  std::make_unique<MixedPlanner>(), cfg, 64);
  Xoshiro256 rng(3);
  for (int interval = 0; interval < 6; ++interval) {
    for (KeyId k = 0; k < 64; ++k) {
      const Cost cost = 1.0 + static_cast<double>(rng.next_below(20));
      ctrl.stats().record(k, cost, 4.0);
    }
    ctrl.end_interval();
    for (KeyId k = 0; k < 64; ++k) {
      const InstanceId d = ctrl.assignment()(k);
      ASSERT_GE(d, 0);
      ASSERT_LT(d, 3);
    }
  }
}

TEST(EdgeCases, RepeatedScaleOutKeepsEveryKeyRoutable) {
  ControllerConfig cfg;
  cfg.planner.theta_max = 0.1;
  Controller ctrl(AssignmentFunction(ConsistentHashRing(2), 0),
                  std::make_unique<MixedPlanner>(), cfg, 200);
  for (int round = 0; round < 5; ++round) {
    ctrl.add_instance();
    for (KeyId k = 0; k < 200; ++k) ctrl.stats().record(k, 1.0, 1.0);
    ctrl.end_interval();
  }
  EXPECT_EQ(ctrl.num_instances(), 7);
  for (KeyId k = 0; k < 200; ++k) {
    const InstanceId d = ctrl.assignment()(k);
    EXPECT_GE(d, 0);
    EXPECT_LT(d, 7);
  }
}

TEST(EdgeCases, FluctuateEveryCadence) {
  ZipfFluctuatingSource::Options opts;
  opts.num_keys = 500;
  opts.tuples_per_interval = 20'000;
  opts.fluctuation = 0.5;
  opts.fluctuate_every = 3;
  ZipfFluctuatingSource source(opts);
  const auto a = source.next_interval();
  const auto b = source.next_interval();
  const auto c = source.next_interval();
  const auto d = source.next_interval();  // first change lands here
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(b.counts, c.counts);
  EXPECT_NE(c.counts, d.counts);
}

TEST(EdgeCases, SimEnginePkgScaleOut) {
  class FixedSource final : public WorkloadSource {
   public:
    explicit FixedSource(std::size_t n) : counts_(n, 50) {}
    [[nodiscard]] std::size_t num_keys() const override {
      return counts_.size();
    }
    [[nodiscard]] IntervalWorkload next_interval() override {
      return IntervalWorkload{counts_};
    }

   private:
    std::vector<std::uint64_t> counts_;
  };
  SimEngine engine(SimConfig{},
                   std::make_unique<UniformCostOperator>(1.0, 4.0),
                   std::make_unique<FixedSource>(200),
                   std::make_unique<Controller>(
                       AssignmentFunction(ConsistentHashRing(3), 0), nullptr,
                       ControllerConfig{}, 200),
                   RoutingMode::kPkg);
  (void)engine.step();
  engine.add_instance();
  const auto m = engine.step();
  EXPECT_EQ(m.instance_load.size(), 4u);
  EXPECT_EQ(m.processed, m.emitted);
}

TEST(EdgeCasesDeath, RingRefusesToRemoveLastInstance) {
  ConsistentHashRing ring(1);
  EXPECT_DEATH(ring.remove_last_instance(), "precondition");
}

TEST(EdgeCasesDeath, ZipfRejectsEmptyDomain) {
  EXPECT_DEATH(ZipfDistribution(0, 0.85), "precondition");
}

TEST(EdgeCasesDeath, HistogramStyleDegenerateSnapshot) {
  PartitionSnapshot snap;
  snap.num_instances = 0;  // invalid
  EXPECT_DEATH(snap.validate(), "precondition");
}

}  // namespace
}  // namespace skewless
