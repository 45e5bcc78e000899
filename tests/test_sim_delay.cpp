// Tests for the simulation engine's plan-generation-delay model: while a
// plan is "being computed" (Fig. 5 step 2), tuples keep routing under the
// old assignment; the migration pause lands when the plan installs.
#include <gtest/gtest.h>

#include "core/planners.h"
#include "engine/sim_engine.h"

namespace skewless {
namespace {

/// Wraps a real planner but reports an inflated generation time — models
/// a slow planner (e.g. Readj at large K) without burning CPU.
class SlowPlanner final : public Planner {
 public:
  SlowPlanner(PlannerPtr inner, Micros fake_generation)
      : inner_(std::move(inner)), fake_generation_(fake_generation) {}

  RebalancePlan plan(const PartitionSnapshot& snap,
                     const PlannerConfig& config) override {
    auto result = inner_->plan(snap, config);
    result.generation_micros = fake_generation_;
    return result;
  }
  [[nodiscard]] std::string name() const override { return "Slow"; }

 private:
  PlannerPtr inner_;
  Micros fake_generation_;
};

class FixedSource final : public WorkloadSource {
 public:
  explicit FixedSource(std::vector<std::uint64_t> counts)
      : counts_(std::move(counts)) {}
  [[nodiscard]] std::size_t num_keys() const override {
    return counts_.size();
  }
  [[nodiscard]] IntervalWorkload next_interval() override {
    return IntervalWorkload{counts_};
  }

 private:
  std::vector<std::uint64_t> counts_;
};

std::unique_ptr<Controller> controller_with(PlannerPtr planner,
                                            std::size_t num_keys) {
  ControllerConfig cfg;
  cfg.planner.theta_max = 0.08;
  return std::make_unique<Controller>(
      AssignmentFunction(ConsistentHashRing(4, 128, 3), 0),
      std::move(planner), cfg, num_keys);
}

std::vector<std::uint64_t> skewed_counts(std::size_t num_keys) {
  // Eight hot keys (balanceable across 4 instances — a single hot key
  // would dominate any placement) over a cold tail.
  std::vector<std::uint64_t> counts(num_keys, 100);
  for (std::size_t k = 0; k < 8; ++k) counts[k] = 25'000;
  return counts;
}

TEST(SimDelay, FastPlannerLandsNextInterval) {
  SimConfig cfg;
  SimEngine engine(cfg, std::make_unique<UniformCostOperator>(1.0, 8.0),
                   std::make_unique<FixedSource>(skewed_counts(500)),
                   controller_with(std::make_unique<MixedPlanner>(), 500));
  const auto first = engine.step();
  EXPECT_TRUE(first.migrated);
  EXPECT_GT(first.max_theta, 0.08);
  const auto second = engine.step();
  EXPECT_LE(second.max_theta, 0.15);  // already routed by the new F
}

TEST(SimDelay, SlowPlannerKeepsOldRoutingWhileGenerating) {
  SimConfig cfg;
  // Generation takes 3 intervals of virtual time.
  const Micros gen = 3 * cfg.interval_micros + 1000;
  SimEngine engine(
      cfg, std::make_unique<UniformCostOperator>(1.0, 8.0),
      std::make_unique<FixedSource>(skewed_counts(500)),
      controller_with(std::make_unique<SlowPlanner>(
                          std::make_unique<MixedPlanner>(), gen),
                      500));
  const auto first = engine.step();
  ASSERT_TRUE(first.migrated);
  const double imbalanced = first.max_theta;
  // Intervals 1..3: plan in flight, routing unchanged, imbalance persists.
  for (int i = 0; i < 3; ++i) {
    const auto m = engine.step();
    EXPECT_NEAR(m.max_theta, imbalanced, 0.05) << "interval " << i + 1;
    EXPECT_FALSE(m.migrated);
  }
  // Interval 4: plan landed, routing switched.
  const auto after = engine.step();
  EXPECT_LT(after.max_theta, imbalanced / 2.0);
}

TEST(SimDelay, DisablingGenerationChargeInstallsImmediately) {
  SimConfig cfg;
  cfg.charge_generation_time = false;
  const Micros gen = 10 * cfg.interval_micros;
  SimEngine engine(
      cfg, std::make_unique<UniformCostOperator>(1.0, 8.0),
      std::make_unique<FixedSource>(skewed_counts(500)),
      controller_with(std::make_unique<SlowPlanner>(
                          std::make_unique<MixedPlanner>(), gen),
                      500));
  const auto first = engine.step();
  ASSERT_TRUE(first.migrated);
  const auto second = engine.step();
  EXPECT_LT(second.max_theta, first.max_theta / 2.0);
}

TEST(SimDelay, NoReplanningWhilePlanInFlight) {
  SimConfig cfg;
  const Micros gen = 2 * cfg.interval_micros + 1000;
  SimEngine engine(
      cfg, std::make_unique<UniformCostOperator>(1.0, 8.0),
      std::make_unique<FixedSource>(skewed_counts(500)),
      controller_with(std::make_unique<SlowPlanner>(
                          std::make_unique<MixedPlanner>(), gen),
                      500));
  int migrations = 0;
  for (int i = 0; i < 6; ++i) {
    migrations += engine.step().migrated ? 1 : 0;
  }
  // One plan decided at interval 0, in flight for 2 intervals, landed at
  // interval 3; the workload is then balanced, so exactly one migration.
  EXPECT_EQ(migrations, 1);
}

}  // namespace
}  // namespace skewless
