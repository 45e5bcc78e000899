// End-to-end scenario tests tying the full stack together: workload
// generator -> sim engine -> controller -> planner -> migration, checking
// the qualitative results the paper's evaluation is built on.
#include <gtest/gtest.h>

#include "baselines/readj.h"
#include "core/planners.h"
#include "engine/sim_engine.h"
#include "workload/social.h"
#include "workload/stock.h"
#include "workload/synthetic.h"

namespace skewless {
namespace {

std::unique_ptr<Controller> controller_with(PlannerPtr planner, InstanceId nd,
                                            std::size_t num_keys,
                                            double theta_max,
                                            int window = 1) {
  ControllerConfig cfg;
  cfg.planner.theta_max = theta_max;
  cfg.planner.max_table_entries = 0;
  cfg.window = window;
  return std::make_unique<Controller>(
      AssignmentFunction(ConsistentHashRing(nd, 128, 21), 0),
      std::move(planner), cfg, num_keys);
}

/// The planner-less "Storm" controller on the default ring.
std::unique_ptr<Controller> storm(InstanceId nd, std::size_t num_keys) {
  return std::make_unique<Controller>(
      AssignmentFunction(ConsistentHashRing(nd), 0), nullptr,
      ControllerConfig{}, num_keys);
}

double mean_throughput(const std::vector<IntervalReport>& ms, int skip = 2) {
  double acc = 0.0;
  int n = 0;
  for (std::size_t i = static_cast<std::size_t>(skip); i < ms.size(); ++i) {
    acc += ms[i].throughput_tps;
    ++n;
  }
  return n ? acc / n : 0.0;
}

std::unique_ptr<WorkloadSource> zipf_source(double fluctuation,
                                            std::uint64_t seed = 7,
                                            std::uint64_t num_keys = 5000) {
  ZipfFluctuatingSource::Options opts;
  opts.num_keys = num_keys;
  opts.skew = 0.85;
  // 1.75M tuples x 4us / 10 instances = 0.7 average utilization: near the
  // saturation point, so any imbalance above ~0.43 clips throughput.
  opts.tuples_per_interval = 1'750'000;
  opts.fluctuation = fluctuation;
  opts.seed = seed;
  return std::make_unique<ZipfFluctuatingSource>(opts);
}

TEST(Integration, MixedBeatsHashOnSkewedSaturatedWorkload) {
  const InstanceId nd = 10;
  // Small key domain: Fig. 7(b) — the fewer the keys, the more skewed the
  // hash placement, which is the regime the paper's framework targets.
  SimEngine hash_engine(SimConfig{},
                        std::make_unique<UniformCostOperator>(4.0, 8.0),
                        zipf_source(0.2, 7, 1000), storm(nd, 1000));
  SimEngine mixed_engine(SimConfig{},
                         std::make_unique<UniformCostOperator>(4.0, 8.0),
                         zipf_source(0.2, 7, 1000),
                         controller_with(std::make_unique<MixedPlanner>(),
                                         nd, 1000, 0.08));
  const auto hash_ms = hash_engine.run(30);
  const auto mixed_ms = mixed_engine.run(30);
  EXPECT_GT(mean_throughput(mixed_ms, 8), mean_throughput(hash_ms, 8) * 1.05);
}

TEST(Integration, IdealBoundsMixedFromAbove) {
  const InstanceId nd = 10;
  SimEngine ideal(SimConfig{},
                  std::make_unique<UniformCostOperator>(4.0, 8.0),
                  zipf_source(1.0), storm(nd, 5000), RoutingMode::kShuffle);
  SimEngine mixed(SimConfig{},
                  std::make_unique<UniformCostOperator>(4.0, 8.0),
                  zipf_source(1.0),
                  controller_with(std::make_unique<MixedPlanner>(), nd, 5000,
                                  0.08));
  const auto ideal_ms = ideal.run(30);
  const auto mixed_ms = mixed.run(30);
  EXPECT_GE(mean_throughput(ideal_ms, 8) * 1.001,
            mean_throughput(mixed_ms, 8));
  // ... but Mixed comes close (within 10%), per Fig. 13.
  EXPECT_GT(mean_throughput(mixed_ms, 8),
            mean_throughput(ideal_ms, 8) * 0.9);
}

TEST(Integration, MixedOutperformsReadjUnderHighFluctuation) {
  const InstanceId nd = 10;
  SimEngine readj(SimConfig{},
                  std::make_unique<UniformCostOperator>(4.0, 8.0),
                  zipf_source(1.5, 9),
                  controller_with(std::make_unique<ReadjPlanner>(), nd, 5000,
                                  0.08));
  SimEngine mixed(SimConfig{},
                  std::make_unique<UniformCostOperator>(4.0, 8.0),
                  zipf_source(1.5, 9),
                  controller_with(std::make_unique<MixedPlanner>(), nd, 5000,
                                  0.08));
  const auto readj_ms = readj.run(25);
  const auto mixed_ms = mixed.run(25);
  EXPECT_GE(mean_throughput(mixed_ms, 8),
            mean_throughput(readj_ms, 8) * 0.98);
}

TEST(Integration, StockBurstsTriggerRebalances) {
  StockSource::Options opts;
  opts.tuples_per_interval = 1'000'000;
  opts.burst_probability = 0.8;
  SimEngine engine(SimConfig{},
                   std::make_unique<SelfJoinCostOperator>(2.0, 16.0, 0.001),
                   std::make_unique<StockSource>(opts),
                   controller_with(std::make_unique<MixedPlanner>(), 8, 1036,
                                   0.1, 3));
  int migrations = 0;
  for (int i = 0; i < 12; ++i) {
    migrations += engine.step().migrated ? 1 : 0;
  }
  EXPECT_GT(migrations, 0);
}

TEST(Integration, SocialDriftHandledWithFewMigrations) {
  SocialSource::Options opts;
  opts.num_words = 20'000;
  opts.tuples_per_interval = 1'000'000;
  opts.drift_fraction = 0.005;
  SimEngine engine(SimConfig{},
                   std::make_unique<UniformCostOperator>(4.0, 8.0),
                   std::make_unique<SocialSource>(opts),
                   controller_with(std::make_unique<MixedPlanner>(), 8,
                                   20'000, 0.15));
  int migrations = 0;
  for (int i = 0; i < 10; ++i) migrations += engine.step().migrated ? 1 : 0;
  // Slow drift: after the initial correction the system stays balanced.
  EXPECT_LE(migrations, 4);
}

TEST(Integration, ScaleOutConvergesQuicklyWithMixed) {
  const InstanceId nd = 5;
  SimEngine engine(SimConfig{},
                   std::make_unique<UniformCostOperator>(4.0, 8.0),
                   zipf_source(0.0, 31),
                   controller_with(std::make_unique<MixedPlanner>(), nd, 5000,
                                   0.1));
  // Reach steady state.
  engine.run(5);
  const double before = engine.step().throughput_tps;
  engine.add_instance();
  const auto after = engine.run(5);
  // The new instance eventually carries work: last interval's work vector
  // has a non-trivial share on instance nd.
  const auto& final_work = after.back().instance_load;
  ASSERT_EQ(final_work.size(), static_cast<std::size_t>(nd + 1));
  double total = 0.0;
  for (const double w : final_work) total += w;
  EXPECT_GT(final_work.back(), 0.3 * total / (nd + 1));
  // Throughput did not regress.
  EXPECT_GE(after.back().throughput_tps, before * 0.95);
}

TEST(Integration, TableSizeBoundHoldsUnderContinuousRebalancing) {
  ZipfFluctuatingSource::Options opts;
  opts.num_keys = 3000;
  opts.tuples_per_interval = 1'500'000;
  opts.fluctuation = 1.0;
  ControllerConfig ccfg;
  ccfg.planner.theta_max = 0.1;
  ccfg.planner.max_table_entries = 150;
  auto controller = std::make_unique<Controller>(
      AssignmentFunction(ConsistentHashRing(8, 128, 21), 150),
      std::make_unique<MixedPlanner>(), ccfg, 3000);
  Controller* ctrl = controller.get();
  SimEngine engine(SimConfig{},
                   std::make_unique<UniformCostOperator>(4.0, 8.0),
                   std::make_unique<ZipfFluctuatingSource>(opts),
                   std::move(controller));
  for (int i = 0; i < 10; ++i) {
    (void)engine.step();
    EXPECT_LE(ctrl->assignment().table().size(), 170u)
        << "interval " << i;  // bound + small planner slack
  }
}

}  // namespace
}  // namespace skewless
