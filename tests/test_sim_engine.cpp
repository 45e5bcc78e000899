#include "engine/sim_engine.h"

#include <gtest/gtest.h>

#include "core/planners.h"
#include "workload/synthetic.h"

namespace skewless {
namespace {

/// Fixed-counts source for controlled experiments.
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

/// The planner-less "Storm" controller on the default ring.
std::unique_ptr<Controller> storm(InstanceId nd, std::size_t num_keys,
                                  int window = 1) {
  ControllerConfig cfg;
  cfg.window = window;
  return std::make_unique<Controller>(
      AssignmentFunction(ConsistentHashRing(nd), 0), nullptr, cfg, num_keys);
}

double offered_tps(const IntervalReport& m) {
  return static_cast<double>(m.emitted) / (m.wall_ms / 1000.0);
}

std::unique_ptr<Controller> make_controller(InstanceId nd,
                                            std::size_t num_keys,
                                            double theta_max,
                                            int window = 1) {
  ControllerConfig cfg;
  cfg.planner.theta_max = theta_max;
  cfg.planner.max_table_entries = 0;
  cfg.window = window;
  return std::make_unique<Controller>(
      AssignmentFunction(ConsistentHashRing(nd, 128, 5), 0),
      std::make_unique<MixedPlanner>(), cfg, num_keys);
}

TEST(SimEngine, UnderloadedSystemKeepsFullThroughput) {
  // 1000 tuples at 1 us each over 4 instances: far below capacity.
  SimEngine engine(SimConfig{},
                   std::make_unique<UniformCostOperator>(1.0, 8.0),
                   std::make_unique<FixedSource>(
                       std::vector<std::uint64_t>(100, 10)),
                   storm(4, 100));
  const auto m = engine.step();
  EXPECT_DOUBLE_EQ(m.throughput_tps, offered_tps(m));
  EXPECT_EQ(m.processed, m.emitted);
  EXPECT_GT(m.avg_latency_ms, 0.0);
  EXPECT_LT(m.avg_latency_ms, 1.0);
}

TEST(SimEngine, BottleneckInstanceThrottlesWholePipeline) {
  // One hot key carries all work under hashing: a single instance must
  // absorb everything, so alpha ~ 1/(rho of that instance).
  std::vector<std::uint64_t> counts(10, 0);
  counts[3] = 4'000'000;  // 4M tuples * 1us = 4s of work in a 1s interval
  SimEngine engine(SimConfig{},
                   std::make_unique<UniformCostOperator>(1.0, 0.0),
                   std::make_unique<FixedSource>(counts), storm(4, 10));
  const auto m = engine.step();
  EXPECT_NEAR(m.throughput_tps / offered_tps(m), 0.25, 0.01);
  EXPECT_NEAR(static_cast<double>(m.processed) /
                  static_cast<double>(m.emitted),
              0.25, 0.01);
  EXPECT_GT(m.avg_latency_ms, 100.0);  // saturated queue
  EXPECT_NEAR(load_skewness(m), 4.0, 0.01);
}

TEST(SimEngine, ShuffleSpreadsPerfectly) {
  std::vector<std::uint64_t> counts(10, 0);
  counts[3] = 4'000'000;
  SimEngine engine(SimConfig{},
                   std::make_unique<UniformCostOperator>(1.0, 0.0),
                   std::make_unique<FixedSource>(counts), storm(4, 10),
                   RoutingMode::kShuffle);
  const auto m = engine.step();
  EXPECT_DOUBLE_EQ(m.throughput_tps, offered_tps(m));
  EXPECT_NEAR(load_skewness(m), 1.0, 1e-9);
}

TEST(SimEngine, PkgSplitsHotKeyAcrossTwoInstances) {
  std::vector<std::uint64_t> counts(10, 0);
  counts[3] = 4'000'000;
  SimConfig cfg;
  SimEngine engine(cfg, std::make_unique<UniformCostOperator>(1.0, 0.0),
                   std::make_unique<FixedSource>(counts), storm(4, 10),
                   RoutingMode::kPkg);
  const auto m = engine.step();
  // Two candidates share the hot key: skewness ~2 (plus merge overhead),
  // throughput ~0.5 of offered, and the merge period adds latency.
  EXPECT_GT(m.throughput_tps / offered_tps(m), 0.4);
  EXPECT_LE(m.throughput_tps / offered_tps(m), 0.55);
  EXPECT_GE(m.avg_latency_ms,
            static_cast<double>(cfg.pkg_merge_latency_us) / 1000.0);
}

TEST(SimEngine, ControllerRebalancesSkewAway) {
  ZipfFluctuatingSource::Options opts;
  opts.num_keys = 2000;
  opts.skew = 1.0;
  opts.tuples_per_interval = 1'000'000;
  opts.fluctuation = 0.0;
  SimEngine engine(SimConfig{},
                   std::make_unique<UniformCostOperator>(1.0, 8.0),
                   std::make_unique<ZipfFluctuatingSource>(opts),
                   make_controller(8, 2000, 0.08));
  const auto first = engine.step();
  EXPECT_GT(first.max_theta, 0.08);  // hashing alone is imbalanced
  EXPECT_TRUE(first.migrated);
  // After the rebalance lands (one interval for the pause), the workload
  // is balanced and stays there.
  (void)engine.step();
  const auto later = engine.step();
  EXPECT_LE(later.max_theta, 0.08 + 1e-6);
  EXPECT_FALSE(later.migrated);
  EXPECT_DOUBLE_EQ(later.throughput_tps, offered_tps(later));
}

TEST(SimEngine, MigrationChargesPauseToInvolvedInstances) {
  ZipfFluctuatingSource::Options opts;
  opts.num_keys = 500;
  opts.skew = 1.2;
  opts.tuples_per_interval = 500'000;
  opts.fluctuation = 0.0;
  SimConfig cfg;
  cfg.migration_rtt_us = 50'000;  // big pause for visibility
  cfg.migration_bytes_per_sec = 1e6;
  SimEngine engine(cfg, std::make_unique<UniformCostOperator>(1.0, 64.0),
                   std::make_unique<ZipfFluctuatingSource>(opts),
                   make_controller(4, 500, 0.05));
  const auto first = engine.step();
  ASSERT_TRUE(first.migrated);
  EXPECT_GT(first.migration_bytes, 0.0);
  EXPECT_GT(first.migration_pct, 0.0);
  EXPECT_LE(first.migration_pct, 100.0);
  EXPECT_EQ(first.table_size, engine.controller()->assignment().table().size());
  // The interval right after the migration absorbs the pause: latency is
  // elevated relative to steady state two intervals later.
  const auto during = engine.step();
  (void)engine.step();
  const auto steady = engine.step();
  EXPECT_GE(during.avg_latency_ms, steady.avg_latency_ms);
}

TEST(SimEngine, ScaleOutReducesPerInstanceWork) {
  std::vector<std::uint64_t> counts(1000, 100);
  SimEngine engine(SimConfig{},
                   std::make_unique<UniformCostOperator>(1.0, 0.0),
                   std::make_unique<FixedSource>(counts), storm(4, 1000),
                   RoutingMode::kShuffle);
  const auto before = engine.step();
  engine.add_instance();
  EXPECT_EQ(engine.num_instances(), 5);
  const auto after = engine.step();
  ASSERT_EQ(after.instance_load.size(), 5u);
  EXPECT_LT(after.instance_load[0], before.instance_load[0]);
}

TEST(SimEngine, SelfJoinCostGrowsWithWindowState) {
  // Same counts every interval; with w = 3 the in-window state grows for
  // two intervals, so per-interval work grows too, then plateaus.
  std::vector<std::uint64_t> counts(100, 100);
  SimEngine engine(SimConfig{},
                   std::make_unique<SelfJoinCostOperator>(1.0, 16.0, 0.01),
                   std::make_unique<FixedSource>(counts), storm(4, 100, 3),
                   RoutingMode::kShuffle);
  const auto m1 = engine.step();
  const auto m2 = engine.step();
  const auto m3 = engine.step();
  const auto m4 = engine.step();  // first interval with a full window
  const auto m5 = engine.step();
  const auto work = [](const IntervalReport& m) {
    double t = 0.0;
    for (const double w : m.instance_load) t += w;
    return t;
  };
  EXPECT_GT(work(m2), work(m1));
  EXPECT_GT(work(m3), work(m2));
  EXPECT_GT(work(m4), work(m3));
  EXPECT_NEAR(work(m5), work(m4), work(m4) * 0.01);  // window saturated
}

TEST(SimEngine, DeterministicAcrossRuns) {
  const auto run_once = [] {
    ZipfFluctuatingSource::Options opts;
    opts.num_keys = 1000;
    opts.tuples_per_interval = 200'000;
    opts.fluctuation = 0.5;
    SimEngine engine(SimConfig{},
                     std::make_unique<UniformCostOperator>(1.0, 8.0),
                     std::make_unique<ZipfFluctuatingSource>(opts),
                     make_controller(6, 1000, 0.08));
    double acc = 0.0;
    for (int i = 0; i < 10; ++i) acc += engine.step().throughput_tps;
    return acc;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace skewless
