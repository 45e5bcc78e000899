// close_boundary, the boundary routine both real engines run, driven
// through a recording fake transport: no threads, no sockets.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/consistent_hash.h"
#include "core/controller.h"
#include "core/planners.h"
#include "engine/interval.h"
#include "sketch/sketch_stats_window.h"

namespace skewless {
namespace {

constexpr InstanceId kWorkers = 2;
constexpr std::size_t kKeys = 64;
/// Merge time the fake collect adds to the tally's measured one.
constexpr double kCollectMs = 1.5;

std::unique_ptr<Controller> make_controller(StatsMode mode,
                                            bool with_planner) {
  ControllerConfig cfg;
  cfg.planner.theta_max = 0.08;
  cfg.stats_mode = mode;
  cfg.sketch.heavy_capacity = 8;
  PlannerPtr planner;
  if (with_planner) planner = std::make_unique<MixedPlanner>();
  return std::make_unique<Controller>(
      AssignmentFunction(ConsistentHashRing(kWorkers), 0), std::move(planner),
      cfg, kKeys);
}

/// Records the hooks close_boundary calls, and collects one skewed
/// interval: each key ran on the worker the controller routes it to, and
/// worker 0's keys carry ten tuples each against worker 1's one.
class RecordingTransport final : public BoundaryTransport {
 public:
  explicit RecordingTransport(Controller& controller)
      : controller_(controller) {}

  bool collect(std::uint64_t epoch, SlabTally& tally) override {
    calls.push_back("collect@" + std::to_string(epoch));
    if (fail_collect) return false;
    std::vector<KeyAggMap> maps(static_cast<std::size_t>(kWorkers));
    for (KeyId k = 0; k < static_cast<KeyId>(kKeys); ++k) {
      const auto w = static_cast<std::size_t>(controller_.assignment()(k));
      WorkerSketchSlab::KeyAgg& agg = maps[w][k];
      agg.cost = w == 0 ? 10.0 : 1.0;  // one cost unit per tuple
      agg.state_bytes = 8.0 * agg.cost;
      worker_cost[w] += agg.cost;
    }
    SketchStatsWindow* sketch = controller_.slab_sink();
    for (std::size_t w = 0; w < maps.size(); ++w) {
      WorkerSketchSlab::IntervalScalars sc;
      for (const auto& [key, agg] : maps[w]) {
        sc.processed += static_cast<std::uint64_t>(agg.cost);
      }
      sc.latency_sum_us = 2000.0 * static_cast<double>(sc.processed);
      processed += sc.processed;
      if (sketch != nullptr) {
        WorkerSketchSlab slab(sketch->config());
        slab.add_batch(maps[w]);
        slab.scalars() = sc;
        tally.absorb(*sketch, slab, w);
      } else {
        tally.replay(controller_.stats(), maps[w], sc, w);
      }
    }
    tally.merge_ms += kCollectMs;
    return true;
  }

  bool publish(std::uint64_t epoch, std::vector<KeyId> heavy) override {
    calls.push_back("publish@" + std::to_string(epoch));
    published = std::move(heavy);
    return !fail_publish;
  }

  bool migrate(const RebalancePlan& plan, IntervalReport& report) override {
    calls.push_back("migrate");
    migrated_moves = plan.moves.size();
    migrated_table_size = plan.table_size;
    migrate_report = &report;
    return true;
  }

  bool fail_collect = false;
  bool fail_publish = false;
  std::vector<std::string> calls;
  std::vector<double> worker_cost =
      std::vector<double>(static_cast<std::size_t>(kWorkers), 0.0);
  std::uint64_t processed = 0;
  std::vector<KeyId> published;
  std::size_t migrated_moves = 0;
  std::size_t migrated_table_size = 0;
  const IntervalReport* migrate_report = nullptr;

 private:
  Controller& controller_;
};

TEST(Boundary, CollectsThenPublishesThenMigrates) {
  for (const StatsMode mode : {StatsMode::kExact, StatsMode::kSketch}) {
    auto controller = make_controller(mode, /*with_planner=*/true);
    RecordingTransport transport(*controller);
    IntervalReport report;
    ASSERT_TRUE(close_boundary(*controller, transport, 7, report));
    EXPECT_EQ(transport.calls, (std::vector<std::string>{
                                   "collect@7", "publish@7", "migrate"}));
    // The collected tally, the roll and the plan all reached the report
    // before the migration, which gets the same report.
    EXPECT_EQ(report.processed, transport.processed);
    EXPECT_DOUBLE_EQ(report.avg_latency_ms, 2.0);
    EXPECT_GE(report.merge_ms, kCollectMs);
    EXPECT_GT(report.roll_ms, 0.0);
    EXPECT_EQ(report.instance_load, transport.worker_cost);
    EXPECT_GT(report.max_theta, 0.08);
    EXPECT_GT(report.stats_memory_bytes, 0u);
    EXPECT_TRUE(report.migrated);
    EXPECT_GT(report.moves, 0u);
    EXPECT_EQ(report.moves, transport.migrated_moves);
    EXPECT_EQ(report.table_size, transport.migrated_table_size);
    EXPECT_EQ(transport.migrate_report, &report);
    EXPECT_EQ(controller->stats().closed_intervals(), 1);
  }
}

TEST(Boundary, PublishesTheProvidersPostRollHeavySet) {
  auto sketch = make_controller(StatsMode::kSketch, /*with_planner=*/true);
  RecordingTransport sketch_transport(*sketch);
  IntervalReport report;
  ASSERT_TRUE(close_boundary(*sketch, sketch_transport, 1, report));
  EXPECT_FALSE(sketch_transport.published.empty());
  EXPECT_EQ(sketch_transport.published, sketch->slab_sink()->heavy_keys());

  // Exact mode has no heavy set; the publish still runs, with an empty
  // one, because it is what resumes the threaded engine's sealed workers.
  auto exact = make_controller(StatsMode::kExact, /*with_planner=*/true);
  RecordingTransport exact_transport(*exact);
  exact_transport.published = {42};
  IntervalReport exact_report;
  ASSERT_TRUE(close_boundary(*exact, exact_transport, 1, exact_report));
  EXPECT_EQ(exact_transport.calls.at(1), "publish@1");
  EXPECT_TRUE(exact_transport.published.empty());
}

TEST(Boundary, SkipsMigrateWithoutAPlan) {
  // A planner-less controller rolls but never plans; its θ is the
  // realized one over the collected per-worker costs.
  auto controller = make_controller(StatsMode::kExact, /*with_planner=*/false);
  RecordingTransport transport(*controller);
  IntervalReport report;
  ASSERT_TRUE(close_boundary(*controller, transport, 3, report));
  EXPECT_EQ(transport.calls,
            (std::vector<std::string>{"collect@3", "publish@3"}));
  EXPECT_FALSE(report.migrated);
  EXPECT_EQ(report.moves, 0u);
  EXPECT_GT(report.max_theta, 0.08);
  EXPECT_EQ(controller->stats().closed_intervals(), 1);
}

TEST(Boundary, FailedCollectStopsBeforeTheRoll) {
  auto controller = make_controller(StatsMode::kSketch, /*with_planner=*/true);
  RecordingTransport transport(*controller);
  transport.fail_collect = true;
  IntervalReport report;
  EXPECT_FALSE(close_boundary(*controller, transport, 1, report));
  EXPECT_EQ(transport.calls, std::vector<std::string>{"collect@1"});
  EXPECT_EQ(controller->stats().closed_intervals(), 0);
  EXPECT_EQ(report.roll_ms, 0.0);
  EXPECT_EQ(controller->rebalance_count(), 0u);
}

TEST(Boundary, FailedPublishSkipsTheMigration) {
  auto controller = make_controller(StatsMode::kExact, /*with_planner=*/true);
  RecordingTransport transport(*controller);
  transport.fail_publish = true;
  IntervalReport report;
  EXPECT_FALSE(close_boundary(*controller, transport, 2, report));
  EXPECT_EQ(transport.calls,
            (std::vector<std::string>{"collect@2", "publish@2"}));
  // The roll and the plan happened; only the migration was skipped.
  EXPECT_EQ(controller->stats().closed_intervals(), 1);
  EXPECT_TRUE(report.migrated);
}

}  // namespace
}  // namespace skewless
