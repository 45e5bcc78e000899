#include "engine/sim_pipeline.h"

#include <gtest/gtest.h>

namespace skewless {
namespace {

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

/// A shuffle stage; its planner-less controller is the statistics store.
std::unique_ptr<SimEngine> make_stage(InstanceId nd,
                                      std::vector<std::uint64_t> counts,
                                      Cost cost_us) {
  auto controller = std::make_unique<Controller>(
      AssignmentFunction(ConsistentHashRing(nd), 0), nullptr,
      ControllerConfig{}, counts.size());
  return std::make_unique<SimEngine>(
      SimConfig{}, std::make_unique<UniformCostOperator>(cost_us, 8.0),
      std::make_unique<FixedSource>(std::move(counts)), std::move(controller),
      RoutingMode::kShuffle);
}

TEST(SimPipeline, UnthrottledWhenAllStagesUnderloaded) {
  std::vector<std::unique_ptr<SimEngine>> stages;
  stages.push_back(make_stage(4, std::vector<std::uint64_t>(100, 10), 1.0));
  stages.push_back(make_stage(4, std::vector<std::uint64_t>(100, 10), 1.0));
  SimPipeline pipeline(std::move(stages));
  const auto m = pipeline.step();
  EXPECT_DOUBLE_EQ(m.throughput_tps, m.offered_tps);
}

TEST(SimPipeline, SlowestStageGovernsThroughput) {
  // Stage 1 is 8x overloaded relative to stage 0.
  std::vector<std::unique_ptr<SimEngine>> stages;
  stages.push_back(
      make_stage(4, std::vector<std::uint64_t>(100, 10'000), 1.0));
  stages.push_back(
      make_stage(4, std::vector<std::uint64_t>(100, 10'000), 8.0));
  SimPipeline pipeline(std::move(stages));
  const auto m = pipeline.step();
  EXPECT_EQ(m.bottleneck_stage, 1u);
  EXPECT_NEAR(m.throughput_tps / m.offered_tps, 0.5, 0.02);  // 1s / 2s work
}

TEST(SimPipeline, LatencyIsAdditiveAcrossStages) {
  std::vector<std::unique_ptr<SimEngine>> stages;
  stages.push_back(make_stage(2, std::vector<std::uint64_t>(10, 10), 1.0));
  stages.push_back(make_stage(2, std::vector<std::uint64_t>(10, 10), 1.0));
  stages.push_back(make_stage(2, std::vector<std::uint64_t>(10, 10), 1.0));
  SimPipeline pipeline(std::move(stages));
  const auto m = pipeline.step();
  double sum = 0.0;
  for (const auto& sm : m.stages) sum += sm.avg_latency_ms;
  EXPECT_DOUBLE_EQ(m.end_to_end_latency_ms, sum);
  EXPECT_EQ(m.stages.size(), 3u);
}

TEST(SimPipeline, RunProducesRequestedIntervals) {
  std::vector<std::unique_ptr<SimEngine>> stages;
  stages.push_back(make_stage(2, std::vector<std::uint64_t>(10, 10), 1.0));
  SimPipeline pipeline(std::move(stages));
  const auto all = pipeline.run(7);
  EXPECT_EQ(all.size(), 7u);
  EXPECT_EQ(all.back().interval, 6);
}

}  // namespace
}  // namespace skewless
