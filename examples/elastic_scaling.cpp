// Elastic scaling example: short-term fluctuation handled by the Mixed
// rebalancer, long-term workload growth handled by the ElasticityAdvisor
// (the paper's future-work mechanism, see src/core/elasticity.h).
//
// The offered load ramps up over time; the advisor detects the sustained
// overload, the engine adds an instance, the controller pins placements
// (no implicit state movement) and Mixed shifts load onto the newcomer.
//
//   $ ./elastic_scaling [intervals]
#include <cstdio>
#include <cstdlib>
#include <cmath>

#include "core/controller.h"
#include "core/elasticity.h"
#include "core/planners.h"
#include "engine/sim_engine.h"
#include "workload/synthetic.h"

using namespace skewless;

namespace {

/// Zipf workload whose volume grows ~6% per interval (a long-term shift).
class GrowingZipfSource final : public WorkloadSource {
 public:
  GrowingZipfSource(std::uint64_t num_keys, std::uint64_t base_tuples)
      : zipf_(num_keys, 0.85, true, 3), base_(base_tuples) {}

  [[nodiscard]] std::size_t num_keys() const override {
    return static_cast<std::size_t>(zipf_.num_keys());
  }

  [[nodiscard]] IntervalWorkload next_interval() override {
    const auto total = static_cast<std::uint64_t>(
        static_cast<double>(base_) * std::pow(1.06, interval_++));
    IntervalWorkload load;
    load.counts = zipf_.expected_counts(total);
    return load;
  }

 private:
  ZipfDistribution zipf_;
  std::uint64_t base_;
  int interval_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const int intervals = argc > 1 ? std::atoi(argv[1]) : 40;
  const std::size_t num_keys = 20'000;
  InstanceId nd = 4;

  ControllerConfig ccfg;
  ccfg.planner.theta_max = 0.08;
  auto controller = std::make_unique<Controller>(
      AssignmentFunction(ConsistentHashRing(nd), 0),
      std::make_unique<MixedPlanner>(), ccfg, num_keys);

  SimEngine engine(SimConfig{},
                   std::make_unique<UniformCostOperator>(4.0, 8.0),
                   std::make_unique<GrowingZipfSource>(num_keys, 400'000),
                   std::move(controller));

  ElasticityAdvisor::Options eopts;
  eopts.sustain_intervals = 3;
  eopts.cooldown_intervals = 4;
  ElasticityAdvisor advisor(eopts);

  std::printf("interval  instances  util   throughput(k/s)  advice\n");
  for (int i = 0; i < intervals; ++i) {
    const auto m = engine.step();
    double total_work = 0.0;
    for (const double w : m.instance_load) total_work += w;
    const double util =
        total_work / (static_cast<double>(engine.num_instances()) * 1e6);

    const auto advice = advisor.observe(util, engine.num_instances());
    const char* advice_str = "-";
    if (advice == ScalingAdvice::kScaleOut) {
      engine.add_instance();
      advice_str = "SCALE OUT";
    } else if (advice == ScalingAdvice::kScaleIn) {
      advice_str = "scale in (ignored in this demo)";
    }
    std::printf("%8d  %9d  %5.2f  %15.1f  %s\n", i, engine.num_instances(),
                util, m.throughput_tps / 1000.0, advice_str);
  }

  std::printf("\nfinal size suggestion for the last interval's work: %d "
              "instances at 80%% target utilization\n",
              suggest_instances(
                  static_cast<double>(engine.num_instances()) * 1e6 *
                      advisor.utilization_ewma(),
                  1e6, 0.8));
  return 0;
}
