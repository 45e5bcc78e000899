// Streaming TPC-H Q5: a multi-operator pipeline on the simulation engine.
//
// Generates a mini-DBGen dataset (Zipf-skewed foreign keys, hotness
// re-drawn every epoch), validates it, cross-checks the Q5 answer with a
// naive in-memory join, then streams the three keyed join stages through
// SimPipeline twice — plain hashing vs Mixed — and reports per-epoch
// throughput. Demonstrates the Fig. 1 effect: one imbalanced upstream
// join stalls the whole pipeline.
//
//   $ ./tpch_q5_pipeline [orders] [interval_seconds]
#include <cstdio>
#include <cstdlib>

#include "core/controller.h"
#include "core/planners.h"
#include "engine/sim_pipeline.h"
#include "workload/tpch.h"

using namespace skewless;

namespace {

constexpr InstanceId kStageInstances = 8;
constexpr double kStageCost[3] = {3'600.0, 900.0, 850.0};

/// A stage's controller: Mixed, or without a planner (plain hashing).
std::unique_ptr<Controller> stage_controller(std::size_t num_keys,
                                             bool balanced) {
  ControllerConfig cfg;
  cfg.planner.theta_max = 0.1;
  cfg.planner.max_table_entries = 0;
  cfg.window = 5;
  return std::make_unique<Controller>(
      AssignmentFunction(ConsistentHashRing(kStageInstances), 0),
      balanced ? std::make_unique<MixedPlanner>() : nullptr, cfg, num_keys);
}

std::vector<double> run(const tpch::Q5Workload& workload, bool balanced) {
  std::vector<std::unique_ptr<SimEngine>> stages;
  for (int s = 0; s < 3; ++s) {
    stages.push_back(std::make_unique<SimEngine>(
        SimConfig{},
        std::make_unique<UniformCostOperator>(
            kStageCost[static_cast<std::size_t>(s)], 24.0),
        workload.stage_source(s),
        stage_controller(workload.stage_num_keys(s), balanced)));
  }
  SimPipeline pipeline(std::move(stages));
  std::vector<double> series;
  for (int i = 0; i < workload.num_intervals(); ++i) {
    series.push_back(pipeline.step().throughput_tps);
  }
  return series;
}

}  // namespace

int main(int argc, char** argv) {
  tpch::Scale scale;
  scale.orders = argc > 1 ? std::atoll(argv[1]) : 60'000;
  scale.run_seconds = 1'800;
  scale.epoch_seconds = 450;
  const std::int64_t interval_sec = argc > 2 ? std::atoll(argv[2]) : 60;

  std::printf("generating mini TPC-H (orders=%lld, %d customers, %d suppliers)"
              "...\n",
              static_cast<long long>(scale.orders), scale.customers,
              scale.suppliers);
  const auto tables = tpch::Tables::generate(scale);
  tables.validate();
  std::printf("generated %zu lineitems; referential integrity OK\n",
              tables.lineitems.size());

  const auto revenue = tables.q5_revenue_by_nation();
  double best = 0.0;
  std::size_t best_nation = 0;
  for (std::size_t n = 0; n < revenue.size(); ++n) {
    if (revenue[n] > best) {
      best = revenue[n];
      best_nation = n;
    }
  }
  std::printf("Q5 reference answer: top nation %s, revenue %.0f\n\n",
              tables.nations[best_nation].name.c_str(), best);

  const tpch::Q5Workload workload(tables, interval_sec);
  const auto hash_series = run(workload, /*balanced=*/false);
  const auto mixed_series = run(workload, /*balanced=*/true);

  std::printf("%8s %14s %14s\n", "t (s)", "hash (tup/s)", "Mixed (tup/s)");
  for (std::size_t i = 0; i < hash_series.size(); i += 2) {
    std::printf("%8lld %14.0f %14.0f\n",
                static_cast<long long>((i + 1) * interval_sec),
                hash_series[i], mixed_series[i]);
  }
  double hash_avg = 0.0;
  double mixed_avg = 0.0;
  for (std::size_t i = 0; i < hash_series.size(); ++i) {
    hash_avg += hash_series[i];
    mixed_avg += mixed_series[i];
  }
  hash_avg /= static_cast<double>(hash_series.size());
  mixed_avg /= static_cast<double>(mixed_series.size());
  std::printf("\nrun averages: hash=%.0f  Mixed=%.0f  (%.1f%% improvement)\n",
              hash_avg, mixed_avg, (mixed_avg / hash_avg - 1.0) * 100.0);
  return 0;
}
