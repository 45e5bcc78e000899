// Fig. 16 — dynamic adjustment on the streaming TPC-H Q5 pipeline
// (DBGen-mini with Zipf z = 0.8 foreign keys, distribution change every
// 15 minutes, one-hour run, window = 5 minutes), θmax ∈ {0.1, 0.2}, for
// Mixed / Readj / Storm / MinTable.
//
// Expected shape (paper): Storm's throughput collapses at every
// distribution change and stays low; Mixed recovers quickly and holds
// the best throughput under both tolerances; Readj and MinTable recover
// more slowly / with deeper dips.
#include "baselines/readj.h"
#include "bench_common.h"
#include "core/planners.h"
#include "engine/sim_pipeline.h"
#include "workload/tpch.h"

using namespace skewless;
using namespace skewless::bench;

namespace {

constexpr std::int64_t kIntervalSeconds = 60;  // 60 intervals over 1 hour
constexpr InstanceId kStageInstances = 8;
constexpr int kWindow = 5;  // 5-minute window over 1-minute intervals
// Per-stage per-tuple costs calibrated so the pipeline runs near
// saturation at the generated rates (~2000 orders and ~8000 lineitems
// per 60 s interval over 8 instances of 1 virtual CPU-second each).
constexpr double kStageCost[3] = {3'600.0, 900.0, 850.0};

const tpch::Tables& tables() {
  static const tpch::Tables t = [] {
    tpch::Scale scale;
    scale.customers = 15'000;
    scale.suppliers = 1'000;
    scale.orders = 120'000;
    scale.lineitems_per_order = 4;
    scale.run_seconds = 3'600;
    scale.epoch_seconds = 900;  // distribution change every 15 min
    auto generated = tpch::Tables::generate(scale);
    generated.validate();
    return generated;
  }();
  return t;
}

enum class Mode { kMixed, kReadj, kStorm, kMinTable };

std::unique_ptr<SimEngine> make_stage(const tpch::Q5Workload& workload,
                                      int stage, Mode mode, double theta) {
  SimConfig cfg;
  cfg.interval_micros = 1'000'000;
  auto op = std::make_unique<UniformCostOperator>(
      kStageCost[static_cast<std::size_t>(stage)], 24.0);
  auto source = workload.stage_source(stage);
  const std::size_t keys = workload.stage_num_keys(stage);
  switch (mode) {
    case Mode::kStorm:
      return std::make_unique<SimEngine>(
          cfg, std::move(op), std::move(source),
          make_storm_controller(kStageInstances, keys, kWindow));
    case Mode::kMixed:
      return std::make_unique<SimEngine>(
          cfg, std::move(op), std::move(source),
          make_controller(std::make_unique<MixedPlanner>(), kStageInstances,
                          keys, theta, 0, kWindow));
    case Mode::kReadj:
      return std::make_unique<SimEngine>(
          cfg, std::move(op), std::move(source),
          make_controller(std::make_unique<ReadjPlanner>(), kStageInstances,
                          keys, theta, 0, kWindow));
    case Mode::kMinTable:
      return std::make_unique<SimEngine>(
          cfg, std::move(op), std::move(source),
          make_controller(std::make_unique<MinTablePlanner>(),
                          kStageInstances, keys, theta, 0, kWindow));
  }
  return nullptr;
}

std::vector<double> run_pipeline(Mode mode, double theta) {
  const tpch::Q5Workload workload(tables(), kIntervalSeconds);
  std::vector<std::unique_ptr<SimEngine>> stages;
  for (int s = 0; s < 3; ++s) {
    stages.push_back(make_stage(workload, s, mode, theta));
  }
  SimPipeline pipeline(std::move(stages));
  std::vector<double> series;
  for (int i = 0; i < workload.num_intervals(); ++i) {
    series.push_back(pipeline.step().throughput_tps);
  }
  return series;
}

void print_theta(double theta) {
  ResultTable table("Fig 16 TPC-H Q5 throughput (tuples/s), theta_max=" +
                        fmt(theta, 1),
                    {"t_sec", "Mixed", "Readj", "Storm", "MinTable"});
  const auto mixed = run_pipeline(Mode::kMixed, theta);
  const auto readj = run_pipeline(Mode::kReadj, theta);
  const auto storm = run_pipeline(Mode::kStorm, theta);
  const auto mintable = run_pipeline(Mode::kMinTable, theta);
  for (std::size_t i = 0; i < mixed.size(); i += 3) {
    table.add_row({std::to_string((i + 1) * kIntervalSeconds),
                   fmt(mixed[i], 0), fmt(readj[i], 0), fmt(storm[i], 0),
                   fmt(mintable[i], 0)});
  }
  table.print();
  // Summary row: run averages.
  const auto avg = [](const std::vector<double>& v) {
    double acc = 0.0;
    for (const double x : v) acc += x;
    return acc / static_cast<double>(v.size());
  };
  std::printf("run averages: Mixed=%.0f Readj=%.0f Storm=%.0f MinTable=%.0f\n",
              avg(mixed), avg(readj), avg(storm), avg(mintable));
}

}  // namespace

int main() {
  print_theta(0.1);
  print_theta(0.2);
  return 0;
}
