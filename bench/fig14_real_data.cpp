// Fig. 14 — throughput on the "real" workloads versus θmax:
//   (a) Social (word count; Storm / Readj / Mixed / PKG / MinTable)
//   (b) Stock (windowed self-join; Storm / Readj / Mixed / MinTable —
//       PKG cannot run joins, exactly as in the paper).
//
// Expected shape (paper): best throughput at the strictest θmax = 0.02
// for Mixed; Readj catches up only at relaxed θmax (0.3 / 0.15); PKG is
// θ-insensitive, below Mixed by ~10%; MinTable pays its migration volume.
#include "baselines/readj.h"
#include "bench_common.h"
#include "core/planners.h"
#include "workload/social.h"
#include "workload/stock.h"

using namespace skewless;
using namespace skewless::bench;

namespace {

constexpr InstanceId kInstances = 10;
constexpr int kIntervals = 20;
constexpr int kSkip = 5;

std::unique_ptr<WorkloadSource> social_source() {
  SocialSource::Options opts;
  opts.num_words = 50'000;
  opts.skew = 0.95;
  // Saturation point: 1.9M tuples x 5 us / 10 instances = 0.95 average
  // utilization (the paper "force[s] the system to reach a saturation
  // point ... with the requirement of absolute load balancing").
  opts.tuples_per_interval = 1'900'000;
  opts.drift_fraction = 0.03;
  return std::make_unique<SocialSource>(opts);
}

std::unique_ptr<WorkloadSource> stock_source() {
  StockSource::Options opts;
  opts.tuples_per_interval = 900'000;
  opts.burst_probability = 0.5;
  return std::make_unique<StockSource>(opts);
}

double run_social(int which, double theta) {
  SimConfig cfg;
  // Modest migration bandwidth so migration volume has a visible price
  // (separates MinTable's clean-everything strategy from Mixed).
  cfg.migration_bytes_per_sec = 10.0 * 1024 * 1024;
  auto op = std::make_unique<UniformCostOperator>(5.0, 8.0);
  std::unique_ptr<SimEngine> engine;
  switch (which) {
    case 0:
      engine = std::make_unique<SimEngine>(
          cfg, std::move(op), social_source(),
          make_storm_controller(kInstances, 50'000));
      break;
    case 1:
      engine = std::make_unique<SimEngine>(
          cfg, std::move(op), social_source(),
          make_controller(std::make_unique<ReadjPlanner>(), kInstances,
                          50'000, theta));
      break;
    case 2:
      engine = std::make_unique<SimEngine>(
          cfg, std::move(op), social_source(),
          make_controller(std::make_unique<MixedPlanner>(), kInstances,
                          50'000, theta));
      break;
    case 3:
      engine = std::make_unique<SimEngine>(
          cfg, std::move(op), social_source(),
          make_storm_controller(kInstances, 50'000), RoutingMode::kPkg);
      break;
    default:
      engine = std::make_unique<SimEngine>(
          cfg, std::move(op), social_source(),
          make_controller(std::make_unique<MinTablePlanner>(), kInstances,
                          50'000, theta));
      break;
  }
  return mean_of(engine->run(kIntervals), throughput_of, kSkip) / 1000.0;
}

double run_stock(int which, double theta) {
  SimConfig cfg;
  cfg.migration_bytes_per_sec = 10.0 * 1024 * 1024;
  // Self-join: per-tuple cost grows with in-window state. The probe
  // factor is calibrated so that a burst symbol's work approaches (but
  // does not exceed) one instance's capacity — the regime where moving
  // the hot symbol is both necessary and sufficient.
  auto op = std::make_unique<SelfJoinCostOperator>(2.0, 16.0, 0.0002);
  std::unique_ptr<SimEngine> engine;
  switch (which) {
    case 0:
      engine = std::make_unique<SimEngine>(
          cfg, std::move(op), stock_source(),
          make_storm_controller(kInstances, 1'036, 3));
      break;
    case 1:
      engine = std::make_unique<SimEngine>(
          cfg, std::move(op), stock_source(),
          make_controller(std::make_unique<ReadjPlanner>(), kInstances,
                          1'036, theta, 0, 3));
      break;
    case 2:
      engine = std::make_unique<SimEngine>(
          cfg, std::move(op), stock_source(),
          make_controller(std::make_unique<MixedPlanner>(), kInstances,
                          1'036, theta, 0, 3));
      break;
    default:
      engine = std::make_unique<SimEngine>(
          cfg, std::move(op), stock_source(),
          make_controller(std::make_unique<MinTablePlanner>(), kInstances,
                          1'036, theta, 0, 3));
      break;
  }
  return mean_of(engine->run(kIntervals), throughput_of, kSkip) / 1000.0;
}

}  // namespace

int main() {
  ResultTable social_table(
      "Fig 14(a) Social word-count throughput (k tuples/s)",
      {"theta_max", "Storm", "Readj", "Mixed", "PKG", "MinTable"});
  for (const double theta : {0.02, 0.08, 0.15, 0.3}) {
    social_table.add_row({fmt(theta, 2), fmt(run_social(0, theta), 1),
                          fmt(run_social(1, theta), 1),
                          fmt(run_social(2, theta), 1),
                          fmt(run_social(3, theta), 1),
                          fmt(run_social(4, theta), 1)});
  }
  social_table.print();

  ResultTable stock_table(
      "Fig 14(b) Stock self-join throughput (k tuples/s)",
      {"theta_max", "Storm", "Readj", "Mixed", "MinTable"});
  for (const double theta : {0.02, 0.08, 0.15, 0.3}) {
    stock_table.add_row({fmt(theta, 2), fmt(run_stock(0, theta), 1),
                         fmt(run_stock(1, theta), 1),
                         fmt(run_stock(2, theta), 1),
                         fmt(run_stock(3, theta), 1)});
  }
  stock_table.print();
  return 0;
}
