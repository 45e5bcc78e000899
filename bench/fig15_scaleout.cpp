// Fig. 15 — throughput dynamics during scale-out: the system runs to a
// balanced state, then one instance is added and the balancing algorithms
// must shift load onto it. Time series on Social (a) and Stock (b) for
// Mixed / Readj at θmax ∈ {0.1, 0.2}, plus PKG (Social only) and Storm.
//
// Expected shape (paper): Mixed re-converges within a couple of
// intervals; Readj needs much longer (its plan generation alone took
// ~5 minutes on Social); Storm never uses the new instance effectively;
// PKG adapts but stays below Mixed.
#include "baselines/readj.h"
#include "bench_common.h"
#include "core/planners.h"
#include "workload/social.h"
#include "workload/stock.h"

using namespace skewless;
using namespace skewless::bench;

namespace {

constexpr InstanceId kInstances = 9;  // +1 during the run -> 10
constexpr int kWarmup = 6;
constexpr int kAfter = 14;

std::unique_ptr<WorkloadSource> social_source() {
  SocialSource::Options opts;
  opts.num_words = 50'000;
  opts.skew = 0.95;
  // Saturated at 9 workers (ρ̄ ≈ 1.06), relieved once the 10th arrives
  // and the balancer shifts load onto it (ρ̄ ≈ 0.95).
  opts.tuples_per_interval = 1'900'000;
  opts.drift_fraction = 0.01;
  return std::make_unique<SocialSource>(opts);
}

std::unique_ptr<WorkloadSource> stock_source() {
  StockSource::Options opts;
  opts.tuples_per_interval = 900'000;
  opts.burst_probability = 0.3;
  // Keep bursts within one instance's capacity: the self-join cost is
  // quadratic in a symbol's volume, so unbounded bursts would exceed any
  // placement (nothing to reproduce there).
  opts.burst_min_factor = 4.0;
  opts.burst_max_factor = 10.0;
  return std::make_unique<StockSource>(opts);
}

/// Runs warmup -> add_instance -> recovery; returns throughput series.
std::vector<double> run_series(std::unique_ptr<SimEngine> engine) {
  std::vector<double> series;
  for (int i = 0; i < kWarmup; ++i) {
    series.push_back(engine->step().throughput_tps / 1000.0);
  }
  engine->add_instance();
  for (int i = 0; i < kAfter; ++i) {
    series.push_back(engine->step().throughput_tps / 1000.0);
  }
  return series;
}

std::unique_ptr<SimEngine> make_engine(bool social, int which, double theta) {
  const SimConfig cfg;
  const int window = social ? 1 : 3;
  auto source = social ? social_source() : stock_source();
  const std::size_t keys = source->num_keys();
  std::unique_ptr<SimOperator> op;
  if (social) {
    op = std::make_unique<UniformCostOperator>(5.0, 8.0);
  } else {
    // Base cost dominates; the probe term concentrates load on the hot
    // symbols without letting any single symbol exceed ~0.8 instances.
    op = std::make_unique<SelfJoinCostOperator>(8.0, 16.0, 0.00002);
  }
  switch (which) {
    case 0:  // Mixed
      return std::make_unique<SimEngine>(
          cfg, std::move(op), std::move(source),
          make_controller(std::make_unique<MixedPlanner>(), kInstances, keys,
                          theta, 0, window));
    case 1:  // Readj
      return std::make_unique<SimEngine>(
          cfg, std::move(op), std::move(source),
          make_controller(std::make_unique<ReadjPlanner>(), kInstances, keys,
                          theta, 0, window));
    case 2:  // PKG
      return std::make_unique<SimEngine>(
          cfg, std::move(op), std::move(source),
          make_storm_controller(kInstances, keys, window), RoutingMode::kPkg);
    default:  // Storm
      return std::make_unique<SimEngine>(
          cfg, std::move(op), std::move(source),
          make_storm_controller(kInstances, keys, window));
  }
}

void print_series(const std::string& title,
                  const std::vector<std::pair<std::string,
                                              std::vector<double>>>& series) {
  std::vector<std::string> cols = {"interval"};
  for (const auto& [name, values] : series) cols.push_back(name);
  ResultTable table(title, cols);
  const std::size_t n = series.front().second.size();
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::string> row = {
        std::to_string(i) + (i == kWarmup ? "*" : "")};
    for (const auto& [name, values] : series) row.push_back(fmt(values[i], 1));
    table.add_row(std::move(row));
  }
  table.print();
  std::printf("(* = instance added at this interval)\n");
}

}  // namespace

int main() {
  {
    std::vector<std::pair<std::string, std::vector<double>>> series;
    series.emplace_back("Mixed(0.1)", run_series(make_engine(true, 0, 0.1)));
    series.emplace_back("Readj(0.1)", run_series(make_engine(true, 1, 0.1)));
    series.emplace_back("Mixed(0.2)", run_series(make_engine(true, 0, 0.2)));
    series.emplace_back("Readj(0.2)", run_series(make_engine(true, 1, 0.2)));
    series.emplace_back("PKG", run_series(make_engine(true, 2, 0.1)));
    series.emplace_back("Storm", run_series(make_engine(true, 3, 0.1)));
    print_series("Fig 15(a) Social scale-out throughput (k tuples/s)",
                 series);
  }
  {
    std::vector<std::pair<std::string, std::vector<double>>> series;
    series.emplace_back("Mixed(0.1)", run_series(make_engine(false, 0, 0.1)));
    series.emplace_back("Readj(0.1)", run_series(make_engine(false, 1, 0.1)));
    series.emplace_back("Mixed(0.2)", run_series(make_engine(false, 0, 0.2)));
    series.emplace_back("Readj(0.2)", run_series(make_engine(false, 1, 0.2)));
    series.emplace_back("Storm", run_series(make_engine(false, 3, 0.1)));
    print_series("Fig 15(b) Stock scale-out throughput (k tuples/s)",
                 series);
  }
  return 0;
}
