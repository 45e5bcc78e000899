// Fig. 13 — end-to-end throughput and processing latency with varying
// distribution-change frequency f ∈ {0.1 .. 2.0} for Storm (plain
// hashing), Readj, Mixed, and the key-oblivious Ideal shuffle bound.
//
// Expected shape (paper): Ideal is flat and best; Mixed tracks Ideal
// closely across all f; Readj degrades as f grows; Storm sits lowest
// with the highest latency.
#include "baselines/readj.h"
#include "bench_common.h"
#include "core/planners.h"
#include "workload/synthetic.h"

using namespace skewless;
using namespace skewless::bench;

namespace {

constexpr InstanceId kInstances = 10;
constexpr std::uint64_t kNumKeys = 1'000;  // skewed-hash regime (Fig. 7b)
constexpr int kIntervals = 60;
constexpr int kSkip = 10;

std::unique_ptr<WorkloadSource> source_with(double f) {
  ZipfFluctuatingSource::Options opts;
  opts.num_keys = kNumKeys;
  opts.skew = 0.85;
  opts.tuples_per_interval = 1'750'000;  // ~0.7 average utilization
  opts.fluctuation = f;
  // The paper's testbed reacts within a fraction of its 10 s interval;
  // with 1 s intervals we apply each distribution change once per 10
  // intervals so the balanced fraction of time matches.
  opts.fluctuate_every = 10;
  opts.seed = 29;
  return std::make_unique<ZipfFluctuatingSource>(opts);
}

std::pair<double, double> run_mode(double f, int which) {
  const SimConfig cfg;
  auto op = std::make_unique<UniformCostOperator>(4.0, 8.0);
  std::unique_ptr<SimEngine> engine;
  switch (which) {
    case 0:  // Storm
      engine = std::make_unique<SimEngine>(
          cfg, std::move(op), source_with(f),
          make_storm_controller(kInstances, kNumKeys));
      break;
    case 1:  // Readj
      engine = std::make_unique<SimEngine>(
          cfg, std::move(op), source_with(f),
          make_controller(std::make_unique<ReadjPlanner>(), kInstances,
                          kNumKeys, 0.08));
      break;
    case 2:  // Mixed
      engine = std::make_unique<SimEngine>(
          cfg, std::move(op), source_with(f),
          make_controller(std::make_unique<MixedPlanner>(), kInstances,
                          kNumKeys, 0.08));
      break;
    default:  // Ideal
      engine = std::make_unique<SimEngine>(
          cfg, std::move(op), source_with(f),
          make_storm_controller(kInstances, kNumKeys), RoutingMode::kShuffle);
      break;
  }
  const auto ms = engine->run(kIntervals);
  return {mean_of(ms, throughput_of, kSkip) / 1000.0,
          mean_of(ms, latency_of, kSkip)};
}

}  // namespace

int main() {
  ResultTable thr_table("Fig 13(a) throughput (k tuples/s) vs f",
                        {"f", "Storm", "Readj", "Mixed", "Ideal"});
  ResultTable lat_table("Fig 13(b) processing latency (ms) vs f",
                        {"f", "Storm", "Readj", "Mixed", "Ideal"});
  for (const double f : {0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 1.7, 2.0}) {
    std::vector<std::string> trow = {fmt(f, 1)};
    std::vector<std::string> lrow = {fmt(f, 1)};
    for (int which = 0; which < 4; ++which) {
      const auto [thr, lat] = run_mode(f, which);
      trow.push_back(fmt(thr, 1));
      lrow.push_back(fmt(lat, 2));
    }
    thr_table.add_row(std::move(trow));
    lat_table.add_row(std::move(lrow));
  }
  thr_table.print();
  lat_table.print();
  return 0;
}
