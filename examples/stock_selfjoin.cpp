// Stock self-join example: the paper's second real-world scenario.
//
// A windowed self-join over a 1,036-symbol exchange feed ("find potential
// high-frequency players with dense buying and selling behavior"). The
// feed is bursty: random symbols multiply their volume for a few
// intervals, which melts whichever worker holds them — until the Mixed
// rebalancer migrates the hot symbols (and their in-window state) away.
//
// Runs the same feed twice on the threaded engine — plain hashing vs the
// Mixed controller — and compares worker imbalance and throughput.
//
//   $ ./stock_selfjoin [workers] [intervals]
#include <cstdio>
#include <cstdlib>

#include "core/controller.h"
#include "core/planners.h"
#include "engine/threaded_engine.h"
#include "workload/operators.h"
#include "workload/stock.h"

using namespace skewless;

namespace {

StockSource make_feed() {
  StockSource::Options opts;
  opts.tuples_per_interval = 150'000;
  opts.burst_probability = 0.8;
  opts.burst_min_factor = 15.0;
  opts.burst_max_factor = 40.0;
  return StockSource(opts);
}

struct RunSummary {
  double mean_theta = 0.0;
  double mean_throughput = 0.0;
  std::uint64_t matches = 0;
  int migrations = 0;
};

RunSummary run(bool balanced, InstanceId workers, int intervals) {
  auto feed = make_feed();
  auto logic = std::make_shared<SelfJoinLogic>(1.0, 0.005, 8192);

  // The unbalanced run is the same controller without a planner: the
  // same hash ring and statistics, but it never rebalances.
  ControllerConfig ccfg;
  ccfg.planner.theta_max = 0.10;
  ccfg.planner.max_table_entries = 0;
  ccfg.window = 3;
  auto controller = std::make_unique<Controller>(
      AssignmentFunction(ConsistentHashRing(workers), 0),
      balanced ? std::make_unique<MixedPlanner>() : nullptr, ccfg,
      feed.num_keys());
  ThreadedEngine engine(ThreadedConfig{}, logic, std::move(controller));

  RunSummary summary;
  const auto reports = engine.run(feed, intervals);
  for (const auto& r : reports) {
    summary.mean_theta += r.max_theta;
    summary.mean_throughput += r.throughput_tps;
    summary.migrations += r.migrated ? 1 : 0;
  }
  summary.mean_theta /= static_cast<double>(reports.size());
  summary.mean_throughput /= static_cast<double>(reports.size());
  engine.shutdown();
  summary.matches = engine.total_output_tuples();
  return summary;
}

}  // namespace

int main(int argc, char** argv) {
  const InstanceId workers =
      argc > 1 ? static_cast<InstanceId>(std::atoi(argv[1])) : 4;
  const int intervals = argc > 2 ? std::atoi(argv[2]) : 6;

  std::printf("running bursty stock self-join on %d workers, %d intervals\n\n",
              workers, intervals);
  const auto hash = run(/*balanced=*/false, workers, intervals);
  const auto mixed = run(/*balanced=*/true, workers, intervals);

  std::printf("%-22s %14s %14s\n", "", "hash-only", "Mixed");
  std::printf("%-22s %14.3f %14.3f\n", "mean imbalance theta", hash.mean_theta,
              mixed.mean_theta);
  std::printf("%-22s %14.1f %14.1f\n", "mean throughput (k/s)",
              hash.mean_throughput / 1000.0, mixed.mean_throughput / 1000.0);
  std::printf("%-22s %14llu %14llu\n", "join matches",
              static_cast<unsigned long long>(hash.matches),
              static_cast<unsigned long long>(mixed.matches));
  std::printf("%-22s %14d %14d\n", "migrations", hash.migrations,
              mixed.migrations);
  std::printf("\n(hash-only imbalance spikes with every burst; Mixed tracks"
              " it back under theta_max while join state follows the keys)\n");
  return 0;
}
