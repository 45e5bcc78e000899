// Quickstart: dynamic key-based load balancing in ~80 lines.
//
// Builds a word-count operator on the real threaded engine, feeds it a
// skewed Zipf stream whose distribution fluctuates, and lets the Mixed
// rebalancer keep the workers balanced. Prints per-interval imbalance and
// the migrations the controller decided.
//
//   $ ./quickstart [workers] [intervals]
#include <cstdio>
#include <cstdlib>

#include "common/log.h"
#include "core/controller.h"
#include "core/planners.h"
#include "engine/threaded_engine.h"
#include "workload/operators.h"
#include "workload/synthetic.h"

using namespace skewless;

int main(int argc, char** argv) {
  const InstanceId workers =
      argc > 1 ? static_cast<InstanceId>(std::atoi(argv[1])) : 4;
  const int intervals = argc > 2 ? std::atoi(argv[2]) : 8;
  set_log_level(LogLevel::kInfo);  // narrate the rebalance protocol

  // 1. A skewed, fluctuating workload: 50k words, Zipf z = 0.9, the
  //    distribution shifts by up to 40% of the mean load per interval.
  ZipfFluctuatingSource::Options wopts;
  wopts.num_keys = 50'000;
  wopts.skew = 0.9;
  wopts.tuples_per_interval = 200'000;
  wopts.fluctuation = 0.4;
  ZipfFluctuatingSource source(wopts);

  // 2. The rebalance controller: consistent-hash default placement plus a
  //    bounded explicit routing table, re-planned by the Mixed algorithm
  //    whenever some worker's load deviates more than 10% from the mean.
  ControllerConfig ccfg;
  ccfg.planner.theta_max = 0.10;
  ccfg.planner.max_table_entries = 2'000;  // Amax
  auto controller = std::make_unique<Controller>(
      AssignmentFunction(ConsistentHashRing(workers), 2'000),
      std::make_unique<MixedPlanner>(), ccfg, wopts.num_keys);

  // 3. The engine: one router/controller thread (this one) plus `workers`
  //    stateful worker threads running the word-count logic.
  ThreadedEngine engine(ThreadedConfig{}, std::make_shared<WordCountLogic>(),
                        std::move(controller));

  std::printf("interval  processed  throughput(k/s)  latency(ms)  theta  migrated\n");
  const auto reports = engine.run(source, intervals);
  for (const auto& r : reports) {
    std::printf("%8lld  %9llu  %15.1f  %11.2f  %5.3f  %s\n",
                static_cast<long long>(r.interval),
                static_cast<unsigned long long>(r.processed),
                r.throughput_tps / 1000.0, r.avg_latency_ms, r.max_theta,
                r.migrated
                    ? ("yes (" + std::to_string(r.moves) + " keys)").c_str()
                    : "no");
  }

  engine.shutdown();
  std::printf("\ntotal tuples processed: %llu, distinct keys with state: %zu\n",
              static_cast<unsigned long long>(engine.total_processed()),
              engine.total_state_entries());
  return 0;
}
