// micro_fault — the fault-tolerance layer's acceptance harness.
//
// Two claims are gated, both against a crash-free run of the SAME
// engine (recovery is always on):
//
//   1. ZERO DIGEST DIVERGENCE — a worker SIGKILLed at an interval
//      boundary is respawned, restored from its checkpoint and replayed
//      the open epoch's recorded batches verbatim; the run must finish
//      with the SAME plan-history digest, state checksum and processed
//      count as the crash-free run. Recovery that loses or double-counts
//      so much as one tuple fails this gate.
//   2. MTTR — time to repair (reap -> respawn -> restore -> replay,
//      NetEngine::total_recovery_ms / recoveries), median over every
//      faulted run, stays within 5x the median over the crash-free runs
//      of their mean per-boundary stall. Recovery rides the normal epoch
//      machinery; if repairing a worker costs more than a handful of
//      interval boundaries, the checkpoint/replay path has regressed into
//      a restart-the-world.
//
// The crash-free run and each kill run kRounds times, alternating, so
// host noise moves both sides of the MTTR gate alike and a single slow
// run cannot decide it; every faulted run must pass the identity gate.
//
// Output: summary on stderr, JSON on stdout (run_benches.sh redirects
// into BENCH_fault.json) with the medians and every run's values.
// Non-zero exit if any gate fails.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/stats.h"
#include "core/controller.h"
#include "core/planners.h"
#include "net/fault_injector.h"
#include "net/net_engine.h"
#include "workload/operators.h"
#include "workload/synthetic.h"

using namespace skewless;

namespace {

/// Runs of the crash-free configuration and of each kill.
constexpr int kRounds = 5;

struct Scenario {
  std::uint64_t num_keys = 200'000;
  std::uint64_t tuples_per_interval = 400'000;
  int intervals = 5;
  InstanceId workers = 4;
  std::size_t batch = 1024;
  SketchStatsConfig sketch;
};

struct RunResult {
  std::uint64_t plan_digest = 0;
  std::uint64_t state_checksum = 0;
  std::size_t state_entries = 0;
  std::uint64_t processed = 0;
  std::uint64_t recoveries = 0;
  bool degraded = false;
  double total_stall_ms = 0.0;
  double total_recovery_ms = 0.0;
  double total_wall_ms = 0.0;
};

std::unique_ptr<Controller> make_controller(const Scenario& sc) {
  ControllerConfig ccfg;
  ccfg.planner.theta_max = 0.08;
  ccfg.stats_mode = StatsMode::kSketch;
  ccfg.sketch = sc.sketch;
  return std::make_unique<Controller>(
      AssignmentFunction(ConsistentHashRing(sc.workers), 0),
      std::make_unique<MixedPlanner>(), ccfg, sc.num_keys);
}

RunResult run_one(const Scenario& sc, const FaultPlan& fault) {
  ZipfFluctuatingSource::Options opts;
  opts.num_keys = sc.num_keys;
  opts.skew = 1.2;
  opts.tuples_per_interval = sc.tuples_per_interval;
  opts.fluctuation = 0.0;
  opts.fluctuate_every = sc.intervals + 1;
  opts.seed = 0x5eed;
  ZipfFluctuatingSource source(opts);

  NetConfig cfg;
  cfg.batch_size = sc.batch;
  cfg.fault = fault;
  NetEngine engine(cfg, std::make_shared<WordCountLogic>(),
                   make_controller(sc));
  const auto reports = engine.run(source, sc.intervals, /*seed=*/1);

  RunResult res;
  for (const auto& r : reports) {
    res.total_stall_ms += r.stall_ms;
    res.total_wall_ms += r.wall_ms;
  }
  res.plan_digest = engine.controller()->plan_history_digest();
  engine.shutdown();
  if (!engine.ok()) {
    std::fprintf(stderr, "net engine failed: %s\n", engine.error().c_str());
    std::exit(1);
  }
  res.state_checksum = engine.state_checksum();
  res.state_entries = engine.total_state_entries();
  res.processed = engine.total_processed();
  res.recoveries = engine.recoveries();
  res.degraded = engine.degraded();
  res.total_recovery_ms = engine.total_recovery_ms();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Scenario sc;
  sc.sketch.epsilon = 1e-3;
  sc.sketch.delta = 0.05;
  const auto usage = [&argv] {
    std::fprintf(stderr,
                 "usage: %s [--keys N] [--tuples N] [--intervals N] "
                 "[--workers N] [--batch N]\n",
                 argv[0]);
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const auto need = [&]() -> long long {
      if (i + 1 >= argc) usage();
      return std::atoll(argv[++i]);
    };
    if (std::strcmp(argv[i], "--keys") == 0) {
      sc.num_keys = static_cast<std::uint64_t>(need());
    } else if (std::strcmp(argv[i], "--tuples") == 0) {
      sc.tuples_per_interval = static_cast<std::uint64_t>(need());
    } else if (std::strcmp(argv[i], "--intervals") == 0) {
      sc.intervals = static_cast<int>(need());
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      sc.workers = static_cast<InstanceId>(need());
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      sc.batch = static_cast<std::size_t>(need());
    } else {
      usage();
    }
  }
  if (sc.intervals < 4 || sc.workers < 2) {
    std::fprintf(stderr, "need --intervals >= 4 and --workers >= 2\n");
    return 2;
  }

  std::fprintf(stderr,
               "fault tolerance, %llu-key Zipf(1.2), %llu tuples/interval, "
               "%d intervals, %d workers\n",
               static_cast<unsigned long long>(sc.num_keys),
               static_cast<unsigned long long>(sc.tuples_per_interval),
               sc.intervals, static_cast<int>(sc.workers));

  // SIGKILL worker 1 at an early and a late boundary (separate runs):
  // the early kill replays into a still-cold state, the late one
  // restores a full checkpoint across a history of migrations.
  const std::uint64_t kill_epochs[2] = {
      2, static_cast<std::uint64_t>(sc.intervals) - 1};
  const std::uint64_t expected =
      sc.tuples_per_interval * static_cast<std::uint64_t>(sc.intervals);
  std::vector<RunResult> clean;
  std::vector<RunResult> faulted[2];
  std::vector<double> clean_stall_ms;
  std::vector<double> mttr_runs_ms[2];
  std::vector<double> all_mttr_ms;
  bool identical = true;
  bool recovered = true;
  for (int round = 0; round < kRounds; ++round) {
    std::fprintf(stderr, "round %d: crash-free run (recovery enabled)...\n",
                 round + 1);
    clean.push_back(run_one(sc, FaultPlan{}));
    const RunResult& base = clean.back();
    if (base.recoveries != 0 || base.degraded || base.processed != expected ||
        base.plan_digest != clean.front().plan_digest ||
        base.state_checksum != clean.front().state_checksum) {
      std::fprintf(stderr, "crash-free run is not clean\n");
      return 1;
    }
    clean_stall_ms.push_back(base.total_stall_ms /
                             static_cast<double>(sc.intervals));
    for (int i = 0; i < 2; ++i) {
      std::fprintf(stderr, "round %d: kill worker 1 at epoch %llu...\n",
                   round + 1, static_cast<unsigned long long>(kill_epochs[i]));
      FaultPlan plan;
      plan.events.push_back(FaultEvent{FaultKind::kKill, /*worker=*/1,
                                       kill_epochs[i], /*sticky=*/false});
      faulted[i].push_back(run_one(sc, plan));
      const RunResult& got = faulted[i].back();
      identical &= got.plan_digest == base.plan_digest &&
                   got.state_checksum == base.state_checksum &&
                   got.state_entries == base.state_entries &&
                   got.processed == base.processed;
      recovered &= got.recoveries == 1 && !got.degraded;
      const double mttr =
          got.recoveries > 0
              ? got.total_recovery_ms / static_cast<double>(got.recoveries)
              : 1e18;
      mttr_runs_ms[i].push_back(mttr);
      all_mttr_ms.push_back(mttr);
    }
  }

  const double clean_boundary_stall_ms = percentile(clean_stall_ms, 0.5);
  const double mttr_ms = percentile(all_mttr_ms, 0.5);
  // Headroom > 1 means MTTR sits under the 5x-boundary-stall gate; the
  // regression checker tracks this ratio (both sides are wall clocks on
  // the same host, so the ratio survives machine drift).
  const double mttr_headroom =
      mttr_ms > 0.0 ? (5.0 * clean_boundary_stall_ms) / mttr_ms : 1e18;

  const bool pass_identity = identical;
  const bool pass_recovered = recovered;
  const bool pass_mttr = mttr_ms <= 5.0 * clean_boundary_stall_ms;

  const RunResult& ref = clean.front();
  std::fprintf(stderr,
               "\nplan digest %016llx, state checksum %016llx, "
               "%zu state entries, %llu processed\n"
               "digest divergence across %d kills: %s\n"
               "recoveries clean (1 per kill, no degrade): %s\n"
               "median MTTR %.3f ms vs median clean boundary stall %.3f ms "
               "over %d rounds (gate mttr <= 5x stall, headroom %.2f): %s\n",
               static_cast<unsigned long long>(ref.plan_digest),
               static_cast<unsigned long long>(ref.state_checksum),
               ref.state_entries,
               static_cast<unsigned long long>(ref.processed), 2 * kRounds,
               pass_identity ? "NONE (PASS)" : "DIVERGED (FAIL)",
               pass_recovered ? "PASS" : "FAIL", mttr_ms,
               clean_boundary_stall_ms, kRounds, mttr_headroom,
               pass_mttr ? "PASS" : "FAIL");

  const auto json_list = [](const std::vector<double>& values) {
    std::string out = "[";
    char buf[32];
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.3f", i > 0 ? ", " : "", values[i]);
      out += buf;
    }
    return out + "]";
  };
  const auto kill_json = [&](int i) {
    std::string digests = "[";
    for (std::size_t r = 0; r < faulted[i].size(); ++r) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s\"%016llx\"", r > 0 ? ", " : "",
                    static_cast<unsigned long long>(faulted[i][r].plan_digest));
      digests += buf;
    }
    char head[96];
    std::snprintf(head, sizeof(head), "{\"epoch\": %llu, \"mttr_ms\": %.3f, ",
                  static_cast<unsigned long long>(kill_epochs[i]),
                  percentile(mttr_runs_ms[i], 0.5));
    return std::string(head) + "\"plan_digests\": " + digests +
           "], \"recovery_ms\": " + json_list(mttr_runs_ms[i]) + "}";
  };
  std::vector<double> clean_wall_ms;
  for (const RunResult& r : clean) clean_wall_ms.push_back(r.total_wall_ms);

  std::printf(
      "{\n"
      "  \"bench\": \"micro_fault\",\n"
      "%s"
      "  \"workload\": {\"distribution\": \"zipf\", \"skew\": 1.2, "
      "\"keys\": %llu, \"tuples_per_interval\": %llu, \"intervals\": %d, "
      "\"workers\": %d, \"batch\": %zu},\n"
      "  \"rounds\": %d,\n"
      "  \"clean\": {\"plan_digest\": \"%016llx\", "
      "\"state_checksum\": \"%016llx\", \"state_entries\": %zu, "
      "\"processed\": %llu, \"boundary_stall_ms\": %.3f, "
      "\"boundary_stall_ms_runs\": %s, \"wall_ms_runs\": %s},\n"
      "  \"kill_early\": %s,\n"
      "  \"kill_late\": %s,\n"
      "  \"mttr_ms\": %.3f,\n"
      "  \"mttr_headroom\": %.3f,\n"
      "  \"gates\": {\"zero_digest_divergence\": %s, "
      "\"single_recovery_no_degrade\": %s, "
      "\"mttr_5x_under_boundary_stall\": %s}\n"
      "}\n",
      bench::env_json().c_str(),
      static_cast<unsigned long long>(sc.num_keys),
      static_cast<unsigned long long>(sc.tuples_per_interval), sc.intervals,
      static_cast<int>(sc.workers), sc.batch, kRounds,
      static_cast<unsigned long long>(ref.plan_digest),
      static_cast<unsigned long long>(ref.state_checksum), ref.state_entries,
      static_cast<unsigned long long>(ref.processed), clean_boundary_stall_ms,
      json_list(clean_stall_ms).c_str(), json_list(clean_wall_ms).c_str(),
      kill_json(0).c_str(), kill_json(1).c_str(), mttr_ms, mttr_headroom,
      pass_identity ? "true" : "false", pass_recovered ? "true" : "false",
      pass_mttr ? "true" : "false");

  return (pass_identity && pass_recovered && pass_mttr) ? 0 : 1;
}
