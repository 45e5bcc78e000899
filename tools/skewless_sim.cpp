// skewless_sim — command-line driver for the simulation engine.
//
// Runs any workload/strategy combination and prints per-interval CSV, so
// new scenarios can be explored without writing code:
//
//   skewless_sim --workload zipf --planner mixed --keys 50000 --instances 10 --theta 0.08 --intervals 30
//
// Strategies: mixed | mintable | minmig | mixedbf | compact | readj |
//             dkg | hash | shuffle | pkg
// Workloads:  zipf (Table II generator) | social | stock |
//             adversarial (--attack rotating|skew-flip|pareto|churn|collision)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baselines/dkg.h"
#include "baselines/readj.h"
#include "common/cpu_topology.h"
#include "core/compact.h"
#include "core/controller.h"
#include "core/planners.h"
#include "engine/sim_engine.h"
#include "engine/threaded_engine.h"
#include "net/net_engine.h"
#include "workload/adversarial.h"
#include "workload/operators.h"
#include "workload/social.h"
#include "workload/stock.h"
#include "workload/synthetic.h"

using namespace skewless;

namespace {

struct Args {
  std::string workload = "zipf";
  std::string planner = "mixed";
  std::uint64_t keys = 50'000;
  InstanceId instances = 10;
  double theta = 0.08;
  int intervals = 20;
  double skew = 0.85;
  double fluctuation = 1.0;
  int fluctuate_every = 1;
  std::size_t amax = 0;
  int window = 1;
  std::uint64_t tuples = 1'000'000;
  Cost tuple_cost_us = 4.0;
  std::uint64_t seed = 7;
  StatsMode stats_mode = StatsMode::kExact;
  SketchStatsConfig sketch = {};
  /// Adversarial workload: which attack pattern to run.
  std::string attack = "rotating";
  int rotation_period = 3;
  /// "sim" = deterministic simulation engine; "threaded" = real worker
  /// threads (one per instance) over bounded queues; "net" = forked
  /// worker processes over loopback sockets (framed wire protocol).
  std::string engine = "sim";
  std::size_t batch = 256;
  /// Net engine: worker process count override (0 = --instances).
  InstanceId workers_proc = 0;
  /// Net engine: deterministic fault schedule, e.g.
  /// "kill:w=1,epoch=3;wedge:w=0,epoch=5,sticky" (empty = none).
  std::string fault;
  /// Net engine: control receive deadline / channel I/O timeout.
  int net_timeout_ms = 30'000;
  /// Threaded engine only: pin worker w to core w mod hw_concurrency
  /// (pthread_setaffinity_np where available) so each worker's slab
  /// pair stays resident in its owner's private L2.
  bool pin = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--workload zipf|social|stock|adversarial] [--planner NAME]\n"
      "          [--keys N] [--instances N] [--theta X] [--intervals N]\n"
      "          [--skew Z] [--fluctuation F] [--fluctuate-every N]\n"
      "          [--amax N] [--window W] [--tuples N] [--cost US]\n"
      "          [--seed N] [--stats exact|sketch] [--sketch-eps X]\n"
      "          [--sketch-delta X] [--heavy N]\n"
      "          [--no-decay] [--decay-beta B] [--demote-fraction X]\n"
      "          [--attack rotating|skew-flip|pareto|churn|collision]\n"
      "          [--rotation-period N]\n"
      "          [--engine sim|threaded|net] [--batch N] [--pin]\n"
      "          [--workers-proc N]\n"
      "          [--fault SPEC] [--net-timeout-ms N]\n"
      "fault spec: kind:w=W,epoch=E[,sticky][;...] with kind one of\n"
      "          kill|wedge|garble|drop (net engine only)\n"
      "planners: mixed mintable minmig mixedbf compact readj dkg\n"
      "          hash shuffle pkg (shuffle/pkg: sim engine only)\n",
      argv0);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = need_value();
    } else if (flag == "--planner") {
      args.planner = need_value();
    } else if (flag == "--keys") {
      args.keys = std::strtoull(need_value(), nullptr, 10);
    } else if (flag == "--instances") {
      args.instances = std::atoi(need_value());
    } else if (flag == "--theta") {
      args.theta = std::atof(need_value());
    } else if (flag == "--intervals") {
      args.intervals = std::atoi(need_value());
    } else if (flag == "--skew") {
      args.skew = std::atof(need_value());
    } else if (flag == "--fluctuation") {
      args.fluctuation = std::atof(need_value());
    } else if (flag == "--fluctuate-every") {
      args.fluctuate_every = std::atoi(need_value());
    } else if (flag == "--amax") {
      args.amax = std::strtoull(need_value(), nullptr, 10);
    } else if (flag == "--window") {
      args.window = std::atoi(need_value());
    } else if (flag == "--tuples") {
      args.tuples = std::strtoull(need_value(), nullptr, 10);
    } else if (flag == "--cost") {
      args.tuple_cost_us = std::atof(need_value());
    } else if (flag == "--seed") {
      args.seed = std::strtoull(need_value(), nullptr, 10);
    } else if (flag == "--stats") {
      const std::string mode = need_value();
      if (mode == "exact") {
        args.stats_mode = StatsMode::kExact;
      } else if (mode == "sketch") {
        args.stats_mode = StatsMode::kSketch;
      } else {
        std::fprintf(stderr, "unknown stats mode: %s\n", mode.c_str());
        usage(argv[0]);
      }
    } else if (flag == "--sketch-eps") {
      args.sketch.epsilon = std::atof(need_value());
    } else if (flag == "--sketch-delta") {
      args.sketch.delta = std::atof(need_value());
    } else if (flag == "--heavy") {
      args.sketch.heavy_capacity = std::strtoull(need_value(), nullptr, 10);
    } else if (flag == "--no-decay") {
      args.sketch.decay = false;
    } else if (flag == "--decay-beta") {
      args.sketch.decay_beta = std::atof(need_value());
    } else if (flag == "--demote-fraction") {
      args.sketch.demote_fraction = std::atof(need_value());
    } else if (flag == "--attack") {
      args.attack = need_value();
      if (!parse_attack(args.attack)) {
        std::fprintf(stderr, "unknown attack: %s\n", args.attack.c_str());
        usage(argv[0]);
      }
    } else if (flag == "--rotation-period") {
      args.rotation_period = std::atoi(need_value());
    } else if (flag == "--engine") {
      args.engine = need_value();
      if (args.engine != "sim" && args.engine != "threaded" &&
          args.engine != "net") {
        std::fprintf(stderr, "unknown engine: %s\n", args.engine.c_str());
        usage(argv[0]);
      }
    } else if (flag == "--workers-proc") {
      args.workers_proc = std::atoi(need_value());
      if (args.workers_proc < 1) usage(argv[0]);
    } else if (flag == "--fault") {
      args.fault = need_value();
    } else if (flag == "--net-timeout-ms") {
      args.net_timeout_ms = std::atoi(need_value());
      if (args.net_timeout_ms < 1) usage(argv[0]);
    } else if (flag == "--batch") {
      args.batch = std::strtoull(need_value(), nullptr, 10);
    } else if (flag == "--pin") {
      args.pin = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      usage(argv[0]);
    }
  }
  if (args.instances < 1 || args.intervals < 1 || args.keys < 1 ||
      args.window < 1 || args.batch < 1) {
    usage(argv[0]);
  }
  // !(x >= 0) also rejects NaN, which every ordered comparison fails.
  // --theta inf stays valid: it means "never rebalance".
  if (!(std::isfinite(args.tuple_cost_us) && args.tuple_cost_us >= 0.0) ||
      !(args.theta >= 0.0)) {
    std::fprintf(stderr,
                 "invalid --cost/--theta: need a finite --cost >= 0 and "
                 "--theta >= 0 (inf: never rebalance)\n");
    usage(argv[0]);
  }
  if (!(args.skew >= 0.0) || !(args.fluctuation >= 0.0) ||
      args.fluctuate_every < 1) {
    std::fprintf(stderr,
                 "invalid workload shape: need --skew >= 0, --fluctuation "
                 ">= 0 and --fluctuate-every >= 1\n");
    usage(argv[0]);
  }
  // Written as !(in range) so NaN, which fails every comparison, is out
  // of range too.
  if (args.sketch.heavy_capacity < 1 ||
      !(args.sketch.epsilon > 0.0 && args.sketch.epsilon < 1.0) ||
      !(args.sketch.delta > 0.0 && args.sketch.delta < 1.0)) {
    std::fprintf(stderr,
                 "invalid sketch tuning: need --heavy >= 1 and "
                 "--sketch-eps/--sketch-delta in (0, 1)\n");
    usage(argv[0]);
  }
  if (args.workload == "adversarial") {
    // The attack's reserved key ranges must fit the domain: the rotating
    // attack's hot groups, the churn flood's active window.
    const AdversarialSource::Options defaults;
    const AttackKind attack = *parse_attack(args.attack);
    std::uint64_t reserved = 1;
    if (attack == AttackKind::kRotatingHotSet) {
      reserved = static_cast<std::uint64_t>(defaults.hot_groups) *
                 defaults.hot_keys_per_group;
    } else if (attack == AttackKind::kKeyChurnFlood) {
      reserved = defaults.churn_active;
    }
    if (args.keys < reserved) {
      std::fprintf(stderr, "--attack %s needs --keys >= %llu\n",
                   args.attack.c_str(),
                   static_cast<unsigned long long>(reserved));
      usage(argv[0]);
    }
  }
  if (args.rotation_period < 1 ||
      (args.sketch.decay &&
       !(args.sketch.decay_beta > 0.0 && args.sketch.decay_beta < 1.0)) ||
      !(args.sketch.demote_fraction >= 0.0 &&
        args.sketch.demote_fraction < 1.0)) {
    std::fprintf(stderr,
                 "invalid decay/attack tuning: need --rotation-period >= 1, "
                 "--decay-beta in (0, 1), --demote-fraction in [0, 1)\n");
    usage(argv[0]);
  }
  return args;
}

std::unique_ptr<WorkloadSource> make_source(const Args& args) {
  if (args.workload == "zipf") {
    ZipfFluctuatingSource::Options opts;
    opts.num_keys = args.keys;
    opts.skew = args.skew;
    opts.tuples_per_interval = args.tuples;
    opts.fluctuation = args.fluctuation;
    opts.fluctuate_every = args.fluctuate_every;
    opts.reference_instances = args.instances;
    opts.seed = args.seed;
    return std::make_unique<ZipfFluctuatingSource>(opts);
  }
  if (args.workload == "social") {
    SocialSource::Options opts;
    opts.num_words = args.keys;
    opts.skew = args.skew;
    opts.tuples_per_interval = args.tuples;
    opts.seed = args.seed;
    return std::make_unique<SocialSource>(opts);
  }
  if (args.workload == "stock") {
    StockSource::Options opts;
    opts.num_symbols = args.keys;
    opts.base_skew = args.skew;
    opts.tuples_per_interval = args.tuples;
    opts.seed = args.seed;
    return std::make_unique<StockSource>(opts);
  }
  if (args.workload == "adversarial") {
    AdversarialSource::Options opts;
    opts.attack = *parse_attack(args.attack);
    opts.num_keys = args.keys;
    opts.tuples_per_interval = args.tuples;
    opts.seed = args.seed;
    opts.rotation_period = args.rotation_period;
    // The collision attack engineers keys against the run's own sketch
    // family; with the fine default ε the bounded scan finds few full
    // collisions (see adversarial.cpp) — pass a coarse --sketch-eps to
    // make it bite.
    opts.sketch = args.sketch;
    return std::make_unique<AdversarialSource>(opts);
  }
  std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
  std::exit(2);
}

PlannerPtr make_planner(const std::string& name) {
  if (name == "mixed") return std::make_unique<MixedPlanner>();
  if (name == "mintable") return std::make_unique<MinTablePlanner>();
  if (name == "minmig") return std::make_unique<MinMigPlanner>();
  if (name == "mixedbf") return std::make_unique<MixedBfPlanner>(128);
  if (name == "compact") return std::make_unique<CompactMixedPlanner>(3);
  if (name == "readj") return std::make_unique<ReadjPlanner>();
  if (name == "dkg") return std::make_unique<DkgPlanner>();
  return nullptr;
}

ControllerConfig controller_config(const Args& args) {
  ControllerConfig ccfg;
  ccfg.planner.theta_max = args.theta;
  ccfg.planner.max_table_entries = args.amax;
  ccfg.window = args.window;
  ccfg.stats_mode = args.stats_mode;
  ccfg.sketch = args.sketch;
  return ccfg;
}

/// Per-interval CSV shared by the threaded and net runs. `pinned` is the
/// number of workers whose core pin took effect — constant per run,
/// carried per row so downstream CSV tooling keeps one schema. The net
/// run adds the wire-byte columns only sockets have; roll_ms is always
/// last.
void print_interval_csv(const std::vector<IntervalReport>& reports,
                        int pinned, bool wire) {
  std::printf(
      "interval,throughput_tps,latency_ms,max_theta,migrated,moves,"
      "migration_bytes,gen_ms,stall_ms,merge_ms,stats_memory_bytes,pinned"
      "%s,roll_ms\n",
      wire ? ",data_wire_bytes,ctrl_wire_bytes" : "");
  for (const auto& r : reports) {
    std::printf("%lld,%.0f,%.3f,%.4f,%d,%zu,%.0f,%.2f,%.3f,%.3f,%zu,%d",
                static_cast<long long>(r.interval), r.throughput_tps,
                r.avg_latency_ms, r.max_theta, r.migrated ? 1 : 0, r.moves,
                r.migration_bytes,
                static_cast<double>(r.generation_micros) / 1000.0,
                r.stall_ms, r.merge_ms, r.stats_memory_bytes, pinned);
    if (wire) {
      std::printf(",%llu,%llu",
                  static_cast<unsigned long long>(r.data_wire_bytes),
                  static_cast<unsigned long long>(r.ctrl_wire_bytes));
    }
    std::printf(",%.3f\n", r.roll_ms);
  }
}

/// Real-thread run: one worker per instance, WordCount operator state.
int run_threaded(const Args& args, char* argv0) {
  auto source = make_source(args);
  const std::size_t num_keys = source->num_keys();

  ThreadedConfig tcfg;
  tcfg.batch_size = args.batch;
  tcfg.pin_workers = args.pin;

  // "hash" is the no-rebalance baseline: a controller without a planner,
  // on a ring seeded by --seed.
  const bool hash_only = args.planner == "hash";
  if (args.planner == "shuffle" || args.planner == "pkg") {
    std::fprintf(stderr, "planner %s needs the sim engine (keyless routing)\n",
                 args.planner.c_str());
    usage(argv0);
  }
  PlannerPtr planner = make_planner(args.planner);
  if (planner == nullptr && !hash_only) {
    std::fprintf(stderr, "unknown planner: %s\n", args.planner.c_str());
    usage(argv0);
  }
  ConsistentHashRing ring =
      hash_only ? ConsistentHashRing(args.instances, 128, args.seed)
                : ConsistentHashRing(args.instances);
  auto controller = std::make_unique<Controller>(
      AssignmentFunction(std::move(ring), args.amax), std::move(planner),
      controller_config(args), num_keys);
  // WordCount state with the requested per-tuple cost, so --cost means
  // the same thing it does on the sim engine.
  ThreadedEngine engine(tcfg,
                        std::make_shared<WordCountLogic>(args.tuple_cost_us),
                        std::move(controller));

  const auto reports = engine.run(*source, args.intervals, args.seed);
  print_interval_csv(reports, static_cast<int>(engine.pinned_workers()),
                     /*wire=*/false);
  const Controller& ctrl = *engine.controller();
  double stall_total = 0.0;
  double merge_total = 0.0;
  double roll_total = 0.0;
  for (const auto& r : reports) {
    stall_total += r.stall_ms;
    merge_total += r.merge_ms;
    roll_total += r.roll_ms;
  }
  engine.shutdown();
  const CpuTopology& topo = cpu_topology();
  std::fprintf(stderr,
               "# engine=threaded stats=%s stats_memory_bytes=%zu "
               "pinned=%d cores=%u smt_threads=%u "
               "total_stall_ms=%.3f total_merge_ms=%.3f total_roll_ms=%.3f\n",
               args.stats_mode == StatsMode::kSketch ? "sketch" : "exact",
               reports.empty() ? 0 : reports.back().stats_memory_bytes,
               static_cast<int>(engine.pinned_workers()), topo.physical_cores,
               topo.smt ? topo.hardware_threads - topo.physical_cores : 0,
               stall_total, merge_total, roll_total);
  std::fprintf(stderr,
               "# rebalances=%zu total_generation_micros=%lld "
               "total_migrated_bytes=%.0f controller_merge_ms=%.3f "
               "controller_stall_ms=%.3f promotions=%llu demotions=%llu\n",
               ctrl.rebalance_count(),
               static_cast<long long>(ctrl.total_generation_micros()),
               ctrl.total_migrated_bytes(), ctrl.total_merge_ms(),
               ctrl.total_stall_ms(),
               static_cast<unsigned long long>(ctrl.heavy_promotions()),
               static_cast<unsigned long long>(ctrl.heavy_demotions()));
  return 0;
}

/// Multi-process run: N forked workers over loopback sockets (pinned is
/// always 0 — processes are not pinned).
int run_net(const Args& args, char* argv0) {
  if (args.stats_mode != StatsMode::kSketch) {
    std::fprintf(stderr,
                 "--engine net needs --stats sketch (the boundary summary "
                 "is the serialized sketch slab)\n");
    usage(argv0);
  }
  if (args.planner == "hash" || args.planner == "shuffle" ||
      args.planner == "pkg") {
    std::fprintf(stderr,
                 "--engine net needs a controller planner (%s is keyless "
                 "or controller-free)\n",
                 args.planner.c_str());
    usage(argv0);
  }
  auto planner = make_planner(args.planner);
  if (planner == nullptr) {
    std::fprintf(stderr, "unknown planner: %s\n", args.planner.c_str());
    usage(argv0);
  }
  auto source = make_source(args);
  const std::size_t num_keys = source->num_keys();
  const InstanceId workers =
      args.workers_proc > 0 ? args.workers_proc : args.instances;

  auto controller = std::make_unique<Controller>(
      AssignmentFunction(ConsistentHashRing(workers), args.amax),
      std::move(planner), controller_config(args), num_keys);

  NetConfig ncfg;
  ncfg.batch_size = args.batch;
  ncfg.ctrl_timeout_ms = args.net_timeout_ms;
  if (!args.fault.empty()) {
    std::string err;
    if (!parse_fault_plan(args.fault, ncfg.fault, err)) {
      std::fprintf(stderr, "bad --fault spec: %s\n", err.c_str());
      usage(argv0);
    }
    for (const FaultEvent& ev : ncfg.fault.events) {
      if (ev.worker >= static_cast<std::uint32_t>(workers)) {
        std::fprintf(stderr,
                     "bad --fault spec: worker %u does not exist (the run "
                     "has %d workers)\n",
                     static_cast<unsigned>(ev.worker), workers);
        usage(argv0);
      }
    }
  }
  auto logic = std::make_shared<WordCountLogic>(args.tuple_cost_us);
  NetEngine engine(ncfg, logic, std::move(controller));

  const auto reports = engine.run(*source, args.intervals, args.seed);
  print_interval_csv(reports, /*pinned=*/0, /*wire=*/true);
  const auto* ctrl = engine.controller();
  double stall_total = 0.0;
  double merge_total = 0.0;
  double roll_total = 0.0;
  std::uint64_t wire_total = 0;
  for (const auto& r : reports) {
    stall_total += r.stall_ms;
    merge_total += r.merge_ms;
    roll_total += r.roll_ms;
    wire_total += r.data_wire_bytes + r.ctrl_wire_bytes;
  }
  engine.shutdown();
  if (!engine.ok()) {
    std::fprintf(stderr, "net engine failed: %s\n", engine.error().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "# engine=net workers=%d stats=sketch stats_memory_bytes=%zu "
               "total_stall_ms=%.3f total_merge_ms=%.3f "
               "wire_bytes=%llu state_checksum=%016llx state_entries=%zu "
               "recoveries=%llu degraded=%d recovery_ms=%.3f "
               "live_workers=%zu total_roll_ms=%.3f\n",
               static_cast<int>(workers),
               reports.empty() ? 0 : reports.back().stats_memory_bytes,
               stall_total, merge_total,
               static_cast<unsigned long long>(wire_total),
               static_cast<unsigned long long>(engine.state_checksum()),
               engine.total_state_entries(),
               static_cast<unsigned long long>(engine.recoveries()),
               engine.degraded() ? 1 : 0, engine.total_recovery_ms(),
               engine.live_workers(), roll_total);
  if (ctrl != nullptr) {
    std::fprintf(stderr,
                 "# rebalances=%zu total_generation_micros=%lld "
                 "total_migrated_bytes=%.0f plan_digest=%016llx "
                 "promotions=%llu demotions=%llu\n",
                 ctrl->rebalance_count(),
                 static_cast<long long>(ctrl->total_generation_micros()),
                 ctrl->total_migrated_bytes(),
                 static_cast<unsigned long long>(ctrl->plan_history_digest()),
                 static_cast<unsigned long long>(ctrl->heavy_promotions()),
                 static_cast<unsigned long long>(ctrl->heavy_demotions()));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.engine == "threaded") return run_threaded(args, argv[0]);
  if (args.engine == "net") return run_net(args, argv[0]);
  // hash, shuffle and pkg run a planner-less controller: the "Storm"
  // ring for hash, only the statistics store for shuffle and pkg.
  RoutingMode mode = RoutingMode::kKeyed;
  if (args.planner == "shuffle") mode = RoutingMode::kShuffle;
  if (args.planner == "pkg") mode = RoutingMode::kPkg;
  auto source = make_source(args);
  const std::size_t num_keys = source->num_keys();
  PlannerPtr planner = make_planner(args.planner);
  if (planner == nullptr && mode == RoutingMode::kKeyed &&
      args.planner != "hash") {
    std::fprintf(stderr, "unknown planner: %s\n", args.planner.c_str());
    usage(argv[0]);
  }
  SimEngine engine(
      SimConfig{},
      std::make_unique<UniformCostOperator>(args.tuple_cost_us, 8.0),
      std::move(source),
      std::make_unique<Controller>(
          AssignmentFunction(ConsistentHashRing(args.instances), args.amax),
          std::move(planner), controller_config(args), num_keys),
      mode);

  std::printf(
      "interval,throughput_tps,latency_ms,max_theta,skewness,migrated,"
      "moves,migration_pct,table_size,gen_ms\n");
  for (int i = 0; i < args.intervals; ++i) {
    const auto m = engine.step();
    std::printf("%d,%.0f,%.3f,%.4f,%.4f,%d,%zu,%.2f,%zu,%.2f\n", i,
                m.throughput_tps, m.avg_latency_ms, m.max_theta,
                load_skewness(m), m.migrated ? 1 : 0, m.moves,
                m.migration_pct, m.table_size,
                static_cast<double>(m.generation_micros) / 1000.0);
  }
  // Stats-memory and planning-time summary on stderr so the CSV on
  // stdout stays parseable. Per-rebalance planning time is the gen_ms
  // CSV column; the cumulative figure is the paper's "generation time"
  // trajectory number.
  const Controller& ctrl = *engine.controller();
  std::fprintf(stderr, "# stats=%s stats_memory_bytes=%zu\n",
               args.stats_mode == StatsMode::kSketch ? "sketch" : "exact",
               ctrl.stats_memory_bytes());
  if (ctrl.has_planner()) {
    std::fprintf(stderr,
                 "# rebalances=%zu total_generation_micros=%lld "
                 "total_migrated_bytes=%.0f promotions=%llu demotions=%llu\n",
                 ctrl.rebalance_count(),
                 static_cast<long long>(ctrl.total_generation_micros()),
                 ctrl.total_migrated_bytes(),
                 static_cast<unsigned long long>(ctrl.heavy_promotions()),
                 static_cast<unsigned long long>(ctrl.heavy_demotions()));
  }
  return 0;
}
