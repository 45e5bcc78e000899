// perfbench_driver — one run of one benchmark workload.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out FILE]
//
// A closed loop from this one process: the driver generates an interval's
// tuples (untimed), hands them to the engine's public per-interval API
// (ThreadedEngine::run_interval / NetEngine::run_interval), and only
// generates the next interval after the call returns, so engine
// backpressure paces it and no generation runs inside a timed region.
// Three workers plus the driver fill a 4-thread host; the threaded
// engine's merge thread runs only while the driver waits at a boundary.
//
// Each engine the run builds is shut down and checked against a
// reference computed from the generated stream alone: processed ==
// emitted, state_checksum() and total_state_entries().
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced (forwarding Planner and operator decorators,
// in-memory spans written to --trace-out at the end) and prints the
// per-layer metrics. The last stdout line is the result JSON; the line
// before it is a {"detail": ...} record of the run's configuration,
// thread budget and deterministic fingerprints.
#include <dirent.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_logic.h"
#include "common/clock.h"
#include "common/cpu_topology.h"
#include "common/log.h"
#include "core/controller.h"
#include "core/planners.h"
#include "engine/threaded_engine.h"
#include "net/net_engine.h"
#include "sketch/simd/sketch_kernels.h"
#include "stream.h"
#include "trace.h"

namespace perfbench {
namespace {

using skewless::Controller;
using skewless::InstanceId;

// The benchmark's fixed configuration.
/// Three workers plus the driver fill a 4-CPU host (see the thread budget
/// check in run()).
constexpr InstanceId kWorkers = 3;
constexpr int kWarmupIntervals = 3;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Operator CPU work per tuple. At 300 rounds a worker spends about 1.5 us
/// per tuple in process(), so the three together take about a quarter of
/// the rate at which the driver routes (about 8M tuples/s with no rounds):
/// the workers are the bottleneck and their queues stay full.
constexpr int kMixRounds = 300;
constexpr std::size_t kWindowTuples = 64;
constexpr StreamShape kShape{};
/// Timed intervals per second of --seconds: a fixed count for a given
/// --seconds, so the deterministic metrics repeat exactly, and the same
/// count on every workload, so zipf-net's plans can equal zipf-threaded's.
constexpr double kIntervalsPerSecond = 5.0;

const WorkloadSpec kWorkloads[] = {
    {"zipf-threaded", /*net=*/false, 0.0, 1},
    {"zipf-net", /*net=*/true, 0.0, 1},
    {"shift-threaded", /*net=*/false, 0.5, 3},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

/// One run_interval call, engine-agnostic.
struct Sample {
  std::uint64_t emitted = 0;
  std::uint64_t processed = 0;
  double call_ms = 0.0;  // wall time of the whole call, measured here
  double wall_ms = 0.0;  // the engine's own report fields from here on
  double stall_ms = 0.0;
  double merge_ms = 0.0;
  double latency_ms = 0.0;
  double theta = 0.0;
  std::size_t moves = 0;
  double migration_wire_bytes = 0.0;
  std::size_t stats_memory_bytes = 0;
  std::uint64_t data_wire_bytes = 0;
  std::uint64_t ctrl_wire_bytes = 0;
};

template <typename Report>
Sample to_sample(const Report& r, double call_ms) {
  Sample s;
  s.emitted = r.emitted;
  s.processed = r.processed;
  s.call_ms = call_ms;
  s.wall_ms = r.wall_ms;
  s.stall_ms = r.stall_ms;
  s.merge_ms = r.merge_ms;
  s.latency_ms = r.avg_latency_ms;
  s.theta = r.max_theta;
  s.moves = r.moves;
  s.migration_wire_bytes = r.migration_wire_bytes;
  s.stats_memory_bytes = r.stats_memory_bytes;
  if constexpr (std::is_same_v<Report, skewless::NetIntervalReport>) {
    s.data_wire_bytes = r.data_wire_bytes;
    s.ctrl_wire_bytes = r.ctrl_wire_bytes;
  }
  return s;
}

/// The threaded or the net engine behind one interface.
class Engine {
 public:
  Engine(const WorkloadSpec& spec, std::shared_ptr<skewless::OperatorLogic> logic,
         std::unique_ptr<Controller> controller) {
    if (spec.net) {
      net_ = std::make_unique<skewless::NetEngine>(
          skewless::NetConfig{}, std::move(logic), std::move(controller));
    } else {
      skewless::ThreadedConfig cfg;
      cfg.num_workers = kWorkers;
      cfg.stats_mode = skewless::StatsMode::kSketch;
      cfg.pin_workers = true;
      threaded_ = std::make_unique<skewless::ThreadedEngine>(
          cfg, std::move(logic), std::move(controller));
    }
  }

  /// Workers whose CPU pin took effect: the threaded engine pins its
  /// threads itself; the net engine's worker processes are pinned here.
  [[nodiscard]] int pin_workers();

  Sample run_interval(const std::vector<Tuple>& tuples) {
    skewless::WallTimer timer;
    if (net_) {
      const auto r = net_->run_interval(tuples);
      return to_sample(r, timer.elapsed_millis());
    }
    const auto r = threaded_->run_interval(tuples);
    return to_sample(r, timer.elapsed_millis());
  }

  Controller& controller() {
    return net_ ? *net_->controller() : *threaded_->controller();
  }
  void shutdown() { net_ ? net_->shutdown() : threaded_->shutdown(); }
  [[nodiscard]] bool ok() const { return !net_ || net_->ok(); }
  [[nodiscard]] std::string error() const {
    return net_ ? net_->error() : std::string();
  }
  [[nodiscard]] std::uint64_t state_checksum() const {
    return net_ ? net_->state_checksum() : threaded_->state_checksum();
  }
  [[nodiscard]] std::size_t state_entries() const {
    return net_ ? net_->total_state_entries()
                : threaded_->total_state_entries();
  }
  [[nodiscard]] std::uint64_t emitted() const {
    return net_ ? net_->total_emitted() : threaded_->total_emitted();
  }
  [[nodiscard]] std::uint64_t processed() const {
    return net_ ? net_->total_processed() : threaded_->total_processed();
  }
  [[nodiscard]] std::uint64_t recoveries() const {
    return net_ ? net_->recoveries() : 0;
  }
  [[nodiscard]] std::size_t checkpoint_bytes() const {
    if (!net_) return 0;
    std::size_t total = 0;
    for (InstanceId w = 0; w < net_->num_workers(); ++w) {
      total += net_->checkpoint_ring(static_cast<std::size_t>(w)).memory_bytes();
    }
    return total;
  }

 private:
  std::unique_ptr<skewless::ThreadedEngine> threaded_;
  std::unique_ptr<skewless::NetEngine> net_;
};

std::unique_ptr<Controller> make_controller(Trace* trace) {
  skewless::ControllerConfig cfg;
  cfg.planner.theta_max = 0.08;
  cfg.stats_mode = skewless::StatsMode::kSketch;
  skewless::PlannerPtr planner = std::make_unique<skewless::MixedPlanner>();
  if (trace != nullptr) {
    planner = std::make_unique<TracedPlanner>(std::move(planner), *trace);
  }
  return std::make_unique<Controller>(
      skewless::AssignmentFunction(skewless::ConsistentHashRing(kWorkers), 0),
      std::move(planner), cfg, kShape.num_keys);
}

// ---------------------------------------------------------------- memory

/// VmHWM of `pid` ("self" for this process) in KiB, 0 if unreadable.
double vm_hwm_kib(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6);
  }
  return 0.0;
}

std::vector<pid_t> child_pids() {
  std::vector<pid_t> out;
  const long self = static_cast<long>(::getpid());
  DIR* dir = ::opendir("/proc");
  if (dir == nullptr) return out;
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    std::ifstream in(std::string("/proc/") + e->d_name + "/stat");
    std::string stat;
    std::getline(in, stat);
    // Fields after the parenthesised command: state, then ppid.
    const auto close = stat.rfind(')');
    if (close == std::string::npos) continue;
    char state = 0;
    long ppid = 0;
    if (std::sscanf(stat.c_str() + close + 1, " %c %ld", &state, &ppid) == 2 &&
        ppid == self) {
      out.push_back(static_cast<pid_t>(std::atol(e->d_name)));
    }
  }
  ::closedir(dir);
  return out;
}

/// Peak RSS of this process plus every live child (the net workers).
double peak_rss_mb() {
  double kib = vm_hwm_kib("self");
  for (const pid_t pid : child_pids()) kib += vm_hwm_kib(std::to_string(pid));
  return kib * 1024.0 / 1e6;
}

// ------------------------------------------------------------- pinning

/// Pins process/thread `pid` (0 = the calling thread) to the `slot`-th CPU
/// of the topology-aware pin order the threaded engine also uses.
bool pin_to_slot(pid_t pid, unsigned slot) {
  const auto& order = skewless::cpu_topology().pin_order;
  if (order.empty()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(order[slot % order.size()], &set);
  return ::sched_setaffinity(pid, sizeof(set), &set) == 0;
}

/// The affinity the process started with; captured on first call.
const cpu_set_t& start_affinity() {
  static const cpu_set_t mask = [] {
    cpu_set_t m;
    CPU_ZERO(&m);
    if (::sched_getaffinity(0, sizeof(m), &m) != 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) CPU_SET(c, &m);
    }
    return m;
  }();
  return mask;
}

int Engine::pin_workers() {
  if (threaded_) return static_cast<int>(threaded_->pinned_workers());
  // Each worker process gets its own CPU; which one does not matter.
  const std::vector<pid_t> pids = child_pids();
  int pinned = 0;
  for (std::size_t w = 0; w < pids.size(); ++w) {
    if (pin_to_slot(pids[w], static_cast<unsigned>(w))) ++pinned;
  }
  return pinned;
}

// ------------------------------------------------------------- the run

struct Check {
  std::uint64_t attempted = 0;  // tuples emitted by every engine built
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
};

/// Shuts `engine` down and checks it against `stream`'s reference.
void finish_and_check(Engine& engine, const Stream& stream, Check& check) {
  engine.shutdown();
  const std::uint64_t emitted = engine.emitted();
  check.attempted += emitted;
  std::string why;
  if (!engine.ok()) {
    why = "engine failed: " + engine.error();
  } else if (engine.recoveries() != 0) {
    why = "worker recoveries: " + std::to_string(engine.recoveries());
  } else if (engine.processed() != emitted) {
    why = "processed " + std::to_string(engine.processed()) + " != emitted " +
          std::to_string(emitted);
  } else if (engine.state_checksum() != stream.expected_checksum()) {
    why = "state checksum differs from the reference";
  } else if (engine.state_entries() != stream.expected_entries()) {
    why = "state entries " + std::to_string(engine.state_entries()) +
          " != reference " + std::to_string(stream.expected_entries());
  }
  if (!why.empty()) {
    check.failed += emitted;
    check.failures.push_back(why);
  }
}

struct Pass {
  int pinned_workers = 0;
  std::vector<double> setup_s;
  std::vector<Sample> warmup;
  std::vector<Sample> timed;
  std::vector<double> generate_ms;  // timed intervals only
  double peak_rss_mb = 0.0;
  double migrated_mb = 0.0;
  std::size_t table_entries = 0;
  std::size_t rebalances = 0;
  std::uint64_t plan_digest = 0;
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  std::size_t controller_stats_bytes = 0;
  std::size_t checkpoint_bytes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t state_checksum = 0;
};

int timed_intervals(const Options& opts) {
  return std::max(
      1, static_cast<int>(std::lround(opts.seconds * kIntervalsPerSecond)));
}

/// Builds the engine `setup_reps` times (each set-up: engine, stream,
/// warm-up intervals), checks and discards all but the last, then runs
/// the timed intervals on the last one. With `trace` set, the controller
/// plans through a TracedPlanner, the operator through ProfiledLogic
/// (counting into `profile`, reset before the timed intervals), and each
/// timed interval records generate/interval spans.
Pass run_pass(const WorkloadSpec& spec, const Options& opts, int setup_reps,
              Trace* trace, OperatorProfile* profile, Check& check) {
  std::shared_ptr<skewless::OperatorLogic> logic =
      std::make_shared<BenchLogic>(kMixRounds, kWindowTuples);
  if (profile != nullptr) {
    logic = std::make_shared<ProfiledLogic>(std::move(logic), *profile);
  }
  Pass pass;
  for (int rep = 0; rep < setup_reps; ++rep) {
    pass.warmup.clear();
    skewless::WallTimer timer;
    // The engine forks before the stream exists, so the net workers do
    // not inherit the generator's buffers.
    // Workers start from the full CPU set; once they are pinned to slots
    // 0..kWorkers-1, the driver takes the next slot.
    ::sched_setaffinity(0, sizeof(cpu_set_t), &start_affinity());
    Engine engine(spec, logic, make_controller(trace));
    pass.pinned_workers = engine.pin_workers();
    pin_to_slot(0, static_cast<unsigned>(kWorkers));
    Stream stream(spec, kShape, opts.seed);
    double setup_ms = timer.elapsed_millis();
    for (int i = 0; i < kWarmupIntervals; ++i) {
      const auto& tuples = stream.next();
      pass.warmup.push_back(engine.run_interval(tuples));
      setup_ms += pass.warmup.back().call_ms;
    }
    pass.setup_s.push_back(setup_ms / 1000.0);
    if (rep + 1 < setup_reps) {
      finish_and_check(engine, stream, check);
      continue;
    }

    if (profile != nullptr) profile->reset();
    const int n = timed_intervals(opts);
    for (int i = 0; i < n; ++i) {
      skewless::WallTimer gen;
      const std::int64_t gspan = trace ? trace->open("generate") : -1;
      const auto& tuples = stream.next();
      if (trace) trace->close(gspan);
      pass.generate_ms.push_back(gen.elapsed_millis());
      const std::int64_t ispan = trace ? trace->open("interval") : -1;
      pass.timed.push_back(engine.run_interval(tuples));
      if (trace) trace->close(ispan);
    }

    pass.peak_rss_mb = peak_rss_mb();
    pass.checkpoint_bytes = engine.checkpoint_bytes();
    Controller& c = engine.controller();
    pass.migrated_mb = c.total_migrated_bytes() / 1e6;
    pass.table_entries = c.assignment().table().size();
    pass.rebalances = c.rebalance_count();
    pass.plan_digest = c.plan_history_digest();
    pass.promotions = c.heavy_promotions();
    pass.demotions = c.heavy_demotions();
    pass.controller_stats_bytes = c.stats_memory_bytes();
    finish_and_check(engine, stream, check);
    pass.recoveries = engine.recoveries();
    pass.state_checksum = engine.ok() ? engine.state_checksum() : 0;
  }
  return pass;
}

// ------------------------------------------------------------ statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// The highest percentile with at least 10 samples beyond it.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
};

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t i = n > 10 ? n - 11 : n - 1;
  t.value = v[i];
  t.percentile = 100.0 * static_cast<double>(i + 1) / static_cast<double>(n);
  return t;
}

template <typename F>
std::vector<double> collect(const std::vector<Sample>& samples, F f) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(f(s));
  return out;
}

double throughput(const std::vector<Sample>& timed) {
  double ms = 0.0;
  double tuples = 0.0;
  for (const Sample& s : timed) {
    ms += s.call_ms;
    tuples += static_cast<double>(s.processed);
  }
  return ms > 0.0 ? tuples / (ms / 1000.0) : 0.0;
}

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"0x%016" PRIx64 "\"", v);
  return buf;
}

std::string quoted(const std::string& v) { return "\"" + v + "\""; }

/// Builds one JSON object; values are pre-rendered JSON.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + json;
    return *this;
  }
  JsonObject& add(const std::string& key, double v) {
    return add(key, number(v));
  }
  [[nodiscard]] const std::string& body() const { return body_; }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i > 0 ? ", " : "") + items[i];
  }
  return out + "]";
}

void print_result(bool correct, const Check& check,
                  const std::vector<Metric>& metrics) {
  JsonObject m;
  for (const Metric& metric : metrics) {
    m.add(metric.name, JsonObject()
                           .add("value", metric.value)
                           .add("unit", quoted(metric.unit))
                           .str());
  }
  JsonObject out;
  out.add("correct", correct ? "true" : "false")
      .add("attempted", std::to_string(check.attempted))
      .add("failed", std::to_string(check.failed))
      .add("metrics", m.str());
  std::printf("%s\n", out.str().c_str());
}

std::vector<Metric> end_to_end(const Pass& p, const Check& check,
                               const Tail& tail) {
  // A run either processes every emitted tuple and matches the reference,
  // or fails its check as a whole.
  const double processed_fraction = check.failures.empty() ? 1.0 : 0.0;
  return {
      {"throughput_tps", throughput(p.timed), "1/s"},
      {"tuple_latency_ms",
       mean(collect(p.timed, [](const Sample& s) { return s.latency_ms; })),
       "ms"},
      {"stall_p50_ms",
       median(collect(p.timed, [](const Sample& s) { return s.stall_ms; })),
       "ms"},
      {"stall_tail_ms", tail.value, "ms"},
      {"worker_imbalance",
       mean(collect(p.timed, [](const Sample& s) { return s.theta; })),
       "ratio"},
      {"migrated_mb", p.migrated_mb, "MB"},
      {"routing_table_entries", static_cast<double>(p.table_entries), "count"},
      {"rebalances", static_cast<double>(p.rebalances), "count"},
      {"setup_s", median(p.setup_s), "s"},
      {"peak_rss_mb", p.peak_rss_mb, "MB"},
      {"processed_fraction", processed_fraction, "ratio"},
  };
}

std::vector<Metric> per_layer(const Pass& traced, double untraced_tps,
                              const Trace& trace,
                              const OperatorProfile& profile) {
  const std::vector<Sample>& t = traced.timed;
  double timed_ms = 0.0;
  double emitted = 0.0;
  double data_bytes = 0.0;
  double ctrl_bytes = 0.0;
  for (const Sample& s : t) {
    timed_ms += s.call_ms;
    emitted += static_cast<double>(s.emitted);
    data_bytes += static_cast<double>(s.data_wire_bytes);
    ctrl_bytes += static_cast<double>(s.ctrl_wire_bytes);
  }
  double moves = 0.0;
  double migration_wire = 0.0;
  for (const auto* samples : {&traced.warmup, &traced.timed}) {
    for (const Sample& s : *samples) {
      moves += static_cast<double>(s.moves);
      migration_wire += s.migration_wire_bytes;
    }
  }

  double busy_max = 0.0;
  double busy_min = 0.0;
  double tuples_max_over_mean = 0.0;
  if (profile.claimed() > 0 && timed_ms > 0.0) {
    busy_min = 1e300;
    double tuples_max = 0.0;
    double tuples_sum = 0.0;
    for (std::size_t w = 0; w < profile.claimed(); ++w) {
      const double busy =
          static_cast<double>(profile.at(w).busy_ns.load()) / 1e6 / timed_ms;
      busy_max = std::max(busy_max, busy);
      busy_min = std::min(busy_min, busy);
      const auto tuples = static_cast<double>(profile.at(w).tuples.load());
      tuples_max = std::max(tuples_max, tuples);
      tuples_sum += tuples;
    }
    const double tuples_mean =
        tuples_sum / static_cast<double>(profile.claimed());
    tuples_max_over_mean = tuples_mean > 0.0 ? tuples_max / tuples_mean : 0.0;
  }

  std::vector<double> plan_ms;
  std::vector<double> plan_entries;
  for (const PlanCall& c : trace.plan_calls()) {
    plan_ms.push_back(c.ms);
    plan_entries.push_back(static_cast<double>(c.entries));
  }
  const auto plan_calls = static_cast<double>(plan_ms.size());
  const auto n = static_cast<double>(std::max<std::size_t>(1, t.size()));
  return {
      {"engine.route_ms",
       mean(collect(t, [](const Sample& s) { return s.wall_ms - s.stall_ms; })),
       "ms"},
      {"engine.merge_ms",
       mean(collect(t, [](const Sample& s) { return s.merge_ms; })), "ms"},
      {"engine.stats_memory_mb",
       t.empty() ? 0.0 : static_cast<double>(t.back().stats_memory_bytes) / 1e6,
       "MB"},
      {"operator.busy_share_max", busy_max, "ratio"},
      {"operator.busy_share_min", busy_min, "ratio"},
      {"operator.tuples_max_over_mean", tuples_max_over_mean, "ratio"},
      {"core.plan_calls", plan_calls, "count"},
      {"core.plan_ms_p50", median(plan_ms), "ms"},
      {"core.plan_ms_max",
       plan_ms.empty() ? 0.0 : *std::max_element(plan_ms.begin(), plan_ms.end()),
       "ms"},
      {"core.plan_entries_p50", median(plan_entries), "count"},
      {"core.plan_useful_ratio",
       plan_calls > 0.0 ? static_cast<double>(traced.rebalances) / plan_calls
                        : 0.0,
       "ratio"},
      {"core.moves", moves, "count"},
      {"core.table_entries", static_cast<double>(traced.table_entries),
       "count"},
      {"sketch.promotions", static_cast<double>(traced.promotions), "count"},
      {"sketch.demotions", static_cast<double>(traced.demotions), "count"},
      {"sketch.memory_mb",
       static_cast<double>(traced.controller_stats_bytes) / 1e6, "MB"},
      {"net.data_bytes_per_tuple", emitted > 0.0 ? data_bytes / emitted : 0.0,
       "B"},
      {"net.ctrl_mb_per_boundary", ctrl_bytes / n / 1e6, "MB"},
      {"net.checkpoint_mb", static_cast<double>(traced.checkpoint_bytes) / 1e6,
       "MB"},
      {"net.migration_wire_mb", migration_wire / 1e6, "MB"},
      {"net.recoveries", static_cast<double>(traced.recoveries), "count"},
      {"workload.generate_ms", mean(traced.generate_ms), "ms"},
      {"trace.overhead",
       untraced_tps > 0.0 ? throughput(t) / untraced_tps : 0.0, "ratio"},
  };
}

// ------------------------------------------------------------------ main

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload "
               "zipf-threaded|zipf-net|shift-threaded --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    const auto num = [&] {
      const double x = std::strtod(v, &end);
      if (end == v || *end != '\0' || !std::isfinite(x) || x < 0) {
        usage(("bad value for " + flag).c_str());
      }
      return x;
    };
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') usage("bad value for --seed");
    } else if (flag == "--seconds") {
      o.seconds = num();
    } else if (flag == "--trace") {
      o.trace = num() != 0.0;
    } else if (flag == "--trace-out") {
      o.trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  return o;
}

int run(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const auto& w : kWorkloads) {
    if (w.name == opts.workload) spec = &w;
  }
  if (spec == nullptr) usage("unknown --workload");

  // Thread budget: the workers plus the driver must fit the usable CPUs.
  const int nproc = CPU_COUNT(&start_affinity());
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int busy = static_cast<int>(kWorkers) + 1;
  if (busy > nproc) {
    std::fprintf(stderr,
                 "perfbench_driver: %d busy threads/processes (%u workers + "
                 "driver) exceed the %d usable CPUs; refusing to run\n",
                 busy, static_cast<unsigned>(kWorkers), nproc);
    return 3;
  }
  skewless::set_log_level(skewless::LogLevel::kWarn);

  Check check;
  Pass pass = run_pass(*spec, opts, opts.trace ? 1 : kSetupReps, nullptr,
                       nullptr, check);
  const Tail tail =
      tail_of(collect(pass.timed, [](const Sample& s) { return s.stall_ms; }));
  std::vector<Metric> metrics = end_to_end(pass, check, tail);

  Trace trace;
  OperatorProfile profile;
  std::optional<Pass> traced;
  if (opts.trace) {
    traced = run_pass(*spec, opts, 1, &trace, &profile, check);
    metrics = per_layer(*traced, throughput(pass.timed), trace, profile);
  }

  const bool correct = check.failures.empty();
  const double worker_imbalance =
      mean(collect(pass.timed, [](const Sample& s) { return s.theta; }));
  std::uint64_t imbalance_bits = 0;
  std::memcpy(&imbalance_bits, &worker_imbalance, sizeof(imbalance_bits));
  std::vector<double> stall_rebalancing;
  std::vector<double> stall_other;
  for (const Sample& s : pass.timed) {
    (s.moves > 0 ? stall_rebalancing : stall_other).push_back(s.stall_ms);
  }
  std::vector<std::string> setups;
  for (const double v : pass.setup_s) setups.push_back(number(v));
  std::vector<std::string> failures;
  for (const auto& f : check.failures) failures.push_back(quoted(f));
  JsonObject detail;
  detail.add("workload", quoted(spec->name))
      .add("seed", std::to_string(opts.seed))
      .add("engine", quoted(spec->net ? "net" : "threaded"))
      .add("workers", kWorkers)
      .add("busy_threads", busy)
      .add("nproc", nproc)
      .add("hardware_threads", hw)
      .add("kernel_tier", quoted(skewless::simd::active_kernels().name))
      .add("pinned_workers", pass.pinned_workers)
      .add("tuples_per_interval",
           static_cast<double>(kShape.tuples_per_interval))
      .add("warmup_intervals", kWarmupIntervals)
      .add("timed_intervals", static_cast<double>(pass.timed.size()))
      .add("stall_tail_percentile", tail.percentile)
      .add("stall_samples", static_cast<double>(tail.samples))
      .add("rebalancing_boundaries",
           static_cast<double>(stall_rebalancing.size()))
      .add("stall_p50_rebalancing_ms", median(stall_rebalancing))
      .add("stall_p50_other_ms", median(stall_other))
      .add("plan_digest", hex(pass.plan_digest))
      .add("state_checksum", hex(pass.state_checksum))
      .add("worker_imbalance_bits", hex(imbalance_bits))
      .add("rebalances", static_cast<double>(pass.rebalances))
      .add("routing_table_entries", static_cast<double>(pass.table_entries))
      .add("migrated_mb", pass.migrated_mb)
      .add("setup_s_samples", json_array(setups))
      .add("failures", json_array(failures));

  if (traced && !opts.trace_out.empty()) {
    std::vector<std::string> slots;
    for (std::size_t w = 0; w < profile.claimed(); ++w) {
      slots.push_back(
          JsonObject()
              .add("busy_ms",
                   static_cast<double>(profile.at(w).busy_ns.load()) / 1e6)
              .add("tuples", static_cast<double>(profile.at(w).tuples.load()))
              .str());
    }
    std::vector<std::string> intervals;
    for (const Sample& s : traced->timed) {
      intervals.push_back(JsonObject()
                              .add("call_ms", s.call_ms)
                              .add("stall_ms", s.stall_ms)
                              .add("merge_ms", s.merge_ms)
                              .add("latency_ms", s.latency_ms)
                              .add("theta", s.theta)
                              .add("moves", static_cast<double>(s.moves))
                              .str());
    }
    JsonObject header;
    header.add("workload", quoted(spec->name))
        .add("seed", std::to_string(opts.seed))
        .add("operator_slots", json_array(slots))
        .add("intervals", json_array(intervals));
    if (!trace.write_json(opts.trace_out, header.body())) {
      std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                   opts.trace_out.c_str());
    }
  }

  std::printf("{\"detail\": %s}\n", detail.str().c_str());
  print_result(correct, check, metrics);
  std::fflush(stdout);
  if (!correct) {
    for (const auto& f : check.failures) {
      std::fprintf(stderr, "perfbench_driver: check failed: %s\n", f.c_str());
    }
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
