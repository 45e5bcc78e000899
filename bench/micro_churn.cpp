// micro_churn — heavy-set churn under adversarial workloads, decayed vs
// single-interval promotion (the --no-decay A/B anchor).
//
// For every attack in the adversarial catalog the same stream drives
// three controllers:
//
//   exact     — ground-truth statistics (θ reference; no churn exists),
//   decay     — sketch provider with decayed candidate tracking (default),
//   no-decay  — sketch provider with the legacy single-interval tracker.
//
// Recorded per run: heavy-set churn rate
// (promotions + demotions) / (intervals · heavy_capacity), post-rebalance
// θ (the REALIZED imbalance observed in the interval after each
// rebalance — see realized_post_rebalance_theta), rebalance count and
// stats memory. Output: human-readable table on stderr, JSON on stdout
// (bench/run_benches.sh redirects it into BENCH_churn.json).
//
// Exit-code gates (CI runs this as a check):
//   * under the rotating-hot-set attack, decayed tracking cuts the churn
//     rate by ≥ 2× vs --no-decay — the tentpole claim: a rotated-out
//     group's standing survives its idle phase instead of thrashing
//     through demote/re-promote every cycle;
//   * rotating post-rebalance θ under decay stays within the existing
//     sketch-vs-exact tolerance (max(5% relative, 0.005 absolute) — the
//     micro_sketch gate).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/planners.h"
#include "workload/adversarial.h"

using namespace skewless;
using namespace skewless::bench;

namespace {

struct RunStats {
  double churn_rate = 0.0;
  double theta_post = 0.0;  // realized θ after rebalances (see below)
  double theta_pred = 0.0;  // planner's own mean predicted achieved θ
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  std::size_t rebalances = 0;
  std::size_t memory_bytes = 0;
};

// Realized post-rebalance θ: the observed imbalance during the interval
// FOLLOWING each rebalance — the load the system actually ran at under
// the new assignment. This, not the plan's own predicted achieved θ, is
// the like-for-like number across stats modes: at a hot-set jump the
// sketch's compact snapshot momentarily carries cold residual not yet
// debited for freshly promoted keys (a candidate's insertion offset keeps
// the guaranteed backfill below the true count), so the planner *predicts* a
// worse θ than the assignment actually delivers. Intervals where the
// attack shifts its hot set between plan and measurement
// (interval % shift_period == 0) are excluded: no assignment computed
// before the shift can score on them — they measure the attack, not the
// plan.
double realized_post_rebalance_theta(const DriverResult& r,
                                     int shift_period) {
  double acc = 0.0;
  int n = 0;
  for (std::size_t i = 0; i + 1 < r.theta_trajectory.size(); ++i) {
    if (!r.rebalanced_at[i]) continue;
    const std::size_t next = i + 1;
    if (shift_period > 0 && next % static_cast<std::size_t>(shift_period) == 0)
      continue;
    acc += r.theta_trajectory[next];
    ++n;
  }
  // No usable sample (never rebalanced, or every rebalance ran into a
  // shift): the observed mean stands.
  return n > 0 ? acc / n : r.theta_before.mean();
}

// Intervals at which each attack moves its hot set (0 = stationary).
int attack_shift_period(AttackKind attack,
                        const AdversarialSource::Options& opts) {
  switch (attack) {
    case AttackKind::kRotatingHotSet:
      return opts.rotation_period;
    case AttackKind::kSkewFlip:
      return opts.flip_period;
    case AttackKind::kKeyChurnFlood:
      return 0;  // shifts EVERY interval — all modes equally polluted
    case AttackKind::kParetoTail:
    case AttackKind::kHashCollision:
      return 0;  // stationary
  }
  return 0;
}

struct BenchConfig {
  std::uint64_t num_keys = 20'000;
  std::uint64_t tuples = 200'000;
  // Long enough for the decayed tracker's one-time transient (initial
  // fill + one displacement wave per rotation group) to amortize into
  // its zero steady-state churn; the no-decay baseline thrashes at a
  // constant per-cycle rate regardless of run length.
  int intervals = 48;
  InstanceId instances = 8;
  int window = 2;
  double theta_max = 0.08;
  std::size_t heavy_capacity = 512;
  double decay_beta = 0.8;
  std::uint64_t seed = 7;
};

AdversarialSource::Options attack_options(const BenchConfig& cfg,
                                          AttackKind attack,
                                          const SketchStatsConfig& sketch) {
  AdversarialSource::Options opts;
  opts.attack = attack;
  opts.num_keys = cfg.num_keys;
  opts.tuples_per_interval = cfg.tuples;
  opts.seed = cfg.seed;
  // Rotating geometry: 4 groups × period 3 → a rotated-out group is idle
  // for 9 intervals, well past the no-decay idle-demotion fuse
  // (max(window, 2)), so the legacy policy demotes and re-promotes every
  // cycle while the decayed tracker holds the group's standing.
  opts.rotation_period = 3;
  opts.hot_groups = 4;
  opts.hot_keys_per_group = 64;
  opts.sketch = sketch;  // collision attack targets the run's own family
  return opts;
}

bool g_trace = false;

RunStats run_one(const BenchConfig& cfg, AttackKind attack,
                 StatsMode stats_mode, bool decay,
                 const SketchStatsConfig& sketch_base) {
  DriverOptions opts;
  opts.num_instances = cfg.instances;
  opts.theta_max = cfg.theta_max;
  opts.window = cfg.window;
  opts.intervals = cfg.intervals;
  opts.stats_mode = stats_mode;
  opts.sketch = sketch_base;
  opts.sketch.decay = decay;
  AdversarialSource source(attack_options(cfg, attack, opts.sketch));
  const DriverResult r =
      drive_planner(source, std::make_unique<MixedPlanner>(), opts);

  RunStats out;
  out.promotions = r.promotions;
  out.demotions = r.demotions;
  out.rebalances = r.rebalances;
  out.memory_bytes = r.stats_memory_bytes;
  out.churn_rate =
      static_cast<double>(r.promotions + r.demotions) /
      (static_cast<double>(cfg.intervals) *
       static_cast<double>(opts.sketch.heavy_capacity));
  out.theta_post = realized_post_rebalance_theta(
      r, attack_shift_period(attack, attack_options(cfg, attack, opts.sketch)));
  if (g_trace) {
    std::fprintf(stderr, "[trace] %s %s:", attack_name(attack),
                 stats_mode == StatsMode::kExact ? "exact"
                 : decay                         ? "decay"
                                                 : "nodecay");
    for (std::size_t i = 0; i < r.theta_trajectory.size(); ++i) {
      std::fprintf(stderr, " %s%.3f", r.rebalanced_at[i] ? "*" : "",
                   r.theta_trajectory[i]);
    }
    std::fprintf(stderr, "\n");
  }
  out.theta_pred =
      r.rebalances > 0 ? r.theta_after.mean() : r.theta_before.mean();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const auto need = [&]() -> long long {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "usage: %s [--keys N] [--tuples N] [--intervals N]\n",
                     argv[0]);
        std::exit(2);
      }
      return std::atoll(argv[++i]);
    };
    if (std::strcmp(argv[i], "--keys") == 0) {
      cfg.num_keys = static_cast<std::uint64_t>(need());
    } else if (std::strcmp(argv[i], "--tuples") == 0) {
      cfg.tuples = static_cast<std::uint64_t>(need());
    } else if (std::strcmp(argv[i], "--intervals") == 0) {
      cfg.intervals = static_cast<int>(need());
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      g_trace = true;
    } else {
      std::fprintf(stderr, "usage: %s [--keys N] [--tuples N] [--intervals N]\n",
                   argv[0]);
      return 2;
    }
  }

  SketchStatsConfig sketch;
  sketch.heavy_capacity = cfg.heavy_capacity;
  sketch.decay_beta = cfg.decay_beta;

  double rotating_churn_decay = 0.0;
  double rotating_churn_nodecay = 0.0;
  double rotating_theta_delta = 0.0;
  double rotating_theta_tolerance = 0.0;

  std::string attack_json;
  std::fprintf(stderr, "%-10s %10s %10s %10s %10s %10s %10s\n", "attack",
               "chrn_dec", "chrn_nodec", "th_exact", "th_decay", "th_nodec",
               "reb_decay");
  for (const AttackKind attack : all_attacks()) {
    // The collision attack only bites a coarse family (full
    // Kirsch–Mitzenmacher collisions need a small width); every run of
    // this attack — including the exact reference's workload — uses the
    // same coarse ε so all three see the identical stream.
    SketchStatsConfig attack_sketch = sketch;
    if (attack == AttackKind::kHashCollision) attack_sketch.epsilon = 0.05;

    const RunStats exact =
        run_one(cfg, attack, StatsMode::kExact, true, attack_sketch);
    const RunStats decay =
        run_one(cfg, attack, StatsMode::kSketch, true, attack_sketch);
    const RunStats nodecay =
        run_one(cfg, attack, StatsMode::kSketch, false, attack_sketch);

    std::fprintf(stderr, "%-10s %10.4f %10.4f %10.4f %10.4f %10.4f %10zu\n",
                 attack_name(attack), decay.churn_rate, nodecay.churn_rate,
                 exact.theta_post, decay.theta_post, nodecay.theta_post,
                 decay.rebalances);

    if (attack == AttackKind::kRotatingHotSet) {
      rotating_churn_decay = decay.churn_rate;
      rotating_churn_nodecay = nodecay.churn_rate;
      rotating_theta_delta = std::abs(decay.theta_post - exact.theta_post);
      rotating_theta_tolerance = std::max(0.05 * exact.theta_post, 0.005);
    }

    char buf[1280];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"attack\": \"%s\",\n"
        "     \"exact\":    {\"theta_post\": %.6f, \"rebalances\": %zu},\n"
        "     \"decay\":    {\"churn_rate\": %.6f, \"promotions\": %llu, "
        "\"demotions\": %llu, \"theta_post\": %.6f, \"theta_pred\": %.6f, "
        "\"rebalances\": %zu, \"memory_bytes\": %zu},\n"
        "     \"no_decay\": {\"churn_rate\": %.6f, \"promotions\": %llu, "
        "\"demotions\": %llu, \"theta_post\": %.6f, \"theta_pred\": %.6f, "
        "\"rebalances\": %zu, \"memory_bytes\": %zu}}",
        attack_name(attack), exact.theta_post, exact.rebalances,
        decay.churn_rate, static_cast<unsigned long long>(decay.promotions),
        static_cast<unsigned long long>(decay.demotions), decay.theta_post,
        decay.theta_pred, decay.rebalances, decay.memory_bytes,
        nodecay.churn_rate,
        static_cast<unsigned long long>(nodecay.promotions),
        static_cast<unsigned long long>(nodecay.demotions),
        nodecay.theta_post, nodecay.theta_pred, nodecay.rebalances,
        nodecay.memory_bytes);
    if (!attack_json.empty()) attack_json += ",\n";
    attack_json += buf;
  }

  // ---- Gates (rotating attack: the tentpole claim).
  const bool pass_churn =
      rotating_churn_nodecay >= 2.0 * rotating_churn_decay &&
      rotating_churn_nodecay > 0.0;
  const bool pass_theta = rotating_theta_delta <= rotating_theta_tolerance;
  const double reduction = rotating_churn_decay > 0.0
                               ? rotating_churn_nodecay / rotating_churn_decay
                               : std::numeric_limits<double>::infinity();
  std::fprintf(stderr,
               "rotating churn %.4f (decay) vs %.4f (no-decay): %.1fx "
               "reduction (gate >= 2x: %s)\n"
               "rotating theta delta %.4f (gate <= %.4f: %s)\n",
               rotating_churn_decay, rotating_churn_nodecay, reduction,
               pass_churn ? "PASS" : "FAIL", rotating_theta_delta,
               rotating_theta_tolerance, pass_theta ? "PASS" : "FAIL");

  std::printf(
      "{\n"
      "  \"bench\": \"micro_churn\",\n"
      "%s"
      "  \"config\": {\"keys\": %llu, \"tuples_per_interval\": %llu, "
      "\"intervals\": %d, \"instances\": %d, \"window\": %d, "
      "\"heavy_capacity\": %zu, \"decay_beta\": %.2f, "
      "\"rotation_period\": 3, \"hot_groups\": 4},\n"
      "  \"attacks\": [\n%s\n  ],\n"
      "  \"rotating\": {\"churn_decay\": %.6f, \"churn_no_decay\": %.6f, "
      "\"reduction\": %.2f, \"theta_delta\": %.6f, "
      "\"theta_tolerance\": %.6f},\n"
      "  \"gates\": {\"rotating_churn_reduction_ge_2x\": %s, "
      "\"rotating_theta_within_tolerance\": %s}\n"
      "}\n",
      bench::env_json().c_str(),
      static_cast<unsigned long long>(cfg.num_keys),
      static_cast<unsigned long long>(cfg.tuples), cfg.intervals,
      static_cast<int>(cfg.instances), cfg.window, cfg.heavy_capacity,
      cfg.decay_beta, attack_json.c_str(), rotating_churn_decay,
      rotating_churn_nodecay, reduction, rotating_theta_delta,
      rotating_theta_tolerance, pass_churn ? "true" : "false",
      pass_theta ? "true" : "false");

  return (pass_churn && pass_theta) ? 0 : 1;
}
