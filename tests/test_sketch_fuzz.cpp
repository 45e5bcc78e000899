// Randomized differential suite for the sketch statistics stack, run
// under the `fuzz` CTest label (like test_compact_fuzz): hundreds of
// seeded random streams checked against the exact StatsWindow and
// against the Misra–Gries tracker's guarantees.
//
// Invariants exercised per stream:
//  * mass conservation — the sketch window's aggregate totals (dense
//    synthesis sums, compact synthesis sums, total windowed state) equal
//    the exact window's, through arbitrary interleavings of promotion,
//    decayed demotion and displacement;
//  * overestimate-only — every COLD key's per-key accessor is an upper
//    bound on its true value (Count-Min never underestimates, and the
//    window's promotion/demotion bookkeeping credits sketches without
//    ever debiting them);
//  * heavy-hitter W/m — after chaining merges of per-worker MisraGries
//    summaries (through both union overloads), every key with true
//    weight > W/m is tracked and no entry's guaranteed bound
//    (count − error) exceeds its true weight.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <unordered_map>
#include <vector>

#include "core/stats_window.h"
#include "sketch/misra_gries.h"
#include "sketch/sketch_stats_window.h"

namespace skewless {
namespace {

double sum_of(const std::vector<double>& v) {
  double acc = 0.0;
  for (const double x : v) acc += x;
  return acc;
}

// Relative tolerance for comparing two ways of summing the same stream
// of doubles (the sketch keeps scalar aggregates, the exact window dense
// vectors — both exact up to FP associativity).
double tol(double scale) { return 1e-9 * (1.0 + std::abs(scale)); }

TEST(SketchFuzz, DifferentialAgainstExactWindow) {
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    const std::size_t num_keys = 32 + rng() % 224;
    const int window = 1 + static_cast<int>(rng() % 3);
    const InstanceId instances = 2 + static_cast<InstanceId>(rng() % 4);

    SketchStatsConfig cfg;
    // Deliberately tiny sketches and heavy tier: collisions and
    // eviction/displacement pressure are the point.
    cfg.epsilon = 0.05;
    cfg.heavy_capacity = 4 + rng() % 24;
    cfg.promote_fraction = 0.005;
    cfg.decay = (rng() % 2) == 0;
    cfg.decay_beta = 0.3 + 0.2 * static_cast<double>(rng() % 3);
    cfg.seed = seed + 11;

    StatsWindow exact(num_keys, window);
    SketchStatsWindow sketch(num_keys, window, cfg);

    const int intervals = 2 + static_cast<int>(rng() % 5);
    for (int i = 0; i < intervals; ++i) {
      const int records = 50 + static_cast<int>(rng() % 400);
      for (int r = 0; r < records; ++r) {
        // Skewed key choice: half the mass lands on a small head so the
        // heavy tier actually fills and displaces.
        const bool head = (rng() % 2) == 0;
        const KeyId key = static_cast<KeyId>(
            head ? rng() % (1 + num_keys / 16) : rng() % num_keys);
        const Cost cost = 1.0 + static_cast<double>(rng() % 9);
        const Bytes bytes = static_cast<double>(rng() % 16);
        // A key routes to exactly one instance within an interval — the
        // dest must be a function of the key, like the real assignment.
        const auto dest = static_cast<InstanceId>(key % instances);
        exact.record(key, cost, bytes, dest);
        sketch.record(key, cost, bytes, dest);
      }
      exact.roll();
      sketch.roll();

      // Aggregate mass: dense synthesis vs the exact window.
      std::vector<Cost> dense_cost;
      std::vector<Bytes> dense_state;
      sketch.synthesize_dense(dense_cost, dense_state);
      const double exact_cost = sum_of(exact.last_cost());
      const double exact_state = sum_of(exact.windowed_state());
      EXPECT_NEAR(sum_of(dense_cost), exact_cost, tol(exact_cost));
      EXPECT_NEAR(sum_of(dense_state), exact_state, tol(exact_state));
      EXPECT_NEAR(sketch.total_windowed_state(), exact.total_windowed_state(),
                  tol(exact_state));

      // Compact synthesis conserves the same mass split hot/cold.
      std::vector<KeyId> keys;
      std::vector<Cost> hot_cost;
      std::vector<Bytes> hot_state;
      std::vector<Cost> cold_cost;
      std::vector<Bytes> cold_state;
      sketch.synthesize_compact(instances, keys, hot_cost, hot_state,
                                cold_cost, cold_state);
      // Per-slot clamping can only STRAND mass, never lose it: the
      // compact sums are ≥ the exact totals in every mode. The decayed
      // path's cost backfill is the guaranteed observation (≤ the key's
      // recorded per-slot mass), so its cost debits never clamp and the
      // compact COST sum is exactly conserved — the over-debit caveat
      // the no-decay path documents. State backfills a Count-Min
      // overestimate in both modes, so only the lower bound holds there.
      EXPECT_GE(sum_of(hot_cost) + sum_of(cold_cost) + tol(exact_cost),
                exact_cost);
      EXPECT_GE(sum_of(hot_state) + sum_of(cold_state) + tol(exact_state),
                exact_state);
      if (cfg.decay) {
        EXPECT_NEAR(sum_of(hot_cost) + sum_of(cold_cost), exact_cost,
                    tol(exact_cost));
      }
      for (const Cost c : cold_cost) EXPECT_GE(c, -tol(exact_cost));
      for (const Bytes s : cold_state) EXPECT_GE(s, -tol(exact_state));

      // Overestimate-only for cold keys (heavy keys may carry backfilled
      // bounds in their promotion interval; cold estimates never
      // undershoot — Count-Min plus credit-only bookkeeping).
      for (int probe = 0; probe < 32; ++probe) {
        const KeyId key = static_cast<KeyId>(rng() % num_keys);
        if (sketch.is_heavy(key)) continue;
        EXPECT_GE(sketch.last_cost_of(key) + tol(exact_cost),
                  exact.last_cost()[key]);
        EXPECT_GE(sketch.windowed_state_of(key) + tol(exact_state),
                  exact.windowed_state()[key]);
      }
    }
  }
}

TEST(SketchFuzz, SpaceSavingChainedMergeKeepsGuarantees) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    std::mt19937_64 rng(seed * 0x2545f4914f6cdd1dULL + 7);
    const std::size_t capacity = 4 + rng() % 28;
    const int workers = 1 + static_cast<int>(rng() % 6);
    const std::size_t domain = 16 + rng() % 112;

    MisraGries combined(capacity);
    std::unordered_map<KeyId, double> truth;
    double total = 0.0;
    for (int w = 0; w < workers; ++w) {
      // Alternate the two union forms: the window unions worker
      // summaries as entry lists and its own trackers whole.
      const bool whole = (rng() % 2) == 0;
      MisraGries source(capacity);
      const int adds = 20 + static_cast<int>(rng() % 300);
      for (int a = 0; a < adds; ++a) {
        const bool head = (rng() % 2) == 0;
        const KeyId key = static_cast<KeyId>(
            head ? rng() % (1 + domain / 8) : rng() % domain);
        const double weight = 1.0 + static_cast<double>(rng() % 7);
        source.add(key, weight);
        truth[key] += weight;
        total += weight;
      }
      if (whole) {
        combined.merge(source);
      } else {
        combined.merge(source.entries_by_count(), source.total_weight());
      }
    }

    for (const MisraGries::Entry& e : combined.entries_by_count()) {
      // The guaranteed bound never lies: count − error ≤ true. The
      // overestimate side (count ≥ true) survives a union only for keys
      // tracked by every source that saw them, so it is asserted just
      // for single-source runs.
      const auto it = truth.find(e.key);
      const double true_weight = it != truth.end() ? it->second : 0.0;
      if (workers == 1) {
        EXPECT_GE(e.count + tol(total), true_weight);
      }
      EXPECT_LE(e.count - e.error, true_weight + tol(total));
    }
    EXPECT_NEAR(combined.total_weight(), total, tol(total));

    // Every key heavier than W/m is tracked.
    const double bar = total / static_cast<double>(capacity);
    for (const auto& [key, weight] : truth) {
      if (weight > bar + tol(total)) {
        EXPECT_NE(combined.find(key), nullptr)
            << "seed " << seed << " key " << key << " weight " << weight
            << " > W/m " << bar;
      }
    }
  }
}

// Mass conservation specifically through heavy churn: a tiny heavy tier
// under a hot set that moves every interval forces promotion,
// displacement and decayed demotion on nearly every roll — the exact
// totals must never drift.
TEST(SketchFuzz, ChurningHeavyTierConservesMass) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    std::mt19937_64 rng(seed * 0xd1342543de82ef95ULL + 3);
    const std::size_t num_keys = 128;
    const int window = 1 + static_cast<int>(rng() % 3);

    SketchStatsConfig cfg;
    cfg.epsilon = 0.05;
    cfg.heavy_capacity = 4;
    cfg.promote_fraction = 0.01;
    cfg.decay = true;
    cfg.decay_beta = 0.5;
    cfg.demote_fraction = 0.5;  // aggressive: demotions on most rolls
    cfg.seed = seed;

    StatsWindow exact(num_keys, window);
    SketchStatsWindow sketch(num_keys, window, cfg);
    for (int i = 0; i < 10; ++i) {
      // The hot pair moves every interval — yesterday's heavy keys decay
      // below the demote bar while today's displace them.
      const KeyId hot = static_cast<KeyId>((i * 17) % num_keys);
      for (int r = 0; r < 120; ++r) {
        const bool on_hot = (rng() % 2) == 0;
        const KeyId key =
            on_hot ? static_cast<KeyId>((hot + rng() % 2) % num_keys)
                   : static_cast<KeyId>(rng() % num_keys);
        const Cost cost = 1.0 + static_cast<double>(rng() % 5);
        const Bytes bytes = static_cast<double>(rng() % 8);
        exact.record(key, cost, bytes);
        sketch.record(key, cost, bytes);
      }
      exact.roll();
      sketch.roll();
      const double exact_state = exact.total_windowed_state();
      EXPECT_NEAR(sketch.total_windowed_state(), exact_state,
                  tol(exact_state));
      std::vector<Cost> dense_cost;
      std::vector<Bytes> dense_state;
      sketch.synthesize_dense(dense_cost, dense_state);
      const double exact_cost = sum_of(exact.last_cost());
      EXPECT_NEAR(sum_of(dense_cost), exact_cost, tol(exact_cost));
      EXPECT_NEAR(sum_of(dense_state), exact_state, tol(exact_state));
    }
  }
}

}  // namespace
}  // namespace skewless
