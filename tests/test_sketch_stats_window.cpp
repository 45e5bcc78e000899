#include "sketch/sketch_stats_window.h"

#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <memory>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/serde.h"
#include "common/zipf.h"
#include "core/controller.h"
#include "core/planners.h"
#include "core/stats_window.h"
#include "sketch/worker_sketch_slab.h"

namespace skewless {
namespace {

SketchStatsConfig tiny_config(std::size_t heavy_capacity = 64,
                              double promote_fraction = 0.0) {
  SketchStatsConfig cfg;
  cfg.epsilon = 1e-3;
  cfg.delta = 0.01;
  cfg.heavy_capacity = heavy_capacity;
  cfg.promote_fraction = promote_fraction;
  return cfg;
}

TEST(SketchStatsWindow, FreshWindowIsZero) {
  const SketchStatsWindow w(100, 3, tiny_config());
  EXPECT_EQ(w.num_keys(), 100u);
  EXPECT_EQ(w.window(), 3);
  EXPECT_EQ(w.closed_intervals(), 0);
  EXPECT_EQ(w.total_windowed_state(), 0.0);
  EXPECT_EQ(w.heavy_count(), 0u);
  EXPECT_EQ(w.mode(), StatsMode::kSketch);
}

// With heavy capacity ≥ |K| and promote_fraction = 0, every active key is
// promoted at the first roll and tracked exactly from then on: the sketch
// window must agree with the exact window (w = 1 so the backfilled ring
// slot matches the exact expiry schedule).
TEST(SketchStatsWindow, AllKeysHeavyMatchesExactWindow) {
  const std::size_t kKeys = 40;
  StatsWindow exact(kKeys, 1);
  SketchStatsWindow sketch(kKeys, 1, tiny_config(64));
  Xoshiro256 rng(5);
  for (int interval = 0; interval < 4; ++interval) {
    for (KeyId k = 0; k < kKeys; ++k) {
      const Cost c = 1.0 + static_cast<double>(rng.next_below(50));
      const Bytes b = static_cast<double>(rng.next_below(100));
      exact.record(k, c, b);
      sketch.record(k, c, b);
    }
    exact.roll();
    sketch.roll();
    EXPECT_NEAR(sketch.total_windowed_state(), exact.total_windowed_state(),
                1e-6);
  }
  EXPECT_EQ(sketch.heavy_count(), kKeys);
  std::vector<Cost> cost_e, cost_s;
  std::vector<Bytes> state_e, state_s;
  exact.synthesize_dense(cost_e, state_e);
  sketch.synthesize_dense(cost_s, state_s);
  for (std::size_t k = 0; k < kKeys; ++k) {
    EXPECT_NEAR(cost_s[k], cost_e[k], 1e-9) << "key " << k;
    EXPECT_NEAR(state_s[k], state_e[k], 1e-9) << "key " << k;
    EXPECT_EQ(sketch.last_cost_of(k), exact.last_cost_of(k));
    EXPECT_EQ(sketch.windowed_state_of(k), exact.windowed_state_of(k));
  }
}

// With promotion disabled the provider is pure sketch — but the interval
// totals are tracked as scalars and must stay exact.
TEST(SketchStatsWindow, TotalsExactEvenWithoutHeavyTier) {
  const std::size_t kKeys = 500;
  SketchStatsConfig cfg = tiny_config(1, /*promote_fraction=*/1e9);
  StatsWindow exact(kKeys, 2);
  SketchStatsWindow sketch(kKeys, 2, cfg);
  const ZipfDistribution zipf(kKeys, 1.0, true, 7);
  for (int interval = 0; interval < 5; ++interval) {
    const auto counts = zipf.expected_counts(20'000);
    for (std::size_t k = 0; k < counts.size(); ++k) {
      if (counts[k] == 0) continue;
      const auto n = static_cast<double>(counts[k]);
      exact.record(static_cast<KeyId>(k), 2.0 * n, 8.0 * n);
      sketch.record(static_cast<KeyId>(k), 2.0 * n, 8.0 * n);
    }
    exact.roll();
    sketch.roll();
    EXPECT_EQ(sketch.heavy_count(), 0u);
    EXPECT_NEAR(sketch.total_windowed_state(), exact.total_windowed_state(),
                1e-6)
        << "interval " << interval;
  }
}

// The dense synthesized view must preserve aggregate mass: the cold tail
// is normalized against the exactly-tracked cold totals, heavy keys are
// exact, so column sums match the exact window's.
TEST(SketchStatsWindow, SynthesisPreservesAggregateMass) {
  const std::size_t kKeys = 2000;
  SketchStatsConfig cfg = tiny_config(16, 1e-3);
  cfg.epsilon = 5e-3;  // force collisions so normalization matters
  StatsWindow exact(kKeys, 1);
  SketchStatsWindow sketch(kKeys, 1, cfg);
  const ZipfDistribution zipf(kKeys, 1.1, true, 13);
  for (int interval = 0; interval < 3; ++interval) {
    const auto counts = zipf.expected_counts(50'000);
    for (std::size_t k = 0; k < counts.size(); ++k) {
      if (counts[k] == 0) continue;
      const auto n = static_cast<double>(counts[k]);
      exact.record(static_cast<KeyId>(k), 1.5 * n, 8.0 * n);
      sketch.record(static_cast<KeyId>(k), 1.5 * n, 8.0 * n);
    }
    exact.roll();
    sketch.roll();
  }
  std::vector<Cost> cost_e, cost_s;
  std::vector<Bytes> state_e, state_s;
  exact.synthesize_dense(cost_e, state_e);
  sketch.synthesize_dense(cost_s, state_s);
  const double sum_cost_e =
      std::accumulate(cost_e.begin(), cost_e.end(), 0.0);
  const double sum_cost_s =
      std::accumulate(cost_s.begin(), cost_s.end(), 0.0);
  const double sum_state_e =
      std::accumulate(state_e.begin(), state_e.end(), 0.0);
  const double sum_state_s =
      std::accumulate(state_s.begin(), state_s.end(), 0.0);
  // Promotion backfills shift a bounded sliver between tiers; aggregate
  // mass stays within a fraction of a percent.
  EXPECT_NEAR(sum_cost_s, sum_cost_e, 0.005 * sum_cost_e);
  EXPECT_NEAR(sum_state_s, sum_state_e, 0.005 * sum_state_e);
}

TEST(SketchStatsWindow, HeavyHittersAreTrackedExactlyAfterWarmup) {
  const std::size_t kKeys = 10'000;
  SketchStatsWindow sketch(kKeys, 1, tiny_config(64, 1e-3));
  const ZipfDistribution zipf(kKeys, 1.2, true, 3);
  const auto counts = zipf.expected_counts(100'000);
  // Interval 1: all keys cold; hot ones get promoted at the roll.
  for (std::size_t k = 0; k < counts.size(); ++k) {
    if (counts[k] == 0) continue;
    sketch.record(static_cast<KeyId>(k), static_cast<double>(counts[k]), 8.0);
  }
  sketch.roll();
  EXPECT_GT(sketch.heavy_count(), 0u);
  // Interval 2: identical load; the hottest keys must now be exact.
  for (std::size_t k = 0; k < counts.size(); ++k) {
    if (counts[k] == 0) continue;
    sketch.record(static_cast<KeyId>(k), static_cast<double>(counts[k]), 8.0);
  }
  sketch.roll();
  for (std::uint64_t rank = 0; rank < 10; ++rank) {
    const KeyId hot = zipf.key_at_rank(rank);
    ASSERT_TRUE(sketch.is_heavy(hot)) << "rank " << rank;
    EXPECT_DOUBLE_EQ(sketch.last_cost_of(hot),
                     static_cast<double>(counts[hot]));
  }
}

TEST(SketchStatsWindow, WindowedStateExpires) {
  SketchStatsWindow w(10, 2, tiny_config(16));
  w.record(3, 1.0, 100.0);
  w.roll();
  EXPECT_NEAR(w.total_windowed_state(), 100.0, 1e-9);
  w.record(3, 1.0, 50.0);
  w.roll();
  EXPECT_NEAR(w.total_windowed_state(), 150.0, 1e-9);
  w.roll();  // 100 expires
  EXPECT_NEAR(w.total_windowed_state(), 50.0, 1e-9);
  w.roll();  // 50 expires
  EXPECT_NEAR(w.total_windowed_state(), 0.0, 1e-9);
}

// Unlike StatsWindow (which asserts), the sketch provider auto-grows the
// logical domain: it allocates nothing per key.
TEST(SketchStatsWindow, RecordBeyondDomainAutoGrows) {
  SketchStatsWindow w(4, 1, tiny_config());
  w.record(1'000'000, 5.0, 8.0);
  EXPECT_EQ(w.num_keys(), 1'000'001u);
  w.roll();
  EXPECT_GE(w.last_cost_of(1'000'000), 5.0);
  std::vector<Cost> cost;
  std::vector<Bytes> state;
  w.synthesize_dense(cost, state);
  EXPECT_EQ(cost.size(), 1'000'001u);
}

TEST(SketchStatsWindow, MemoryIndependentOfDomainSize) {
  const SketchStatsWindow small(100, 1);
  const SketchStatsWindow large(10'000'000, 1);
  EXPECT_EQ(small.memory_bytes(), large.memory_bytes());
}

/// True where glibc's own allocator serves this binary and mallinfo2()
/// reports its heap: not under a sanitizer, whose allocator replaces it.
bool glibc_heap_observable() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return false;
#endif
#endif
#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
  return true;
#else
  return false;
#endif
}

#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
/// Bytes glibc holds for live allocations, heap and mmap chunks alike.
std::size_t glibc_bytes_held() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}
#else
std::size_t glibc_bytes_held() { return 0; }
#endif

// memory_bytes() is the provider's share of stats_memory_bytes, so it
// must count what the window holds. On a window carrying ~1000 heavy
// keys, each with a w-slot state ring, the reported bytes must agree
// with the heap glibc holds for the window, allocator headers and page
// rounding aside.
TEST(SketchStatsWindow, MemoryBytesMatchesTheHeapItHolds) {
  if (!glibc_heap_observable()) {
    GTEST_SKIP() << "mallinfo2 does not describe a sanitizer's heap";
  }
  constexpr KeyId kHeavy = 1000;
  constexpr KeyId kKeys = 20'000;
  const std::size_t before = glibc_bytes_held();
  auto window = std::make_unique<SketchStatsWindow>(kKeys, 2);
  for (int interval = 0; interval < 4; ++interval) {
    for (KeyId key = 0; key < kKeys; ++key) {
      const bool heavy = key < kHeavy;
      window->record(key, heavy ? 100.0 : 1.0, heavy ? 64.0 : 8.0,
                     static_cast<InstanceId>(key % 4));
    }
    window->roll();
  }
  ASSERT_EQ(window->heavy_count(), static_cast<std::size_t>(kHeavy));
  const std::size_t held = glibc_bytes_held() - before;
  const auto reported = static_cast<double>(window->memory_bytes());
  EXPECT_NEAR(reported, static_cast<double>(held), 0.02 * held)
      << "reported " << reported << " B, glibc holds " << held << " B";
}

TEST(SketchStatsWindow, DefaultConfigAtLeastTenTimesSmallerThanExactAt1M) {
  const std::size_t kKeys = 1'000'000;
  const StatsWindow exact(kKeys, 1);
  const SketchStatsWindow sketch(kKeys, 1);
  EXPECT_GE(exact.memory_bytes(), 10 * sketch.memory_bytes());
}

// Idle demotion is the LEGACY policy (decay = false): under decayed
// tracking a briefly idle key keeps its standing on purpose — that
// retention is what stops a rotating hot set from thrashing the tier.
TEST(SketchStatsWindow, IdleHeavyKeysAreDemoted) {
  SketchStatsConfig cfg = tiny_config(16, 0.0);
  cfg.decay = false;
  SketchStatsWindow w(100, 1, cfg);
  w.record(7, 10.0, 4.0);
  w.roll();
  ASSERT_TRUE(w.is_heavy(7));
  // Silent for enough intervals with no windowed state -> demoted.
  for (int i = 0; i < 4; ++i) w.roll();
  EXPECT_FALSE(w.is_heavy(7));
  EXPECT_EQ(w.heavy_count(), 0u);
}

// An interval counts as idle when it adds neither cost nor state:
// tuples that cost nothing and grow no state give the planner nothing to
// move, so a key receiving only those is demoted on the silent key's
// schedule — after max(w, 2) such intervals, not before.
TEST(SketchStatsWindow, CostAndStateFreeTuplesCountAsIdle) {
  SketchStatsConfig cfg = tiny_config(16, 0.0);
  cfg.decay = false;
  SketchStatsWindow w(100, 1, cfg);
  w.record(7, 10.0, 0.0);
  w.roll();
  ASSERT_TRUE(w.is_heavy(7));
  w.record(7, 0.0, 0.0);
  w.roll();
  EXPECT_TRUE(w.is_heavy(7));
  w.record(7, 0.0, 0.0);
  w.roll();
  EXPECT_FALSE(w.is_heavy(7));
  EXPECT_EQ(w.heavy_count(), 0u);
}

// The decay-mode counterpart: the same idle key survives those few
// intervals (its decayed standing has not collapsed), so the heavy tier
// keeps the key's exact history across the gap.
TEST(SketchStatsWindow, DecayedIdleHeavyKeyKeepsStanding) {
  SketchStatsWindow w(100, 1, tiny_config(16, 0.0));
  w.record(7, 10.0, 4.0);
  w.roll();
  ASSERT_TRUE(w.is_heavy(7));
  for (int i = 0; i < 4; ++i) w.roll();
  EXPECT_TRUE(w.is_heavy(7));
  EXPECT_EQ(w.heavy_count(), 1u);
}

// End-to-end: a controller in sketch mode must detect the imbalance and
// produce a plan that fixes it, through the same planner code path.
TEST(SketchStatsWindow, ControllerInSketchModeRebalances) {
  ControllerConfig cfg;
  cfg.planner.theta_max = 0.08;
  cfg.planner.max_table_entries = 0;
  cfg.stats_mode = StatsMode::kSketch;
  cfg.sketch = tiny_config(32, 0.0);
  Controller ctrl(AssignmentFunction(ConsistentHashRing(2, 128, 9), 0),
                  std::make_unique<MixedPlanner>(), cfg, 10);

  const InstanceId hot = ctrl.assignment()(0);
  ctrl.stats().record(0, 10.0, 4.0);
  KeyId other = 1;
  while (ctrl.assignment()(other) != hot) ++other;
  ctrl.stats().record(other, 10.0, 4.0);

  const auto plan = ctrl.end_interval();
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->moves.size(), 1u);
  EXPECT_GT(ctrl.last_observed_theta(), 0.5);
  EXPECT_EQ(ctrl.stats().mode(), StatsMode::kSketch);

  // Identical load under the new assignment: balanced, no further plan.
  ctrl.stats().record(0, 10.0, 4.0);
  ctrl.stats().record(other, 10.0, 4.0);
  EXPECT_FALSE(ctrl.end_interval().has_value());
  EXPECT_NEAR(ctrl.last_observed_theta(), 0.0, 1e-9);
}

// Absorbing N worker slabs must preserve everything the window tracks
// exactly: the cold scalar aggregates, the total windowed state, the
// domain bound, and — for keys in the distributed heavy set — exact
// per-key statistics, regardless of which worker saw which share.
TEST(SketchStatsWindow, AbsorbPreservesExactAggregatesAndHotTier) {
  const auto cfg = tiny_config(16);
  SketchStatsWindow direct(200, 2, cfg);   // single-stream reference
  SketchStatsWindow merged(200, 2, cfg);   // slab-fed

  // Warm-up: promote key 7 in both windows so interval 2 exercises the
  // hot path. (promote_fraction 0 promotes every candidate up to
  // capacity; key 7 dominates the stream.)
  const auto warm = [](SketchStatsWindow& w) {
    w.record(7, 500.0, 64.0);
    w.roll();
  };
  warm(direct);
  warm(merged);
  ASSERT_TRUE(direct.is_heavy(7));
  ASSERT_TRUE(merged.is_heavy(7));

  // One interval of traffic split across 3 workers vs fed directly.
  std::vector<WorkerSketchSlab> slabs;
  slabs.reserve(3);
  for (int w = 0; w < 3; ++w) slabs.emplace_back(cfg);
  const auto heavy = merged.heavy_keys();
  ASSERT_EQ(heavy, std::vector<KeyId>{7});
  for (auto& slab : slabs) slab.set_heavy_keys(heavy);

  Xoshiro256 rng(11);
  for (int i = 0; i < 3000; ++i) {
    KeyId key = rng.next_below(150);
    if (key == 7) key = 8;  // keep the heavy key's totals hand-computable
    const Cost c = 1.0 + static_cast<double>(rng.next_below(8));
    const Bytes b = static_cast<double>(rng.next_below(32));
    direct.record(key, c, b);
    slabs[key % 3].add(key, c, b);
  }
  // Hot traffic on the heavy key through all three workers.
  for (int w = 0; w < 3; ++w) slabs[w].add(7, 100.0, 16.0);
  direct.record(7, 300.0, 48.0);

  for (const auto& slab : slabs) merged.absorb(slab);
  direct.roll();
  merged.roll();

  // Exact quantities agree to the bit where summation order is shared,
  // and to rounding where it is not.
  EXPECT_EQ(merged.num_keys(), direct.num_keys());
  EXPECT_NEAR(merged.total_windowed_state(), direct.total_windowed_state(),
              1e-6);
  // Hot tier: exact regardless of the worker partition.
  EXPECT_DOUBLE_EQ(merged.last_cost_of(7), direct.last_cost_of(7));
  EXPECT_DOUBLE_EQ(merged.last_cost_of(7), 300.0);
  EXPECT_DOUBLE_EQ(merged.windowed_state_of(7), direct.windowed_state_of(7));
  // Aggregate mass of the dense views matches (per-key values can
  // differ — the window's tracker and the slabs' trackers prune over
  // different streams here, so the two windows may promote different
  // keys — but both normalize to the same exactly-tracked cold
  // aggregate).
  std::vector<Cost> cost_d, cost_m;
  std::vector<Bytes> state_d, state_m;
  direct.synthesize_dense(cost_d, state_d);
  merged.synthesize_dense(cost_m, state_m);
  const double mass_d = std::accumulate(cost_d.begin(), cost_d.end(), 0.0);
  const double mass_m = std::accumulate(cost_m.begin(), cost_m.end(), 0.0);
  EXPECT_NEAR(mass_m, mass_d, 1e-6 * mass_d);
}

// A slab whose heavy snapshot went stale (key demoted between the
// distribution and the absorb) must not lose the mass: record() re-routes
// it to the cold tier.
TEST(SketchStatsWindow, AbsorbWithStaleHeavySnapshotKeepsMass) {
  const auto cfg = tiny_config(8);
  SketchStatsWindow window(50, 1, cfg);
  WorkerSketchSlab slab(cfg);
  slab.set_heavy_keys({42});  // never heavy in the window
  slab.add(42, 10.0, 4.0);
  slab.add(1, 5.0, 2.0);
  window.absorb(slab);
  window.roll();
  // All 15 cost units survived the merge (42's through the cold tier).
  std::vector<Cost> cost;
  std::vector<Bytes> state;
  window.synthesize_dense(cost, state);
  EXPECT_NEAR(std::accumulate(cost.begin(), cost.end(), 0.0), 15.0, 1e-9);
  EXPECT_NEAR(window.total_windowed_state(), 6.0, 1e-9);
}

// Decayed tracking must not care in which order an interval's
// observations arrived: in the eviction-free regime the candidate
// tracker is exact, so ascending and descending record orders must
// leave byte-identical windows — heavy set, decayed standing, counters
// and the synthesized dense view.
TEST(SketchStatsWindow, DecayedRollIsRecordOrderIndependent) {
  constexpr std::size_t kKeys = 200;
  SketchStatsConfig cfg = tiny_config(256, 0.01);
  cfg.decay = true;
  cfg.decay_beta = 0.5;
  SketchStatsWindow asc(kKeys, 2, cfg);
  SketchStatsWindow desc(kKeys, 2, cfg);
  for (int interval = 0; interval < 3; ++interval) {
    const auto count_of = [interval](std::size_t k) {
      return static_cast<double>((k * 7 + static_cast<std::size_t>(interval)) %
                                 5);
    };
    for (std::size_t k = 0; k < kKeys; ++k) {
      if (count_of(k) == 0.0) continue;
      asc.record(static_cast<KeyId>(k), count_of(k), 4.0 * count_of(k));
    }
    for (std::size_t k = kKeys; k-- > 0;) {
      if (count_of(k) == 0.0) continue;
      desc.record(static_cast<KeyId>(k), count_of(k), 4.0 * count_of(k));
    }
    asc.roll();
    desc.roll();
    ASSERT_EQ(asc.heavy_keys(), desc.heavy_keys()) << "interval " << interval;
    EXPECT_EQ(asc.decayed_total_cost(), desc.decayed_total_cost());
    EXPECT_EQ(asc.total_promotions(), desc.total_promotions());
    EXPECT_EQ(asc.total_demotions(), desc.total_demotions());
    std::vector<Cost> cost_a, cost_d;
    std::vector<Bytes> state_a, state_d;
    asc.synthesize_dense(cost_a, state_a);
    desc.synthesize_dense(cost_d, state_d);
    EXPECT_EQ(cost_a, cost_d) << "interval " << interval;
    EXPECT_EQ(state_a, state_d) << "interval " << interval;
  }
}

// Displacement demotion returns the victim's mass to the cold tier
// EXACTLY: scalar totals, the per-instance residual at the victim's
// recorded destination, and the windowed-state schedule (credited ring
// slots expire when the originals would have).
TEST(SketchStatsWindow, DemotedKeyMassReturnsToColdTierExactly) {
  SketchStatsConfig cfg = tiny_config(2, 0.1);
  cfg.decay = true;
  cfg.decay_beta = 0.5;
  SketchStatsWindow w(16, 2, cfg);
  StatsWindow exact(16, 2);
  const auto both = [&](KeyId key, Cost cost, Bytes bytes, InstanceId dest) {
    w.record(key, cost, bytes, dest);
    exact.record(key, cost, bytes, dest);
  };

  // Interval 0: X and Z fill the two heavy slots.
  both(/*X=*/3, 10.0, 40.0, /*dest=*/0);
  both(/*Z=*/5, 8.0, 32.0, /*dest=*/1);
  w.roll();
  exact.roll();
  ASSERT_TRUE(w.is_heavy(3));
  ASSERT_TRUE(w.is_heavy(5));

  // Interval 1: Y arrives far stronger than the weakest incumbent Z
  // (decayed standing 0.5·8 = 4 < guaranteed 100 / kDisplaceMargin), so
  // the roll displaces Z for Y while Z still holds windowed state.
  both(/*Y=*/7, 100.0, 400.0, /*dest=*/0);
  both(3, 6.0, 24.0, 0);
  w.roll();
  exact.roll();
  EXPECT_TRUE(w.is_heavy(3));
  EXPECT_TRUE(w.is_heavy(7));
  EXPECT_FALSE(w.is_heavy(5));
  EXPECT_EQ(w.last_promotions(), 1u);
  EXPECT_EQ(w.last_demotions(), 1u);
  EXPECT_EQ(w.total_promotions(), 3u);
  EXPECT_EQ(w.total_demotions(), 1u);

  // Z's 32 bytes of windowed state survived the demotion: the aggregate
  // totals stay exactly equal to the exact window's. The per-key cold
  // estimate only promises the upper-bound side — promotion cannot debit
  // individual Count-Min cells, so the demotion credit stacks on the
  // original residue.
  EXPECT_EQ(w.total_windowed_state(), exact.total_windowed_state());
  EXPECT_GE(w.windowed_state_of(5), 32.0);

  // Compact residuals: Z's state sits on its recorded destination; the
  // hot tier carries everything else, so cold cost is zero.
  std::vector<KeyId> keys;
  std::vector<Cost> hot_cost, cold_cost;
  std::vector<Bytes> hot_state, cold_state;
  w.synthesize_compact(2, keys, hot_cost, hot_state, cold_cost, cold_state);
  EXPECT_EQ(keys, (std::vector<KeyId>{3, 7}));
  EXPECT_EQ(cold_cost, (std::vector<Cost>{0.0, 0.0}));
  EXPECT_EQ(cold_state, (std::vector<Bytes>{0.0, 32.0}));

  // One more idle interval rolls Z's credited slot out of the w = 2
  // window on the schedule the mass originally accrued on.
  w.roll();
  exact.roll();
  EXPECT_EQ(w.total_windowed_state(), exact.total_windowed_state());
  EXPECT_EQ(w.windowed_state_of(5), 0.0);
}

// A marginally stronger candidate must NOT displace an incumbent — the
// kDisplaceMargin hysteresis requires a clear gap — but sustained mass
// accumulates decayed standing until the gap is clear.
TEST(SketchStatsWindow, DisplacementRequiresClearMargin) {
  SketchStatsConfig cfg = tiny_config(1, 0.0);
  cfg.decay = true;
  cfg.decay_beta = 0.5;
  SketchStatsWindow w(16, 1, cfg);
  w.record(3, 10.0, 0.0);
  w.roll();
  ASSERT_TRUE(w.is_heavy(3));

  // X's standing decays to 5; Y's guaranteed 9 ≤ 2 · 5: no displacement.
  w.record(7, 9.0, 0.0);
  w.roll();
  EXPECT_TRUE(w.is_heavy(3));
  EXPECT_FALSE(w.is_heavy(7));
  EXPECT_EQ(w.total_demotions(), 0u);

  // Another 9 compounds Y's standing to 0.5·9 + 9 = 13.5 against X's
  // 2.5: the gap is clear and Y takes the slot.
  w.record(7, 9.0, 0.0);
  w.roll();
  EXPECT_FALSE(w.is_heavy(3));
  EXPECT_TRUE(w.is_heavy(7));
  EXPECT_EQ(w.total_demotions(), 1u);
  EXPECT_EQ(w.total_promotions(), 2u);
}

// The two promotion modes backfill the promotion interval differently,
// and the difference is exactly the tracker's insertion offset: the
// legacy path writes the upper bound (count, over-debiting the cold
// aggregates by the error), the decayed path writes the guaranteed
// observation (count − error, never an over-debit).
TEST(SketchStatsWindow, BackfillUpperBoundWithoutDecayGuaranteedWithIt) {
  const auto feed = [](SketchStatsWindow& w) {
    // Nine unit-weight keys pass capacity 4's table bound of 2 × 4: the
    // ninth insert prunes at the fifth-largest count (1), dropping every
    // entry and raising the offset to 1. Key 9 then inserts at
    // offset + 50 with error 1: tracked count 51 for 50 of true mass.
    for (KeyId k = 0; k < 9; ++k) w.record(k, 1.0, 0.0);
    w.record(9, 50.0, 0.0);
    w.roll();
  };
  SketchStatsConfig cfg = tiny_config(4, 0.1);
  cfg.decay = false;
  SketchStatsWindow legacy(16, 1, cfg);
  feed(legacy);
  ASSERT_TRUE(legacy.is_heavy(9));
  EXPECT_EQ(legacy.last_cost_of(9), 51.0);

  cfg.decay = true;
  SketchStatsWindow decayed(16, 1, cfg);
  feed(decayed);
  ASSERT_TRUE(decayed.is_heavy(9));
  EXPECT_EQ(decayed.last_cost_of(9), 50.0);
}

// With decay disabled the decay-only knobs must be inert: the legacy
// path's behavior is a function of the legacy configuration alone.
TEST(SketchStatsWindow, NoDecayIgnoresDecayKnobs) {
  const auto run = [](double beta, double demote_fraction,
                      std::vector<Cost>& cost, std::vector<Bytes>& state) {
    SketchStatsConfig cfg = tiny_config(8, 0.05);
    cfg.decay = false;
    cfg.decay_beta = beta;
    cfg.demote_fraction = demote_fraction;
    SketchStatsWindow w(64, 2, cfg);
    const ZipfDistribution zipf(64, 1.0, true, 3);
    Xoshiro256 rng(17);
    for (int interval = 0; interval < 4; ++interval) {
      for (int i = 0; i < 2000; ++i) w.record(zipf.sample(rng), 1.0, 4.0);
      w.roll();
    }
    w.synthesize_dense(cost, state);
  };
  std::vector<Cost> cost_a, cost_b;
  std::vector<Bytes> state_a, state_b;
  run(0.3, 0.0, cost_a, state_a);
  run(0.9, 0.7, cost_b, state_b);
  EXPECT_EQ(cost_a, cost_b);
  EXPECT_EQ(state_a, state_b);
}

TEST(WorkerSketchSlab, AddBatchMatchesPerEntryAdd) {
  // add_batch's contract: byte-identical to add() per entry in the
  // map's iteration order, hot and cold entries alike.
  const SketchStatsConfig cfg = tiny_config();
  const std::vector<KeyId> heavy = {3, 17, 42};
  WorkerSketchSlab batched(cfg);
  WorkerSketchSlab per_entry(cfg);
  batched.set_heavy_keys(heavy);
  per_entry.set_heavy_keys(heavy);
  Xoshiro256 rng(0xba7c4ULL);
  for (int b = 0; b < 6; ++b) {
    std::unordered_map<KeyId, WorkerSketchSlab::KeyAgg> batch;
    for (int t = 0; t < 300; ++t) {
      const KeyId key = t % 10 == 0 ? heavy[static_cast<std::size_t>(t) % 3]
                                    : rng.next_below(1000);
      auto& agg = batch[key];
      agg.cost += static_cast<double>(1 + rng.next_below(4));
      agg.state_bytes += 8.0;
    }
    batched.add_batch(batch);
    for (const auto& [key, agg] : batch) {
      per_entry.add(key, agg.cost, agg.state_bytes);
    }
  }
  ByteWriter batched_bytes;
  ByteWriter per_entry_bytes;
  batched.serialize(batched_bytes);
  per_entry.serialize(per_entry_bytes);
  EXPECT_EQ(batched_bytes.take(), per_entry_bytes.take());
}

TEST(WorkerSketchSlab, ClearedMemoryBytesMatchesAClearedSlab) {
  // The threaded engine's merge thread reads cleared_memory_bytes() off a
  // sealed slab that its worker clears later: it must read exactly what
  // memory_bytes() reads after that clear().
  const SketchStatsConfig cfg = tiny_config(16);
  WorkerSketchSlab slab(cfg);
  slab.set_heavy_keys({3, 17, 42});
  Xoshiro256 rng(0xc1ea7ULL);
  for (int t = 0; t < 5'000; ++t) {
    const KeyId key = t % 7 == 0 ? 17 : rng.next_below(4'000);
    slab.add(key, 1.0 + static_cast<double>(rng.next_below(3)), 16.0);
  }
  slab.scalars().processed = 5'000;
  ASSERT_FALSE(slab.hot().empty());
  ASSERT_GT(slab.candidates().size(), 0u);
  const std::size_t filled = slab.memory_bytes();
  const std::size_t predicted = slab.cleared_memory_bytes();
  EXPECT_LT(predicted, filled);
  slab.clear();
  EXPECT_EQ(slab.memory_bytes(), predicted);
  EXPECT_EQ(slab.cleared_memory_bytes(), predicted);
}

TEST(SketchStatsWindowDeath, NegativeCostRejected) {
  SketchStatsWindow w(10, 1);
  EXPECT_DEATH(w.record(0, -1.0, 1.0), "precondition");
}

}  // namespace
}  // namespace skewless
