// Every planner must be a pure function of (snapshot, config): two
// invocations on identically-seeded inputs must produce byte-identical
// plans. Guards against unordered-container iteration, uninitialized
// reads, and hidden global state sneaking into planning decisions.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baselines/dkg.h"
#include "baselines/readj.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "core/compact.h"
#include "core/plan.h"
#include "core/planners.h"
#include "core/controller.h"
#include "engine/threaded_engine.h"
#include "net/net_engine.h"
#include "sketch/sketch_stats_window.h"
#include "sketch/worker_sketch_slab.h"
#include "test_util.h"
#include "workload/adversarial.h"
#include "workload/operators.h"
#include "workload/synthetic.h"

namespace skewless {
namespace {

using testutil::random_zipf_snapshot;

// Serializes every deterministic field of a plan into a byte string.
// generation_micros is wall-clock and deliberately excluded.
std::string plan_bytes(const RebalancePlan& plan) {
  std::string out;
  const auto append = [&out](const void* p, std::size_t n) {
    out.append(static_cast<const char*>(p), n);
  };
  for (const InstanceId d : plan.assignment) append(&d, sizeof(d));
  for (const KeyMove& m : plan.moves) {
    append(&m.key, sizeof(m.key));
    append(&m.from, sizeof(m.from));
    append(&m.to, sizeof(m.to));
    append(&m.state_bytes, sizeof(m.state_bytes));
  }
  append(&plan.table_size, sizeof(plan.table_size));
  append(&plan.migration_bytes, sizeof(plan.migration_bytes));
  append(&plan.achieved_theta, sizeof(plan.achieved_theta));
  append(&plan.balanced, sizeof(plan.balanced));
  append(&plan.table_fits, sizeof(plan.table_fits));
  return out;
}

/// The hash-only baseline: a planner-less sketch-mode controller.
std::unique_ptr<Controller> hash_only_controller(
    InstanceId workers, std::uint64_t ring_seed, std::size_t num_keys,
    const SketchStatsConfig& sketch) {
  ControllerConfig cfg;
  cfg.stats_mode = StatsMode::kSketch;
  cfg.sketch = sketch;
  return std::make_unique<Controller>(
      AssignmentFunction(ConsistentHashRing(workers, 128, ring_seed), 0),
      nullptr, cfg, num_keys);
}

PlannerPtr make_planner(const std::string& which) {
  if (which == "mintable") return std::make_unique<MinTablePlanner>();
  if (which == "minmig") return std::make_unique<MinMigPlanner>();
  if (which == "mixed") return std::make_unique<MixedPlanner>();
  if (which == "mixedbf") return std::make_unique<MixedBfPlanner>(32);
  if (which == "noadjust") return std::make_unique<LlfdNoAdjustPlanner>();
  if (which == "compact") return std::make_unique<CompactMixedPlanner>(8);
  if (which == "dkg") return std::make_unique<DkgPlanner>();
  if (which == "readj") return std::make_unique<ReadjPlanner>();
  return nullptr;
}

class PlannerDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(PlannerDeterminism, ByteIdenticalPlansAcrossInvocations) {
  PlannerConfig config;
  config.theta_max = 0.08;
  config.max_table_entries = 150;
  for (std::uint64_t seed : {17u, 99u}) {
    const auto snap_a = random_zipf_snapshot(6, 800, 0.9, seed);
    const auto snap_b = random_zipf_snapshot(6, 800, 0.9, seed);
    // The seeded snapshot generator itself must be deterministic.
    ASSERT_EQ(snap_a.cost, snap_b.cost);
    ASSERT_EQ(snap_a.state, snap_b.state);
    ASSERT_EQ(snap_a.current, snap_b.current);

    // Fresh planner instances: no state may carry over between runs.
    auto first = make_planner(GetParam());
    auto second = make_planner(GetParam());
    ASSERT_NE(first, nullptr);
    const auto plan_a = first->plan(snap_a, config);
    const auto plan_b = second->plan(snap_b, config);
    EXPECT_EQ(plan_bytes(plan_a), plan_bytes(plan_b))
        << "planner " << first->name() << " diverged on seed " << seed;

    // Re-invoking the SAME instance must also reproduce the plan.
    const auto plan_c = first->plan(snap_a, config);
    EXPECT_EQ(plan_bytes(plan_a), plan_bytes(plan_c))
        << "planner " << first->name() << " not idempotent on seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPlanners, PlannerDeterminism,
                         ::testing::Values("mintable", "minmig", "mixed",
                                           "mixedbf", "noadjust", "compact",
                                           "dkg", "readj"));

// The compact planning path's correctness anchor: on a domain where every
// key is heavy (heavy_capacity >= |K|), the compact snapshot (heavy
// entries + cold residuals, here all-zero) must drive every planner to
// the SAME plan, byte for byte, as the dense snapshot — whether the dense
// view comes from the exact provider or from the sketch provider's
// synthesize_dense. All statistics are integer-valued so every
// accumulation below is exact in floating point.
class CompactDenseEquivalence : public ::testing::TestWithParam<const char*> {
};

TEST_P(CompactDenseEquivalence, FullCoverageCompactPlansAreByteIdentical) {
  constexpr std::size_t kKeys = 500;
  constexpr InstanceId kNd = 6;
  const ConsistentHashRing ring(kNd, 128, 0x5eed);

  // Seeded routing perturbation: every 9th key carries an explicit table
  // entry, so the cleaning/move-back phases have real work to disagree
  // on if the representations were not equivalent.
  std::vector<InstanceId> hash(kKeys), current(kKeys);
  std::vector<Cost> cost(kKeys);
  std::vector<Bytes> state(kKeys);
  std::vector<std::uint64_t> freq(kKeys);
  const ZipfDistribution zipf(kKeys, 1.0, true, 11);
  const auto counts = zipf.expected_counts(kKeys * 20);
  for (std::size_t k = 0; k < kKeys; ++k) {
    hash[k] = ring.owner(static_cast<KeyId>(k));
    current[k] = (k % 9 == 0) ? static_cast<InstanceId>((hash[k] + 1) % kNd)
                              : hash[k];
    freq[k] = counts[k] + 1;  // every key active: full promotion
    cost[k] = static_cast<Cost>(freq[k]);
    state[k] = 4.0 * static_cast<Bytes>(freq[k]);
  }

  StatsWindow exact(kKeys, 1);
  SketchStatsConfig scfg;
  scfg.heavy_capacity = 1024;     // >= |K|: Space-Saving is exact
  scfg.promote_fraction = 0.0;    // every active key promotes
  SketchStatsWindow sketch(kKeys, 1, scfg);
  // Interval 1 nominates (and exactly backfills) the heavy set; interval
  // 2 rolls the backfilled window slot out, leaving every heavy value
  // exactly equal to the dense provider's.
  for (int interval = 0; interval < 2; ++interval) {
    for (std::size_t k = 0; k < kKeys; ++k) {
      const auto key = static_cast<KeyId>(k);
      exact.record(key, cost[k], state[k], freq[k], current[k]);
      sketch.record(key, cost[k], state[k], freq[k], current[k]);
    }
    exact.roll();
    sketch.roll();
  }
  ASSERT_EQ(sketch.heavy_count(), kKeys);

  const auto finish_dense = [&](PartitionSnapshot& snap) {
    snap.num_instances = kNd;
    snap.hash_dest = hash;
    snap.current = current;
  };
  PartitionSnapshot dense_e;
  exact.synthesize_dense(dense_e.cost, dense_e.state);
  finish_dense(dense_e);
  PartitionSnapshot dense_s;
  sketch.synthesize_dense(dense_s.cost, dense_s.state);
  finish_dense(dense_s);
  // With full coverage the two dense views must agree exactly — this is
  // what makes the three-way plan comparison below meaningful.
  ASSERT_EQ(dense_e.cost, dense_s.cost);
  ASSERT_EQ(dense_e.state, dense_s.state);

  PartitionSnapshot compact;
  compact.num_instances = kNd;
  sketch.synthesize_compact(kNd, compact.keys, compact.cost, compact.state,
                            compact.cold_cost, compact.cold_state);
  compact.total_keys = kKeys;
  ASSERT_EQ(compact.keys.size(), kKeys);
  compact.hash_dest.resize(kKeys);
  compact.current.resize(kKeys);
  for (std::size_t e = 0; e < kKeys; ++e) {
    compact.hash_dest[e] = hash[static_cast<std::size_t>(compact.keys[e])];
    compact.current[e] = current[static_cast<std::size_t>(compact.keys[e])];
  }
  compact.validate();
  for (const Cost c : compact.cold_cost) ASSERT_EQ(c, 0.0);
  for (const Bytes b : compact.cold_state) ASSERT_EQ(b, 0.0);

  PlannerConfig config;
  config.theta_max = 0.08;
  config.max_table_entries = 150;
  auto p_dense_e = make_planner(GetParam());
  auto p_dense_s = make_planner(GetParam());
  auto p_compact = make_planner(GetParam());
  ASSERT_NE(p_compact, nullptr);
  const auto bytes_e = plan_bytes(p_dense_e->plan(dense_e, config));
  const auto bytes_s = plan_bytes(p_dense_s->plan(dense_s, config));
  const auto bytes_c = plan_bytes(p_compact->plan(compact, config));
  EXPECT_EQ(bytes_e, bytes_s)
      << p_compact->name() << ": sketch dense view diverged from exact";
  EXPECT_EQ(bytes_e, bytes_c)
      << p_compact->name() << ": compact path diverged from dense path";
}

INSTANTIATE_TEST_SUITE_P(AllPlanners, CompactDenseEquivalence,
                         ::testing::Values("mintable", "minmig", "mixed",
                                           "mixedbf", "noadjust", "compact",
                                           "dkg", "readj"));

TEST(Determinism, SeededXoshiroStreamsAreIdentical) {
  Xoshiro256 a(12345);
  Xoshiro256 b(12345);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next());
  }
  ASSERT_EQ(a.next_double(), b.next_double());
}

// The sketch statistics provider must be a pure function of (config,
// stream): identically-seeded instances fed the same stream produce
// byte-identical estimates — the same property the planner determinism
// tests above demand, one layer down.
TEST(Determinism, SeededSketchStatsWindowIsByteIdentical) {
  const auto feed = [](SketchStatsWindow& w) {
    const ZipfDistribution zipf(5000, 1.1, true, 9);
    Xoshiro256 rng(31);
    for (int interval = 0; interval < 3; ++interval) {
      for (int i = 0; i < 20'000; ++i) {
        const KeyId key = zipf.sample(rng);
        w.record(key, 1.5, 8.0);
      }
      w.roll();
    }
  };
  SketchStatsConfig cfg;
  cfg.heavy_capacity = 128;
  SketchStatsWindow a(5000, 2, cfg);
  SketchStatsWindow b(5000, 2, cfg);
  feed(a);
  feed(b);

  ASSERT_EQ(a.heavy_count(), b.heavy_count());
  std::vector<Cost> cost_a, cost_b;
  std::vector<Bytes> state_a, state_b;
  a.synthesize_dense(cost_a, state_a);
  b.synthesize_dense(cost_b, state_b);
  ASSERT_EQ(cost_a.size(), cost_b.size());
  EXPECT_EQ(0, std::memcmp(cost_a.data(), cost_b.data(),
                           cost_a.size() * sizeof(Cost)));
  EXPECT_EQ(0, std::memcmp(state_a.data(), state_b.data(),
                           state_a.size() * sizeof(Bytes)));
  for (KeyId key = 0; key < 5000; ++key) {
    ASSERT_EQ(a.last_cost_of(key), b.last_cost_of(key));
    ASSERT_EQ(a.last_frequency_of(key), b.last_frequency_of(key));
    ASSERT_EQ(a.windowed_state_of(key), b.windowed_state_of(key));
  }
  EXPECT_EQ(a.total_windowed_state(), b.total_windowed_state());
}

// The interval-boundary merge must be a pure function of (worker
// streams, absorb order). Feeding the per-worker slabs in ANY order —
// simulating workers finishing in different orders — must leave the
// merged window byte-identical, because each slab's content depends only
// on its own stream and the driver always absorbs in worker-index order.
TEST(Determinism, WorkerSlabMergeIsByteIdenticalAcrossFinishOrders) {
  constexpr int kWorkers = 4;
  SketchStatsConfig cfg;
  cfg.heavy_capacity = 64;

  // Worker w's deterministic stream: keys partitioned w-modulo.
  const auto feed_slab = [&](WorkerSketchSlab& slab, int w) {
    const ZipfDistribution zipf(8000, 1.1, true, 13);
    Xoshiro256 rng(100 + static_cast<std::uint64_t>(w));
    for (int i = 0; i < 15'000; ++i) {
      KeyId key = zipf.sample(rng);
      key = key - (key % kWorkers) + static_cast<KeyId>(w);  // w's partition
      slab.add(key, 2.0, 8.0, 1);
    }
  };

  const auto run_into = [&](SketchStatsWindow& window,
                            const std::vector<int>& finish_order) {
    std::vector<std::unique_ptr<WorkerSketchSlab>> slabs;
    for (int w = 0; w < kWorkers; ++w) {
      slabs.push_back(std::make_unique<WorkerSketchSlab>(cfg));
    }
    for (int interval = 0; interval < 3; ++interval) {
      // "Finish order" = the order worker streams are produced; the
      // absorb below always walks worker-index order, like the driver.
      for (const int w : finish_order) feed_slab(*slabs[w], w);
      for (int w = 0; w < kWorkers; ++w) {
        window.absorb(*slabs[w]);
        slabs[w]->clear();
      }
      window.roll();
      const auto heavy = window.heavy_keys();
      for (auto& slab : slabs) slab->set_heavy_keys(heavy);
    }
  };

  SketchStatsWindow wa(8000, 2, cfg), wb(8000, 2, cfg);
  run_into(wa, {0, 1, 2, 3});
  run_into(wb, {2, 3, 1, 0});
  ASSERT_EQ(wa.heavy_keys(), wb.heavy_keys());
  std::vector<Cost> cost_a, cost_b;
  std::vector<Bytes> state_a, state_b;
  wa.synthesize_dense(cost_a, state_a);
  wb.synthesize_dense(cost_b, state_b);
  ASSERT_EQ(cost_a.size(), cost_b.size());
  EXPECT_EQ(0, std::memcmp(cost_a.data(), cost_b.data(),
                           cost_a.size() * sizeof(Cost)));
  EXPECT_EQ(0, std::memcmp(state_a.data(), state_b.data(),
                           state_a.size() * sizeof(Bytes)));
  EXPECT_EQ(wa.total_windowed_state(), wb.total_windowed_state());
}

// Repeated-run determinism with REAL threads: two sketch-mode
// ThreadedEngine runs over the same seeded workload must synthesize
// byte-identical dense statistics, no matter how the OS schedules the
// workers — the slab contents depend only on the (deterministic)
// routing, and the boundary merge absorbs them in worker-index order.
TEST(Determinism, ThreadedSketchStatsAreByteIdenticalAcrossRuns) {
  const auto run = [](std::vector<Cost>& cost, std::vector<Bytes>& state) {
    ZipfFluctuatingSource::Options opts;
    opts.num_keys = 20'000;
    opts.skew = 1.1;
    opts.tuples_per_interval = 60'000;
    opts.fluctuation = 0.5;
    opts.seed = 77;
    ZipfFluctuatingSource source(opts);

    SketchStatsConfig sketch_cfg;
    sketch_cfg.heavy_capacity = 256;
    ThreadedEngine engine(
        ThreadedConfig{}, std::make_shared<WordCountLogic>(),
        hash_only_controller(4, 3, opts.num_keys, sketch_cfg));
    engine.run(source, 3, /*seed=*/9);
    const auto* sketch =
        dynamic_cast<const SketchStatsWindow*>(&engine.controller()->stats());
    ASSERT_NE(sketch, nullptr);
    sketch->synthesize_dense(cost, state);
    const auto heavy = sketch->heavy_keys();
    engine.shutdown();
    ASSERT_GT(heavy.size(), 0u);
  };

  std::vector<Cost> cost_a, cost_b;
  std::vector<Bytes> state_a, state_b;
  run(cost_a, state_a);
  run(cost_b, state_b);
  ASSERT_EQ(cost_a.size(), cost_b.size());
  EXPECT_EQ(0, std::memcmp(cost_a.data(), cost_b.data(),
                           cost_a.size() * sizeof(Cost)));
  EXPECT_EQ(0, std::memcmp(state_a.data(), state_b.data(),
                           state_a.size() * sizeof(Bytes)));
}

// The asynchronous boundary merge must be invisible in the statistics:
// double-buffered runs (SealMsg swap + merge-thread absorb overlapping
// the next interval) must synthesize BYTE-IDENTICAL dense views, heavy
// sets and totals to the inline quiesce-and-merge baseline. Small batch
// sizes multiply the seal/merge interleavings the OS can produce (many
// in-flight messages per boundary), and several worker counts vary the
// slab/merge fan-in; every combination must collapse to the same bytes
// because the merge input is exactly the sealed epoch, absorbed in
// worker-index order, and workers install each epoch's heavy set at the
// same stream position the inline schedule would.
TEST(Determinism, DoubleBufferedMergeMatchesInlineBaseline) {
  const auto run = [](bool async_merge, InstanceId workers,
                      std::size_t batch, std::vector<Cost>& cost,
                      std::vector<Bytes>& state, std::vector<KeyId>& heavy,
                      Bytes& total_state) {
    ZipfFluctuatingSource::Options opts;
    opts.num_keys = 10'000;
    opts.skew = 1.1;
    opts.tuples_per_interval = 30'000;
    opts.fluctuation = 0.5;
    opts.seed = 41;
    ZipfFluctuatingSource source(opts);

    ThreadedConfig cfg;
    cfg.batch_size = batch;
    cfg.async_merge = async_merge;
    SketchStatsConfig sketch_cfg;
    sketch_cfg.heavy_capacity = 128;
    ThreadedEngine engine(cfg, std::make_shared<WordCountLogic>(),
                          hash_only_controller(workers, 3, opts.num_keys,
                                               sketch_cfg));
    engine.run(source, 3, /*seed=*/9);
    const auto* sketch =
        dynamic_cast<const SketchStatsWindow*>(&engine.controller()->stats());
    ASSERT_NE(sketch, nullptr);
    sketch->synthesize_dense(cost, state);
    heavy = sketch->heavy_keys();
    total_state = sketch->total_windowed_state();
    engine.shutdown();
  };

  for (const InstanceId workers : {2, 3, 4}) {
    for (const std::size_t batch : {16ul, 256ul}) {
      std::vector<Cost> cost_inline, cost_async;
      std::vector<Bytes> state_inline, state_async;
      std::vector<KeyId> heavy_inline, heavy_async;
      Bytes total_inline = 0.0, total_async = 0.0;
      run(false, workers, batch, cost_inline, state_inline, heavy_inline,
          total_inline);
      run(true, workers, batch, cost_async, state_async, heavy_async,
          total_async);
      ASSERT_GT(heavy_inline.size(), 0u);
      EXPECT_EQ(heavy_inline, heavy_async)
          << "workers=" << workers << " batch=" << batch;
      ASSERT_EQ(cost_inline.size(), cost_async.size());
      EXPECT_EQ(0, std::memcmp(cost_inline.data(), cost_async.data(),
                               cost_inline.size() * sizeof(Cost)))
          << "workers=" << workers << " batch=" << batch;
      EXPECT_EQ(0, std::memcmp(state_inline.data(), state_async.data(),
                               state_inline.size() * sizeof(Bytes)))
          << "workers=" << workers << " batch=" << batch;
      EXPECT_EQ(total_inline, total_async);
    }
  }
}

// Every adversarial attack is documented as a pure function of
// (options, interval index): equal options must emit byte-identical
// streams, and counts_for must be exactly what next_interval replays.
TEST(Determinism, AdversarialSourcesArePureFunctions) {
  for (const AttackKind attack : all_attacks()) {
    AdversarialSource::Options opts;
    opts.attack = attack;
    opts.num_keys = 2'000;
    opts.tuples_per_interval = 20'000;
    opts.seed = 23;
    opts.rotation_period = 2;
    opts.hot_keys_per_group = 16;
    opts.churn_active = 256;  // defaults assume a larger domain
    opts.churn_shift = 128;
    opts.sketch.epsilon = 0.05;  // coarse family: collisions exist
    AdversarialSource a(opts);
    AdversarialSource b(opts);
    for (std::int64_t i = 0; i < 6; ++i) {
      const auto counts = a.counts_for(i);
      EXPECT_EQ(counts.counts, b.counts_for(i).counts)
          << attack_name(attack) << " interval " << i;
      EXPECT_EQ(counts.counts, a.next_interval().counts)
          << attack_name(attack) << " interval " << i;
    }
    EXPECT_EQ(a.colliding_keys(), b.colliding_keys());
  }
}

// The decayed tracker must be schedule-independent: feeding a rotating
// adversarial stream through the driver's direct record path (what the
// sim engine does) and through per-worker slabs absorbed in worker-index
// order (what the threaded engine does) must leave byte-identical
// windows. Run in the eviction-free regime (heavy capacity ≥ |K|), where
// the SpaceSaving and MisraGries candidate trackers are both exact, so
// any divergence is a real scheduling leak — promotion, displacement and
// decayed demotion all run driver-side and must not care where the
// stream was aggregated.
TEST(Determinism, AdversarialDirectRecordMatchesSlabAbsorbWithDecay) {
  constexpr int kWorkers = 3;
  AdversarialSource::Options aopts;
  aopts.attack = AttackKind::kRotatingHotSet;
  aopts.num_keys = 512;
  aopts.tuples_per_interval = 20'000;
  aopts.seed = 5;
  aopts.rotation_period = 2;
  aopts.hot_groups = 4;
  aopts.hot_keys_per_group = 16;
  AdversarialSource source(aopts);

  SketchStatsConfig cfg;
  cfg.heavy_capacity = 600;  // ≥ |K|: candidate trackers are exact
  cfg.decay = true;
  cfg.decay_beta = 0.8;

  SketchStatsWindow direct(aopts.num_keys, 2, cfg);
  SketchStatsWindow merged(aopts.num_keys, 2, cfg);
  std::vector<std::unique_ptr<WorkerSketchSlab>> slabs;
  for (int w = 0; w < kWorkers; ++w) {
    slabs.push_back(std::make_unique<WorkerSketchSlab>(cfg));
  }

  for (std::int64_t interval = 0; interval < 8; ++interval) {
    const auto load = source.counts_for(interval);
    for (std::size_t k = 0; k < load.counts.size(); ++k) {
      if (load.counts[k] == 0) continue;
      const auto key = static_cast<KeyId>(k);
      const auto n = static_cast<double>(load.counts[k]);
      const int w = static_cast<int>(k % kWorkers);
      direct.record(key, n, 4.0 * n, load.counts[k],
                    static_cast<InstanceId>(w));
      slabs[static_cast<std::size_t>(w)]->add(key, n, 4.0 * n,
                                              load.counts[k]);
    }
    for (int w = 0; w < kWorkers; ++w) {
      merged.absorb(*slabs[static_cast<std::size_t>(w)],
                    static_cast<InstanceId>(w));
      slabs[static_cast<std::size_t>(w)]->clear();
    }
    direct.roll();
    merged.roll();
    const auto heavy = merged.heavy_keys();
    ASSERT_EQ(direct.heavy_keys(), heavy) << "interval " << interval;
    for (auto& slab : slabs) slab->set_heavy_keys(heavy);

    std::vector<Cost> cost_d, cost_m;
    std::vector<Bytes> state_d, state_m;
    direct.synthesize_dense(cost_d, state_d);
    merged.synthesize_dense(cost_m, state_m);
    ASSERT_EQ(cost_d.size(), cost_m.size());
    EXPECT_EQ(0, std::memcmp(cost_d.data(), cost_m.data(),
                             cost_d.size() * sizeof(Cost)))
        << "interval " << interval;
    EXPECT_EQ(0, std::memcmp(state_d.data(), state_m.data(),
                             state_d.size() * sizeof(Bytes)))
        << "interval " << interval;
    EXPECT_EQ(direct.total_windowed_state(), merged.total_windowed_state());
    EXPECT_EQ(direct.total_promotions(), merged.total_promotions());
    EXPECT_EQ(direct.total_demotions(), merged.total_demotions());
  }
}

// Real threads under adversarial load, decay enabled: the inline
// quiesce-and-merge schedule, the asynchronous double-buffered merge,
// and a repeat of the async run must all synthesize byte-identical
// statistics — hot-set jumps at interval boundaries (promotion bursts,
// displacement, demotion) are exactly where a schedule-dependent merge
// would first diverge.
TEST(Determinism, AdversarialThreadedRunsAreByteIdentical) {
  const auto run = [](AttackKind attack, bool async_merge,
                      std::vector<Cost>& cost, std::vector<Bytes>& state,
                      std::vector<KeyId>& heavy) {
    AdversarialSource::Options opts;
    opts.attack = attack;
    opts.num_keys = 4'000;
    opts.tuples_per_interval = 15'000;
    opts.seed = 31;
    opts.rotation_period = 1;  // a jump at every boundary
    opts.hot_keys_per_group = 32;
    AdversarialSource source(opts);

    ThreadedConfig cfg;
    cfg.batch_size = 32;
    cfg.async_merge = async_merge;
    SketchStatsConfig sketch_cfg;
    sketch_cfg.heavy_capacity = 128;
    sketch_cfg.decay = true;
    sketch_cfg.decay_beta = 0.8;
    ThreadedEngine engine(cfg, std::make_shared<WordCountLogic>(),
                          hash_only_controller(3, 3, opts.num_keys,
                                               sketch_cfg));
    engine.run(source, 4, /*seed=*/9);
    const auto* sketch =
        dynamic_cast<const SketchStatsWindow*>(&engine.controller()->stats());
    ASSERT_NE(sketch, nullptr);
    sketch->synthesize_dense(cost, state);
    heavy = sketch->heavy_keys();
    engine.shutdown();
  };

  for (const AttackKind attack :
       {AttackKind::kRotatingHotSet, AttackKind::kSkewFlip}) {
    std::vector<Cost> cost_inline, cost_async, cost_again;
    std::vector<Bytes> state_inline, state_async, state_again;
    std::vector<KeyId> heavy_inline, heavy_async, heavy_again;
    run(attack, false, cost_inline, state_inline, heavy_inline);
    run(attack, true, cost_async, state_async, heavy_async);
    run(attack, true, cost_again, state_again, heavy_again);
    ASSERT_GT(heavy_inline.size(), 0u);
    EXPECT_EQ(heavy_inline, heavy_async) << attack_name(attack);
    EXPECT_EQ(heavy_async, heavy_again) << attack_name(attack);
    ASSERT_EQ(cost_inline.size(), cost_async.size());
    EXPECT_EQ(0, std::memcmp(cost_inline.data(), cost_async.data(),
                             cost_inline.size() * sizeof(Cost)))
        << attack_name(attack);
    EXPECT_EQ(0, std::memcmp(cost_async.data(), cost_again.data(),
                             cost_async.size() * sizeof(Cost)))
        << attack_name(attack);
    EXPECT_EQ(0, std::memcmp(state_inline.data(), state_async.data(),
                             state_inline.size() * sizeof(Bytes)))
        << attack_name(attack);
    EXPECT_EQ(0, std::memcmp(state_async.data(), state_again.data(),
                             state_async.size() * sizeof(Bytes)))
        << attack_name(attack);
  }
}

// The distributed engine's headline contract: a net run (N forked worker
// PROCESSES over loopback sockets) is byte-identical to a ThreadedEngine
// run on the same seed — same plan history digest, same θ trajectory (bit
// patterns, not approximate), same state checksums and output counts. The
// chain that makes this true: identical tuple expansion/shuffle, identical
// per-batch fold order (both engines reserve the same scratch-map
// capacity), deterministic slab serialization, and summaries absorbed in
// worker-index order on both sides.
TEST(Determinism, NetRunIsByteIdenticalToThreadedRun) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "fork-based engine is not TSan-instrumentable";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  GTEST_SKIP() << "fork-based engine is not TSan-instrumentable";
#endif
#endif
  struct RunResult {
    std::vector<double> thetas;
    std::uint64_t plan_digest = 0;
    std::size_t rebalances = 0;
    std::uint64_t checksum = 0;
    std::size_t entries = 0;
    std::uint64_t processed = 0;
    std::uint64_t outputs = 0;
  };

  const InstanceId kWorkers = 3;
  const int kIntervals = 4;
  const auto make_source = [] {
    ZipfFluctuatingSource::Options opts;
    opts.num_keys = 5'000;
    opts.skew = 1.1;
    opts.tuples_per_interval = 20'000;
    opts.fluctuation = 0.5;
    opts.seed = 77;
    return ZipfFluctuatingSource(opts);
  };
  const auto make_controller = [&](std::size_t num_keys) {
    ControllerConfig ccfg;
    ccfg.planner.theta_max = 0.08;
    ccfg.stats_mode = StatsMode::kSketch;
    ccfg.sketch.heavy_capacity = 256;
    return std::make_unique<Controller>(
        AssignmentFunction(ConsistentHashRing(kWorkers), 0),
        std::make_unique<MixedPlanner>(), ccfg, num_keys);
  };

  // Threaded run first, fully shut down (threads joined, engine
  // destroyed) BEFORE the net engine forks: fork-before-threads.
  RunResult threaded;
  {
    auto source = make_source();
    ThreadedConfig tcfg;
    tcfg.num_workers = kWorkers;
    tcfg.batch_size = 64;
    tcfg.stats_mode = StatsMode::kSketch;
    ThreadedEngine engine(tcfg, std::make_shared<WordCountLogic>(),
                          make_controller(source.num_keys()));
    const auto reports = engine.run(source, kIntervals, /*seed=*/9);
    for (const auto& r : reports) threaded.thetas.push_back(r.max_theta);
    threaded.plan_digest = engine.controller()->plan_history_digest();
    threaded.rebalances = engine.controller()->rebalance_count();
    engine.shutdown();
    threaded.checksum = engine.state_checksum();
    threaded.entries = engine.total_state_entries();
    threaded.processed = engine.total_processed();
    threaded.outputs = engine.total_output_tuples();
  }

  RunResult net;
  {
    auto source = make_source();
    NetConfig ncfg;
    ncfg.batch_size = 64;
    NetEngine engine(ncfg, std::make_shared<WordCountLogic>(),
                     make_controller(source.num_keys()));
    const auto reports = engine.run(source, kIntervals, /*seed=*/9);
    ASSERT_TRUE(engine.ok()) << engine.error();
    for (const auto& r : reports) net.thetas.push_back(r.max_theta);
    net.plan_digest = engine.controller()->plan_history_digest();
    net.rebalances = engine.controller()->rebalance_count();
    engine.shutdown();
    ASSERT_TRUE(engine.ok()) << engine.error();
    net.checksum = engine.state_checksum();
    net.entries = engine.total_state_entries();
    net.processed = engine.total_processed();
    net.outputs = engine.total_output_tuples();
  }

  ASSERT_GT(threaded.rebalances, 0u);
  EXPECT_EQ(threaded.rebalances, net.rebalances);
  EXPECT_EQ(threaded.plan_digest, net.plan_digest);
  ASSERT_EQ(threaded.thetas.size(), net.thetas.size());
  // Bit-pattern equality, not EXPECT_DOUBLE_EQ: the contract is
  // byte-identical, and θ is a quotient of sketch-derived sums.
  EXPECT_EQ(0, std::memcmp(threaded.thetas.data(), net.thetas.data(),
                           threaded.thetas.size() * sizeof(double)));
  EXPECT_EQ(threaded.checksum, net.checksum);
  EXPECT_EQ(threaded.entries, net.entries);
  EXPECT_EQ(threaded.processed, net.processed);
  EXPECT_EQ(threaded.outputs, net.outputs);
}

TEST(Determinism, SeededZipfSamplesAreIdentical) {
  const ZipfDistribution zipf_a(500, 0.9, true, 7);
  const ZipfDistribution zipf_b(500, 0.9, true, 7);
  EXPECT_EQ(zipf_a.expected_counts(5000), zipf_b.expected_counts(5000));
  Xoshiro256 rng_a(42);
  Xoshiro256 rng_b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(zipf_a.sample(rng_a), zipf_b.sample(rng_b));
  }
}

}  // namespace
}  // namespace skewless
