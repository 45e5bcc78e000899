#include "engine/threaded_engine.h"

#include <gtest/gtest.h>

#include "core/planners.h"
#include "core/sharded_controller.h"
#include "workload/operators.h"
#include "workload/synthetic.h"

namespace skewless {
namespace {

std::unique_ptr<Controller> make_controller(
    InstanceId nd, std::size_t num_keys, double theta_max,
    StatsMode stats_mode = StatsMode::kExact) {
  ControllerConfig cfg;
  cfg.planner.theta_max = theta_max;
  cfg.planner.max_table_entries = 0;
  cfg.stats_mode = stats_mode;
  cfg.sketch.heavy_capacity = 256;
  return std::make_unique<Controller>(
      AssignmentFunction(ConsistentHashRing(nd, 128, 11), 0),
      std::make_unique<MixedPlanner>(), cfg, num_keys);
}

std::vector<Tuple> make_tuples(std::size_t n, std::size_t num_keys,
                               std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Tuple> tuples(n);
  for (std::size_t i = 0; i < n; ++i) {
    tuples[i].key = rng.next_below(num_keys);
    tuples[i].value = static_cast<std::int64_t>(i);
  }
  return tuples;
}

TEST(ThreadedEngine, ProcessesEveryTuple) {
  ThreadedEngine engine(ThreadedConfig{}, std::make_shared<WordCountLogic>(),
                        make_controller(3, 100, 0.5));
  const auto tuples = make_tuples(10'000, 100, 1);
  const auto report = engine.run_interval(tuples);
  EXPECT_EQ(report.emitted, 10'000u);
  EXPECT_EQ(report.processed, 10'000u);
  engine.shutdown();
  EXPECT_EQ(engine.total_processed(), 10'000u);
}

TEST(ThreadedEngine, WordCountStateMatchesInput) {
  ThreadedEngine engine(ThreadedConfig{}, std::make_shared<WordCountLogic>(),
                        make_controller(4, 50, 0.5));
  std::vector<Tuple> tuples;
  for (int rep = 0; rep < 7; ++rep) {
    for (KeyId k = 0; k < 50; ++k) {
      tuples.push_back(Tuple{k, static_cast<std::int64_t>(rep), 0, 0});
    }
  }
  engine.run_interval(tuples);
  engine.shutdown();
  EXPECT_EQ(engine.total_state_entries(), 50u);
  EXPECT_EQ(engine.total_output_tuples(), 7u * 50u);
}

TEST(ThreadedEngine, HashOnlyModeWorksWithoutController) {
  ThreadedEngine engine(ThreadedConfig{}, std::make_shared<WordCountLogic>(),
                        /*num_workers_for_ring=*/4, /*ring_seed=*/7);
  const auto tuples = make_tuples(5'000, 64, 2);
  const auto report = engine.run_interval(tuples);
  EXPECT_EQ(report.processed, 5'000u);
  EXPECT_FALSE(report.migrated);
  engine.shutdown();
}

TEST(ThreadedEngine, MigrationPreservesStateExactly) {
  // Run the same skewed workload with and without rebalancing; the final
  // global state checksum must be identical — migration moves state, it
  // never loses or duplicates it.
  const std::size_t num_keys = 200;
  const auto make_input = [&](std::uint64_t seed) {
    // Heavy skew: key k appears ~1000/(k+1) times.
    std::vector<Tuple> tuples;
    Xoshiro256 rng(seed);
    for (KeyId k = 0; k < num_keys; ++k) {
      const int n = static_cast<int>(1000 / (k + 1) + 1);
      for (int i = 0; i < n; ++i) {
        tuples.push_back(
            Tuple{k, static_cast<std::int64_t>(k * 1000 + i), 0, 0});
      }
    }
    for (std::size_t j = tuples.size(); j > 1; --j) {
      std::swap(tuples[j - 1], tuples[rng.next_below(j)]);
    }
    return tuples;
  };

  std::uint64_t checksum_rebalanced;
  std::uint64_t outputs_rebalanced;
  {
    ThreadedEngine engine(ThreadedConfig{},
                          std::make_shared<WordCountLogic>(),
                          make_controller(4, num_keys, 0.02));
    std::uint64_t migrations = 0;
    for (int interval = 0; interval < 5; ++interval) {
      const auto report = engine.run_interval(make_input(interval));
      migrations += report.migrated ? 1 : 0;
    }
    EXPECT_GT(migrations, 0u) << "test needs at least one migration";
    engine.shutdown();
    checksum_rebalanced = engine.state_checksum();
    outputs_rebalanced = engine.total_output_tuples();
  }

  std::uint64_t checksum_static;
  std::uint64_t outputs_static;
  {
    ThreadedEngine engine(ThreadedConfig{},
                          std::make_shared<WordCountLogic>(),
                          /*num_workers_for_ring=*/4, /*ring_seed=*/11);
    for (int interval = 0; interval < 5; ++interval) {
      engine.run_interval(make_input(interval));
    }
    engine.shutdown();
    checksum_static = engine.state_checksum();
    outputs_static = engine.total_output_tuples();
  }

  EXPECT_EQ(checksum_rebalanced, checksum_static);
  EXPECT_EQ(outputs_rebalanced, outputs_static);
}

TEST(ThreadedEngine, MigrationMovesKeysToPlannedWorkers) {
  auto controller = make_controller(3, 60, 0.02);
  Controller* ctrl = controller.get();
  ThreadedEngine engine(ThreadedConfig{}, std::make_shared<WordCountLogic>(),
                        std::move(controller));
  // Interval 1: all load on the instance that owns key 0.
  std::vector<Tuple> tuples;
  const InstanceId hot = ctrl->assignment()(0);
  for (KeyId k = 0; k < 60; ++k) {
    if (ctrl->assignment()(k) != hot) continue;
    for (int i = 0; i < 200; ++i) {
      tuples.push_back(Tuple{k, 1, 0, 0});
    }
  }
  const auto report = engine.run_interval(tuples);
  EXPECT_TRUE(report.migrated);
  EXPECT_GT(report.moves, 0u);
  engine.shutdown();
  // All per-key states exist exactly once globally.
  EXPECT_GT(engine.total_state_entries(), 0u);
}

TEST(ThreadedEngine, SelfJoinEmitsMatches) {
  ThreadedEngine engine(ThreadedConfig{},
                        std::make_shared<SelfJoinLogic>(1.0, 0.01, 1024),
                        make_controller(2, 10, 0.5));
  std::vector<Tuple> tuples;
  for (int i = 0; i < 100; ++i) {
    tuples.push_back(Tuple{5, i % 2, 0, 0});  // same key, alternating parity
  }
  engine.run_interval(tuples);
  engine.shutdown();
  EXPECT_GT(engine.total_output_tuples(), 0u);
}

TEST(ThreadedEngine, RunWithSourceExpandsCounts) {
  ZipfFluctuatingSource::Options opts;
  opts.num_keys = 128;
  opts.tuples_per_interval = 20'000;
  opts.fluctuation = 0.5;
  ZipfFluctuatingSource source(opts);
  ThreadedEngine engine(ThreadedConfig{}, std::make_shared<WordCountLogic>(),
                        make_controller(4, 128, 0.1));
  const auto reports = engine.run(source, 3);
  ASSERT_EQ(reports.size(), 3u);
  for (const auto& r : reports) {
    EXPECT_EQ(r.emitted, 20'000u);
    EXPECT_EQ(r.processed, 20'000u);
    EXPECT_GT(r.throughput_tps, 0.0);
  }
  engine.shutdown();
}

TEST(ThreadedEngine, ExpiryMessagesShrinkWindows) {
  ThreadedConfig cfg;
  cfg.expire_lag_intervals = 1;
  ThreadedEngine engine(cfg, std::make_shared<SelfJoinLogic>(1.0, 0.01, 1 << 20),
                        make_controller(2, 4, 0.9));
  // Tuples with old timestamps: after the interval, the expiry watermark
  // passes them and the window shrinks.
  std::vector<Tuple> tuples(500, Tuple{1, 7, 0, 0});
  engine.run_interval(tuples);
  engine.run_interval({});  // watermark advances past the tuples
  engine.run_interval({});
  engine.shutdown();
  // State entry still exists but its window emptied.
  EXPECT_EQ(engine.total_state_entries(), 1u);
}

TEST(ThreadedEngine, SerializedMigrationPreservesState) {
  // Same workload with in-process pointer moves vs full byte round-trips:
  // identical final state.
  const auto run_with = [](bool serialize) {
    ThreadedConfig cfg;
    cfg.serialize_migration = serialize;
    ThreadedEngine engine(cfg, std::make_shared<WordCountLogic>(),
                          make_controller(4, 100, 0.02));
    Bytes wire = 0.0;
    std::uint64_t migrations = 0;
    for (int interval = 0; interval < 4; ++interval) {
      std::vector<Tuple> tuples;
      for (KeyId k = 0; k < 100; ++k) {
        const int n = static_cast<int>(500 / (k + 1) + 1);
        for (int i = 0; i < n; ++i) {
          tuples.push_back(
              Tuple{k, static_cast<std::int64_t>(interval * 7 + i), 0, 0});
        }
      }
      const auto report = engine.run_interval(tuples);
      wire += report.migration_wire_bytes;
      migrations += report.migrated ? 1 : 0;
    }
    engine.shutdown();
    return std::make_tuple(engine.state_checksum(), wire, migrations);
  };

  const auto [sum_plain, wire_plain, mig_plain] = run_with(false);
  const auto [sum_serde, wire_serde, mig_serde] = run_with(true);
  EXPECT_EQ(sum_plain, sum_serde);
  EXPECT_EQ(wire_plain, 0.0);
  EXPECT_GT(mig_serde, 0u);
  EXPECT_GT(wire_serde, 0.0);  // real bytes crossed the codec
}

TEST(ThreadedEngine, SketchModeHashOnlyTracksHeavyKeysViaSlabs) {
  ThreadedConfig cfg;
  cfg.stats_mode = StatsMode::kSketch;
  cfg.sketch.heavy_capacity = 64;
  ThreadedEngine engine(cfg, std::make_shared<WordCountLogic>(),
                        /*num_workers_for_ring=*/4, /*ring_seed=*/7);
  // Two intervals of heavy skew: key k carries ~2000/(k+1) tuples.
  std::uint64_t expected = 0;
  for (int interval = 0; interval < 2; ++interval) {
    std::vector<Tuple> tuples;
    for (KeyId k = 0; k < 500; ++k) {
      const int n = static_cast<int>(2000 / (k + 1) + 1);
      for (int i = 0; i < n; ++i) {
        tuples.push_back(Tuple{k, static_cast<std::int64_t>(i), 0, 0});
      }
    }
    expected += tuples.size();
    const auto report = engine.run_interval(tuples);
    EXPECT_GT(report.stats_memory_bytes, 0u);
  }
  const auto* sketch =
      dynamic_cast<const ShardedSketchStats*>(&engine.state_tracker());
  ASSERT_NE(sketch, nullptr);
  // The hottest keys were promoted out of the worker slabs' candidate
  // union, and their exact hot-tier stats match the true per-key cost
  // (WordCountLogic reports cost 1 per tuple).
  EXPECT_GT(sketch->heavy_keys().size(), 0u);
  EXPECT_TRUE(sketch->shard(0).is_heavy(0));
  EXPECT_DOUBLE_EQ(sketch->last_cost_of(0), 2001.0);
  EXPECT_EQ(sketch->last_frequency_of(0), 2001u);
  engine.shutdown();
  EXPECT_EQ(engine.total_processed(), expected);
}

TEST(ThreadedEngine, SketchModeControllerMigratesAndPreservesState) {
  // Same skewed workload under exact and sketch statistics: both must
  // trigger migrations, and the final global state must be identical —
  // the statistics path influences *planning*, never state ownership.
  const std::size_t num_keys = 200;
  const auto make_input = [&](std::uint64_t seed) {
    std::vector<Tuple> tuples;
    Xoshiro256 rng(seed);
    for (KeyId k = 0; k < num_keys; ++k) {
      const int n = static_cast<int>(1000 / (k + 1) + 1);
      for (int i = 0; i < n; ++i) {
        tuples.push_back(
            Tuple{k, static_cast<std::int64_t>(k * 1000 + i), 0, 0});
      }
    }
    for (std::size_t j = tuples.size(); j > 1; --j) {
      std::swap(tuples[j - 1], tuples[rng.next_below(j)]);
    }
    return tuples;
  };

  const auto run_with = [&](StatsMode mode) {
    ThreadedEngine engine(ThreadedConfig{},
                          std::make_shared<WordCountLogic>(),
                          make_controller(4, num_keys, 0.02, mode));
    std::uint64_t migrations = 0;
    for (int interval = 0; interval < 5; ++interval) {
      migrations += engine.run_interval(make_input(interval)).migrated ? 1 : 0;
    }
    engine.shutdown();
    return std::make_pair(engine.state_checksum(), migrations);
  };

  const auto [sum_exact, mig_exact] = run_with(StatsMode::kExact);
  const auto [sum_sketch, mig_sketch] = run_with(StatsMode::kSketch);
  EXPECT_GT(mig_exact, 0u);
  EXPECT_GT(mig_sketch, 0u) << "sketch stats must still drive rebalancing";
  EXPECT_EQ(sum_exact, sum_sketch);
}

TEST(ThreadedEngine, SealSwapKeepsStatsExactAcrossEpochs) {
  // The double-buffered seal path must deliver the same per-epoch
  // statistics contract as the inline merge: after each run_interval the
  // merged window reflects exactly the closed epoch (scalars included —
  // they ride the sealed slab, not a mutex), and the hot tier stays
  // exact across the buffer alternation (epoch 1 seals buffer 0, epoch 2
  // buffer 1, epoch 3 buffer 0 again).
  ThreadedConfig cfg;
  cfg.stats_mode = StatsMode::kSketch;
  cfg.sketch.heavy_capacity = 64;
  cfg.batch_size = 8;  // many in-flight messages per boundary
  cfg.async_merge = true;
  ThreadedEngine engine(cfg, std::make_shared<WordCountLogic>(),
                        /*num_workers_for_ring=*/4, /*ring_seed=*/7);
  for (int interval = 0; interval < 3; ++interval) {
    std::vector<Tuple> tuples;
    for (KeyId k = 0; k < 200; ++k) {
      const int n = static_cast<int>(1000 / (k + 1) + 1);
      for (int i = 0; i < n; ++i) {
        tuples.push_back(Tuple{k, static_cast<std::int64_t>(i), 0, 0});
      }
    }
    const auto report = engine.run_interval(tuples);
    // Scalars harvested from the sealed slabs must cover every tuple of
    // the epoch — a gap here means a batch was folded into the wrong
    // buffer or read before its seal.
    EXPECT_EQ(report.processed, report.emitted);
    EXPECT_GT(report.stats_memory_bytes, 0u);
    EXPECT_GE(report.stall_ms, 0.0);
    EXPECT_GE(report.merge_ms, 0.0);
  }
  const auto* sketch =
      dynamic_cast<const ShardedSketchStats*>(&engine.state_tracker());
  ASSERT_NE(sketch, nullptr);
  EXPECT_TRUE(sketch->shard(0).is_heavy(0));
  EXPECT_DOUBLE_EQ(sketch->last_cost_of(0), 1001.0);
  EXPECT_EQ(sketch->last_frequency_of(0), 1001u);
  engine.shutdown();
}

TEST(ThreadedEngine, AsyncAndInlineMergeAgreeUnderController) {
  // Same skewed workload, controller-driven migrations, both buffer
  // modes: the planner sees the identical merged epoch either way, so
  // the plans, the migrations and the final global state must coincide.
  const std::size_t num_keys = 200;
  const auto make_input = [&](std::uint64_t seed) {
    std::vector<Tuple> tuples;
    Xoshiro256 rng(seed);
    for (KeyId k = 0; k < num_keys; ++k) {
      const int n = static_cast<int>(1000 / (k + 1) + 1);
      for (int i = 0; i < n; ++i) {
        tuples.push_back(
            Tuple{k, static_cast<std::int64_t>(k * 1000 + i), 0, 0});
      }
    }
    for (std::size_t j = tuples.size(); j > 1; --j) {
      std::swap(tuples[j - 1], tuples[rng.next_below(j)]);
    }
    return tuples;
  };

  const auto run_with = [&](bool async_merge) {
    ThreadedConfig cfg;
    cfg.async_merge = async_merge;
    cfg.batch_size = 32;
    ThreadedEngine engine(cfg, std::make_shared<WordCountLogic>(),
                          make_controller(4, num_keys, 0.02,
                                          StatsMode::kSketch));
    std::uint64_t migrations = 0;
    std::size_t moves = 0;
    for (int interval = 0; interval < 5; ++interval) {
      const auto report = engine.run_interval(make_input(interval));
      migrations += report.migrated ? 1 : 0;
      moves += report.moves;
    }
    engine.shutdown();
    return std::make_tuple(engine.state_checksum(), migrations, moves);
  };

  const auto [sum_inline, mig_inline, moves_inline] = run_with(false);
  const auto [sum_async, mig_async, moves_async] = run_with(true);
  EXPECT_GT(mig_async, 0u) << "async merge must still drive rebalancing";
  EXPECT_EQ(mig_inline, mig_async);
  EXPECT_EQ(moves_inline, moves_async);
  EXPECT_EQ(sum_inline, sum_async);
}

TEST(ThreadedEngine, RollTimeIsPartOfTheBoundaryStall) {
  // roll_ms times Controller::end_interval, which runs on the driver
  // inside the boundary under either merge mode, so it is positive on
  // every controller-mode interval and never exceeds the stall.
  for (const bool async_merge : {false, true}) {
    ThreadedConfig cfg;
    cfg.async_merge = async_merge;
    cfg.batch_size = 32;
    ThreadedEngine engine(cfg, std::make_shared<WordCountLogic>(),
                          make_controller(4, 200, 0.02, StatsMode::kSketch));
    for (int interval = 0; interval < 4; ++interval) {
      const auto report =
          engine.run_interval(make_tuples(5'000, 200, 17 + interval));
      EXPECT_GT(report.roll_ms, 0.0) << async_merge << " " << interval;
      EXPECT_LE(report.roll_ms, report.stall_ms)
          << async_merge << " " << interval;
    }
    engine.shutdown();
  }
}

TEST(ThreadedEngine, DoubleBufferAccountsBothSlabBuffers) {
  // async_merge doubles the worker-side slab footprint (active + sealed
  // buffer per worker); the end-to-end stats memory must say so rather
  // than hide the cost of the overlap.
  const auto stats_bytes = [](bool async_merge) {
    ThreadedConfig cfg;
    cfg.stats_mode = StatsMode::kSketch;
    cfg.async_merge = async_merge;
    ThreadedEngine engine(cfg, std::make_shared<WordCountLogic>(),
                          /*num_workers_for_ring=*/2, /*ring_seed=*/7);
    const auto tuples = make_tuples(5'000, 512, 2);
    const auto report = engine.run_interval(tuples);
    engine.shutdown();
    return report.stats_memory_bytes;
  };
  const std::size_t inline_bytes = stats_bytes(false);
  const std::size_t async_bytes = stats_bytes(true);
  // Strictly more than the single-buffer run, by at least one extra
  // fused-cell array per worker (the dominant slab allocation).
  EXPECT_GT(async_bytes, inline_bytes);
}

TEST(ThreadedEngine, PinWorkersReportsEffectivePins) {
  ThreadedConfig cfg;
  cfg.pin_workers = true;
  ThreadedEngine engine(cfg, std::make_shared<WordCountLogic>(),
                        /*num_workers_for_ring=*/2, /*ring_seed=*/7);
  const auto tuples = make_tuples(2'000, 64, 3);
  const auto report = engine.run_interval(tuples);
  EXPECT_EQ(report.processed, 2'000u);
  // Affinity is best-effort (unsupported platforms report 0), but it
  // can never exceed the worker count.
  EXPECT_LE(engine.pinned_workers(), 2);
  engine.shutdown();
}

TEST(ThreadedEngine, ExactModeReportsMergeAndStall) {
  // The small-fix satellite: exact mode surfaces its per-drain replay
  // cost (merge_ms) and boundary stall in the same report fields the
  // sketch path fills.
  ThreadedEngine engine(ThreadedConfig{}, std::make_shared<WordCountLogic>(),
                        make_controller(2, 5'000, 0.5));
  const auto tuples = make_tuples(50'000, 5'000, 4);
  const auto report = engine.run_interval(tuples);
  EXPECT_EQ(report.processed, 50'000u);
  EXPECT_GT(report.merge_ms, 0.0);  // replaying 5k keys takes measurable time
  EXPECT_GE(report.stall_ms, report.merge_ms);  // replay runs inside it
  engine.shutdown();
}

TEST(ThreadedEngine, ShutdownIsIdempotent) {
  ThreadedEngine engine(ThreadedConfig{}, std::make_shared<WordCountLogic>(),
                        make_controller(2, 4, 0.5));
  engine.shutdown();
  engine.shutdown();
  EXPECT_EQ(engine.total_processed(), 0u);
}

}  // namespace
}  // namespace skewless
