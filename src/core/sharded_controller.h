// ShardedSketchStats — the sketch-mode statistics provider: S
// shard-local SketchStatsWindows (shard = stable hash of the KeyId, the
// same shard_of_key every layer uses) behind the StatsProvider seam, so
// the Controller, the planners and both engines see ONE provider while
// the boundary merge fans out across shards concurrently. It is the only
// sketch provider; S = 1 (ControllerConfig::shards' default) is the
// single-window configuration.
//
// Concurrency model: a sealed epoch is the shard-boundary unit. The
// engines absorb workers in worker-index order, and each absorb_slab
// call hands section s of that worker's ShardedWorkerSlab to shard
// window s on a small persistent thread pool — shard windows are
// disjoint (a key's whole history lives in exactly one shard), so the
// only ordering that matters for determinism is the per-shard absorb
// order, which the sequential worker loop fixes. roll() and the dense /
// compact synthesis fan out the same way.
//
// Global tier: synthesize_compact runs the S per-shard compact views
// concurrently, then concatenates the heavy entries (re-sorted by key —
// shards hold disjoint keys, so this is a permutation, not a merge) and
// element-wise sums the per-instance cold residual vectors in shard
// order 0..S-1 (fixed FP summation order). O(S·(k/S + N_D)) = O(k + S·N_D)
// work, never O(|K|). The concatenated snapshot feeds the existing
// planner stack untouched.
//
// S = 1 runs every path on the single window inline (no pool threads
// exist), so it answers every query exactly as a plain SketchStatsWindow
// fed the same stream (test_sharded_controller).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sketch/sharded_worker_slab.h"
#include "sketch/sketch_stats_window.h"
#include "sketch/stats_provider.h"

namespace skewless {

/// A small persistent fork-join pool: run(n, fn) executes fn(0..n-1)
/// across the pool threads AND the calling thread, returning when all n
/// tasks finished. Persistent because the sharded boundary merge runs at
/// interval cadence — spawning threads per epoch would cost more than
/// the parallel absorb saves. With zero workers (the S = 1 case) run()
/// is a plain inline loop.
class ShardPool {
 public:
  explicit ShardPool(std::size_t workers);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  void run(std::size_t tasks, const std::function<void(std::size_t)>& fn);

  [[nodiscard]] std::size_t worker_count() const { return threads_.size(); }

 private:
  void worker_loop();
  void work();

  std::mutex mu_;
  std::condition_variable cv_;       // workers wait for a new generation
  std::condition_variable done_cv_;  // caller waits for completion
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::atomic<const std::function<void(std::size_t)>*> fn_{nullptr};
  std::atomic<std::size_t> tasks_{0};
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> done_{0};
  std::vector<std::thread> threads_;
};

class ShardedSketchStats final : public StatsProvider {
 public:
  /// `config` is the GLOBAL sketch configuration; each shard window gets
  /// shard_config(config, shards) — ε and heavy_capacity scaled by S,
  /// seed and behavior knobs unchanged — matching the per-shard sections
  /// ShardedWorkerSlab builds from the same derivation.
  ShardedSketchStats(std::size_t num_keys, int window,
                     const SketchStatsConfig& config, std::size_t shards);
  ~ShardedSketchStats() override;

  // StatsProvider.
  void record(KeyId key, Cost cost, Bytes state_bytes,
              std::uint64_t frequency = 1,
              InstanceId dest = kNilInstance) override;
  void roll() override;
  [[nodiscard]] Cost last_cost_of(KeyId key) const override;
  [[nodiscard]] std::uint64_t last_frequency_of(KeyId key) const override;
  [[nodiscard]] Bytes windowed_state_of(KeyId key) const override;
  [[nodiscard]] Bytes total_windowed_state() const override;
  void synthesize_dense(std::vector<Cost>& cost,
                        std::vector<Bytes>& state) const override;
  [[nodiscard]] std::size_t num_keys() const override { return num_keys_; }
  void resize_keys(std::size_t num_keys) override;
  [[nodiscard]] int window() const override;
  [[nodiscard]] IntervalId closed_intervals() const override;
  [[nodiscard]] std::size_t memory_bytes() const override;
  [[nodiscard]] StatsMode mode() const override { return StatsMode::kSketch; }

  /// The GLOBAL (unsharded) sketch configuration. Worker slabs must be
  /// constructed as ShardedWorkerSlab(slab_config(), slab_shards()) — the
  /// slab derives the per-shard section geometry with the same
  /// shard_config() derivation the shard windows use, so sections and
  /// windows stay cell-wise compatible.
  [[nodiscard]] const SketchStatsConfig& slab_config() const {
    return config_;
  }
  [[nodiscard]] std::size_t slab_shards() const { return shards_.size(); }

  /// Boundary merge: folds one worker's sealed interval slab into the
  /// open interval, section s into shard s. Callers absorb workers in
  /// worker-index order; the S sections of one call absorb concurrently
  /// (they touch disjoint shard windows), so the combined order — fixed
  /// across workers, parallel across shards — keeps the merged state
  /// deterministic. `dest` is the slab's owning instance.
  void absorb_slab(const ShardedWorkerSlab& slab,
                   InstanceId dest = kNilInstance);

  /// Union of the per-shard heavy sets, sorted ascending (shards hold
  /// disjoint key ranges, so the union is duplicate-free). What the
  /// engines distribute to worker slabs at interval boundaries.
  [[nodiscard]] std::vector<KeyId> heavy_keys() const;

  /// The compact planner view (see SketchStatsWindow::synthesize_compact
  /// for the per-window contract), concatenated across shards as the
  /// header describes.
  void synthesize_compact(InstanceId num_instances, std::vector<KeyId>& keys,
                          std::vector<Cost>& cost, std::vector<Bytes>& state,
                          std::vector<Cost>& cold_cost,
                          std::vector<Bytes>& cold_state) const;

  /// Heavy-set churn accounting, summed across shards.
  [[nodiscard]] std::uint64_t total_promotions() const;
  [[nodiscard]] std::uint64_t total_demotions() const;

  /// Shard window s (tests; shards hold disjoint key sets).
  [[nodiscard]] const SketchStatsWindow& shard(std::size_t s) const {
    return *shards_[s];
  }

 private:
  [[nodiscard]] std::size_t shard_of(KeyId key) const {
    return shard_of_key(key, shards_.size());
  }

  SketchStatsConfig config_;
  std::size_t num_keys_ = 0;
  std::vector<std::unique_ptr<SketchStatsWindow>> shards_;
  /// mutable: synthesis is logically const but fans out on the pool.
  mutable ShardPool pool_;
};

}  // namespace skewless
