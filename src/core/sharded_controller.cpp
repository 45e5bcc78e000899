#include "core/sharded_controller.h"

#include <algorithm>
#include <numeric>

#include "common/assert.h"

namespace skewless {

// ---------------------------------------------------------------------------
// ShardPool

ShardPool::ShardPool(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ShardPool::~ShardPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    ++generation_;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ShardPool::run(std::size_t tasks,
                    const std::function<void(std::size_t)>& fn) {
  if (threads_.empty() || tasks <= 1) {
    for (std::size_t i = 0; i < tasks; ++i) fn(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_.store(&fn, std::memory_order_relaxed);
    tasks_.store(tasks, std::memory_order_relaxed);
    done_.store(0, std::memory_order_relaxed);
    // The release store on next_ publishes fn_/tasks_/done_ to any worker
    // that claims an index without passing through the mutex (a straggler
    // from the previous generation racing into this one is benign: each
    // index is claimed exactly once either way).
    next_.store(0, std::memory_order_release);
    ++generation_;
  }
  cv_.notify_all();
  work();  // the caller is a pool participant
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] {
    return done_.load(std::memory_order_acquire) ==
           tasks_.load(std::memory_order_relaxed);
  });
  fn_.store(nullptr, std::memory_order_relaxed);
}

void ShardPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    work();
  }
}

void ShardPool::work() {
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_acquire);
    if (i >= tasks_.load(std::memory_order_relaxed)) return;
    const auto* fn = fn_.load(std::memory_order_relaxed);
    (*fn)(i);
    if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        tasks_.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_all();
    }
  }
}

// ---------------------------------------------------------------------------
// ShardedSketchStats

namespace {

/// Pool threads beyond the caller: S - 1 capped to the hardware, zero
/// when S = 1 (the pool degenerates to inline loops).
std::size_t pool_workers(std::size_t shards) {
  if (shards <= 1) return 0;
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::min(shards, hw) - 1;
}

}  // namespace

ShardedSketchStats::ShardedSketchStats(std::size_t num_keys, int window,
                                       const SketchStatsConfig& config,
                                       std::size_t shards)
    : config_(config), num_keys_(num_keys), pool_(pool_workers(shards)) {
  SKW_EXPECTS(shards >= 1);
  const SketchStatsConfig per_shard = shard_config(config, shards);
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(
        std::make_unique<SketchStatsWindow>(num_keys, window, per_shard));
  }
}

ShardedSketchStats::~ShardedSketchStats() = default;

void ShardedSketchStats::record(KeyId key, Cost cost, Bytes state_bytes,
                                std::uint64_t frequency, InstanceId dest) {
  if (static_cast<std::size_t>(key) >= num_keys_) {
    num_keys_ = static_cast<std::size_t>(key) + 1;
  }
  shards_[shard_of(key)]->record(key, cost, state_bytes, frequency, dest);
}

void ShardedSketchStats::roll() {
  if (shards_.size() == 1) {
    shards_[0]->roll();
    return;
  }
  pool_.run(shards_.size(), [&](std::size_t s) { shards_[s]->roll(); });
}

Cost ShardedSketchStats::last_cost_of(KeyId key) const {
  return shards_[shard_of(key)]->last_cost_of(key);
}

std::uint64_t ShardedSketchStats::last_frequency_of(KeyId key) const {
  return shards_[shard_of(key)]->last_frequency_of(key);
}

Bytes ShardedSketchStats::windowed_state_of(KeyId key) const {
  return shards_[shard_of(key)]->windowed_state_of(key);
}

Bytes ShardedSketchStats::total_windowed_state() const {
  Bytes total = 0.0;
  for (const auto& shard : shards_) total += shard->total_windowed_state();
  return total;
}

void ShardedSketchStats::synthesize_dense(std::vector<Cost>& cost,
                                          std::vector<Bytes>& state) const {
  for (const auto& shard : shards_) {
    // Widen every shard to the global bound so each lane pass covers the
    // whole domain (logical resize — the sketch allocates nothing).
    shard->resize_keys(num_keys_);
  }
  cost.assign(num_keys_, 0.0);
  state.assign(num_keys_, 0.0);
  pool_.run(shards_.size(), [&](std::size_t s) {
    shards_[s]->synthesize_dense_shard(cost, state, s, shards_.size());
  });
}

void ShardedSketchStats::resize_keys(std::size_t num_keys) {
  if (num_keys > num_keys_) num_keys_ = num_keys;
  for (const auto& shard : shards_) shard->resize_keys(num_keys);
}

int ShardedSketchStats::window() const { return shards_[0]->window(); }

IntervalId ShardedSketchStats::closed_intervals() const {
  return shards_[0]->closed_intervals();
}

std::size_t ShardedSketchStats::memory_bytes() const {
  std::size_t total = sizeof(*this);
  for (const auto& shard : shards_) total += shard->memory_bytes();
  return total;
}

void ShardedSketchStats::absorb_slab(const ShardedWorkerSlab& slab,
                                     InstanceId dest) {
  SKW_EXPECTS(slab.shard_count() == shards_.size());
  if (slab.key_bound() > num_keys_) num_keys_ = slab.key_bound();
  if (shards_.size() == 1) {
    shards_[0]->absorb(slab.section(0), dest);
    return;
  }
  // Engines call absorb_slab once per worker, in worker-index order; the
  // S sections of ONE worker absorb concurrently here. Each shard window
  // therefore sees its sections in exactly the sequential worker order —
  // the per-shard fixed order the determinism contract needs.
  pool_.run(shards_.size(), [&](std::size_t s) {
    shards_[s]->absorb(slab.section(s), dest);
  });
}

std::vector<KeyId> ShardedSketchStats::heavy_keys() const {
  if (shards_.size() == 1) return shards_[0]->heavy_keys();
  std::vector<KeyId> keys;
  for (const auto& shard : shards_) {
    const std::vector<KeyId> part = shard->heavy_keys();
    keys.insert(keys.end(), part.begin(), part.end());
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

void ShardedSketchStats::synthesize_compact(
    InstanceId num_instances, std::vector<KeyId>& keys,
    std::vector<Cost>& cost, std::vector<Bytes>& state,
    std::vector<Cost>& cold_cost, std::vector<Bytes>& cold_state) const {
  if (shards_.size() == 1) {
    shards_[0]->synthesize_compact(num_instances, keys, cost, state,
                                   cold_cost, cold_state);
    return;
  }
  const std::size_t shard_count = shards_.size();
  std::vector<std::vector<KeyId>> shard_keys(shard_count);
  std::vector<std::vector<Cost>> shard_cost(shard_count);
  std::vector<std::vector<Bytes>> shard_state(shard_count);
  std::vector<std::vector<Cost>> shard_cold_cost(shard_count);
  std::vector<std::vector<Bytes>> shard_cold_state(shard_count);
  pool_.run(shard_count, [&](std::size_t s) {
    shards_[s]->synthesize_compact(num_instances, shard_keys[s],
                                   shard_cost[s], shard_state[s],
                                   shard_cold_cost[s], shard_cold_state[s]);
  });

  // Global tier: concatenate the heavy entries and re-sort by key (the
  // shards' key sets are disjoint, so this is a permutation into the
  // sorted-ascending order the planners expect), and element-wise sum the
  // per-instance residual vectors in shard order 0..S-1 — a fixed FP
  // summation order, so the merged residuals are deterministic.
  std::size_t total_entries = 0;
  for (const auto& part : shard_keys) total_entries += part.size();
  std::vector<std::size_t> order(total_entries);
  std::vector<KeyId> flat_keys;
  std::vector<Cost> flat_cost;
  std::vector<Bytes> flat_state;
  flat_keys.reserve(total_entries);
  flat_cost.reserve(total_entries);
  flat_state.reserve(total_entries);
  for (std::size_t s = 0; s < shard_count; ++s) {
    flat_keys.insert(flat_keys.end(), shard_keys[s].begin(),
                     shard_keys[s].end());
    flat_cost.insert(flat_cost.end(), shard_cost[s].begin(),
                     shard_cost[s].end());
    flat_state.insert(flat_state.end(), shard_state[s].begin(),
                      shard_state[s].end());
  }
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return flat_keys[a] < flat_keys[b];
  });
  keys.resize(total_entries);
  cost.resize(total_entries);
  state.resize(total_entries);
  for (std::size_t i = 0; i < total_entries; ++i) {
    keys[i] = flat_keys[order[i]];
    cost[i] = flat_cost[order[i]];
    state[i] = flat_state[order[i]];
  }

  const auto nd = static_cast<std::size_t>(num_instances);
  cold_cost.assign(nd, 0.0);
  cold_state.assign(nd, 0.0);
  for (std::size_t s = 0; s < shard_count; ++s) {
    SKW_EXPECTS(shard_cold_cost[s].size() == nd &&
                shard_cold_state[s].size() == nd);
    for (std::size_t d = 0; d < nd; ++d) {
      cold_cost[d] += shard_cold_cost[s][d];
      cold_state[d] += shard_cold_state[s][d];
    }
  }
}

std::uint64_t ShardedSketchStats::total_promotions() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->total_promotions();
  return total;
}

std::uint64_t ShardedSketchStats::total_demotions() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->total_demotions();
  return total;
}

}  // namespace skewless
