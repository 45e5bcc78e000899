#include "sketch/sharded_worker_slab.h"

#include "common/assert.h"

namespace skewless {

SketchStatsConfig shard_config(const SketchStatsConfig& config,
                               std::size_t shards) {
  if (shards <= 1) return config;
  SketchStatsConfig sharded = config;
  sharded.epsilon = config.epsilon * static_cast<double>(shards);
  sharded.heavy_capacity =
      (config.heavy_capacity + shards - 1) / shards;
  if (sharded.heavy_capacity == 0) sharded.heavy_capacity = 1;
  return sharded;
}

ShardedWorkerSlab::ShardedWorkerSlab(const SketchStatsConfig& config,
                                     std::size_t shards) {
  SKW_EXPECTS(shards >= 1);
  const SketchStatsConfig section_config = shard_config(config, shards);
  sections_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    sections_.emplace_back(section_config);
  }
}

void ShardedWorkerSlab::add(KeyId key, Cost cost, Bytes state_bytes,
                            std::uint64_t frequency) {
  sections_[shard_of_key(key, sections_.size())].add(key, cost, state_bytes,
                                                     frequency);
}

void ShardedWorkerSlab::add_batch(
    const std::unordered_map<KeyId, WorkerSketchSlab::KeyAgg>& batch) {
  if (sections_.size() == 1) {
    sections_.front().add_batch(batch);
    return;
  }
  for (const auto& [key, agg] : batch) {
    sections_[shard_of_key(key, sections_.size())].add(
        key, agg.cost, agg.state_bytes, agg.frequency);
  }
}

void ShardedWorkerSlab::set_heavy_keys(const std::vector<KeyId>& keys) {
  if (sections_.size() == 1) {
    sections_.front().set_heavy_keys(keys);
    return;
  }
  std::vector<std::vector<KeyId>> split(sections_.size());
  for (const KeyId key : keys) {
    split[shard_of_key(key, sections_.size())].push_back(key);
  }
  for (std::size_t s = 0; s < sections_.size(); ++s) {
    sections_[s].set_heavy_keys(split[s]);
  }
}

void ShardedWorkerSlab::clear() {
  for (WorkerSketchSlab& section : sections_) section.clear();
}

void ShardedWorkerSlab::set_epoch(std::uint64_t epoch) {
  for (WorkerSketchSlab& section : sections_) section.set_epoch(epoch);
}

Cost ShardedWorkerSlab::total_cost() const {
  Cost total = 0.0;
  for (const WorkerSketchSlab& section : sections_) {
    total += section.total_cost();
  }
  return total;
}

std::size_t ShardedWorkerSlab::key_bound() const {
  std::size_t bound = 0;
  for (const WorkerSketchSlab& section : sections_) {
    if (section.key_bound() > bound) bound = section.key_bound();
  }
  return bound;
}

std::size_t ShardedWorkerSlab::memory_bytes() const {
  std::size_t total = sizeof(*this);
  for (const WorkerSketchSlab& section : sections_) {
    total += section.memory_bytes();
  }
  return total;
}

void ShardedWorkerSlab::serialize(ByteWriter& out) const {
  out.u32(static_cast<std::uint32_t>(sections_.size()));
  for (const WorkerSketchSlab& section : sections_) {
    section.serialize(out);
  }
}

bool ShardedWorkerSlab::deserialize_from(ByteReader& in) {
  const std::uint32_t count = in.u32();
  if (!in.ok()) return false;
  if (count != sections_.size()) {
    in.fail();
    return false;
  }
  for (WorkerSketchSlab& section : sections_) {
    if (!section.deserialize_from(in)) return false;
  }
  return true;
}

}  // namespace skewless
