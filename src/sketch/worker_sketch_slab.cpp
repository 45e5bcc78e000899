#include "sketch/worker_sketch_slab.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "sketch/sketch_stats_window.h"

namespace skewless {

WorkerSketchSlab::WorkerSketchSlab(const SketchStatsConfig& config)
    : candidates_(config.heavy_capacity) {
  // Borrow the geometry derivation (width from ε, depth from δ, family
  // seed) from a throwaway sketch of the shared family, so the fused
  // cells are placed exactly where the window's sketches will look.
  const CountMinSketch geometry(SketchStatsWindow::family_params(
      config, SketchStatsWindow::kSharedFamilySalt));
  width_ = geometry.width();
  depth_ = geometry.depth();
  seed_ = geometry.seed();
  // Lazily-mapped zero pages: the constructor must NOT touch them, so
  // the owning worker thread's first write (its first clear()) decides
  // their NUMA placement — not the driver thread constructing the slab.
  cells_.reset(depth_ * width_);
  heavy_.reserve(config.heavy_capacity);
  hot_.reserve(config.heavy_capacity);
}

void WorkerSketchSlab::add_hot(KeyId key, const KeyAgg& agg) {
  KeyAgg& hot = hot_[key];
  hot.cost += agg.cost;
  hot.state_bytes += agg.state_bytes;
  hot_cost_ += agg.cost;
}

void WorkerSketchSlab::add_cold(KeyId key, const KeyAgg& agg,
                                const CountMinSketch::KeyProbe& probe) {
  // One probe, `depth_` fused cells: both quantities ride the same cache
  // line (the point of the fused layout).
  const std::size_t mask = width_ - 1;
  for (std::size_t row = 0; row < depth_; ++row) {
    FusedCell& cell =
        cells_[row * width_ + CountMinSketch::probe_index(probe, row, mask)];
    cell.cost += agg.cost;
    cell.state += agg.state_bytes;
  }
  candidates_.add(key, agg.cost);
  cold_cost_ += agg.cost;
  cold_state_ += agg.state_bytes;
}

void WorkerSketchSlab::add(KeyId key, Cost cost, Bytes state_bytes) {
  SKW_EXPECTS(cost >= 0.0 && state_bytes >= 0.0);
  key_bound_ = std::max(key_bound_, static_cast<std::size_t>(key) + 1);
  const KeyAgg agg{cost, state_bytes};
  if (heavy_.find(key) != heavy_.end()) {
    add_hot(key, agg);
    return;
  }
  add_cold(key, agg, CountMinSketch::make_probe(key, seed_));
}

void WorkerSketchSlab::add_batch(
    const std::unordered_map<KeyId, KeyAgg>& batch) {
  if (batch.empty()) return;
  // Pass 1 — classify every entry against the heavy set, in iteration
  // order. Hot and cold entries land in disjoint accumulators
  // (hot_/hot_cost_ vs cells_/candidates_/cold_*), so flushing all hot
  // then all cold — each class in its original order — is byte-identical
  // to add() per entry (key_bound_ is a max, order-free).
  hot_scratch_.clear();
  cold_scratch_.clear();
  probes_.clear();
  for (const auto& entry : batch) {
    SKW_EXPECTS(entry.second.cost >= 0.0 && entry.second.state_bytes >= 0.0);
    key_bound_ =
        std::max(key_bound_, static_cast<std::size_t>(entry.first) + 1);
    if (heavy_.find(entry.first) != heavy_.end()) {
      hot_scratch_.push_back(&entry);
    } else {
      cold_scratch_.push_back(&entry);
      probes_.push_back(CountMinSketch::make_probe(entry.first, seed_));
    }
  }
  for (const auto* entry : hot_scratch_) add_hot(entry->first, entry->second);

  // Pass 2 — the cold flush pipelines: the fused cell rows of the entry
  // a few slots ahead are prefetched while the current entry updates, so
  // its cache misses overlap work instead of serializing behind it.
  constexpr std::size_t kAhead = 4;
  const std::size_t n = cold_scratch_.size();
  const std::size_t mask = width_ - 1;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kAhead < n) {
      const CountMinSketch::KeyProbe& next = probes_[i + kAhead];
      for (std::size_t row = 0; row < depth_; ++row) {
        CountMinSketch::prefetch_cell(
            &cells_[row * width_ + CountMinSketch::probe_index(next, row, mask)]
                 .cost);
      }
    }
    add_cold(cold_scratch_[i]->first, cold_scratch_[i]->second, probes_[i]);
  }
}

void WorkerSketchSlab::set_heavy_keys(const std::vector<KeyId>& keys) {
  heavy_.clear();
  heavy_.insert(keys.begin(), keys.end());
}

void WorkerSketchSlab::clear() {
  hot_.clear();  // keeps buckets
  cells_.zero();  // in place — pages stay where first touch put them
  candidates_.clear();
  cold_cost_ = 0.0;
  hot_cost_ = 0.0;
  cold_state_ = 0.0;
  scalars_ = IntervalScalars{};
}

namespace {

/// Wire sanity for statistics magnitudes: the slab only ever accumulates
/// non-negative finite quantities, so anything else in a summary is
/// corruption, not data.
bool valid_magnitude(double v) { return std::isfinite(v) && v >= 0.0; }

/// A summary cell on the wire is a FusedCell as laid out in memory —
/// cost, then state, no pad — so the cell block ships and lands as one
/// copy.
constexpr std::size_t kWireCellDoubles = 2;
static_assert(sizeof(WorkerSketchSlab::FusedCell) ==
              kWireCellDoubles * sizeof(double));

}  // namespace

void WorkerSketchSlab::serialize(ByteWriter& out) const {
  out.u64(epoch_);
  out.u64(width_);
  out.u64(depth_);
  out.u64(seed_);
  out.u64(key_bound_);
  out.u64(scalars_.processed);
  out.f64(scalars_.latency_sum_us);
  // The accumulated scalars ship verbatim — recomputing them from the
  // entries on the far side would re-associate the floating-point sums
  // and break byte-identity with the in-process run.
  out.f64(hot_cost_);
  out.f64(cold_cost_);
  out.f64(cold_state_);

  std::vector<std::pair<KeyId, KeyAgg>> hot(hot_.begin(), hot_.end());
  std::sort(hot.begin(), hot.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.u32(static_cast<std::uint32_t>(hot.size()));
  for (const auto& [key, agg] : hot) {
    out.u64(key);
    out.f64(agg.cost);
    out.f64(agg.state_bytes);
  }

  out.f64(candidates_.total_weight());
  out.f64(candidates_.offset());
  const auto entries = candidates_.entries_by_count();
  out.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) {
    out.u64(e.key);
    out.f64(e.count);
    out.f64(e.error);
  }

  out.append(cells_.data(), cells_.size() * sizeof(FusedCell));
}

bool WorkerSketchSlab::deserialize_from(ByteReader& in) {
  epoch_ = in.u64();
  const std::uint64_t width = in.u64();
  const std::uint64_t depth = in.u64();
  const std::uint64_t seed = in.u64();
  if (!in.ok()) return false;
  if (width != width_ || depth != depth_ || seed != seed_) {
    in.fail();
    return false;
  }
  key_bound_ = static_cast<std::size_t>(in.u64());
  scalars_.processed = in.u64();
  scalars_.latency_sum_us = in.f64();
  hot_cost_ = in.f64();
  cold_cost_ = in.f64();
  cold_state_ = in.f64();
  if (!valid_magnitude(scalars_.latency_sum_us) ||
      !valid_magnitude(hot_cost_) || !valid_magnitude(cold_cost_) ||
      !valid_magnitude(cold_state_)) {
    in.fail();
    return false;
  }

  const std::uint32_t hot_n = in.u32();
  constexpr std::size_t kHotEntryBytes = 8 + 8 + 8;
  if (!in.fits(hot_n, kHotEntryBytes)) return false;
  hot_.clear();
  for (std::uint32_t i = 0; i < hot_n; ++i) {
    const KeyId key = in.u64();
    KeyAgg agg;
    agg.cost = in.f64();
    agg.state_bytes = in.f64();
    if (!valid_magnitude(agg.cost) || !valid_magnitude(agg.state_bytes)) {
      in.fail();
      return false;
    }
    const auto [it, inserted] = hot_.emplace(key, agg);
    (void)it;
    if (!inserted) {  // duplicate key: not a serialize() output
      in.fail();
      return false;
    }
  }

  const double cand_total = in.f64();
  const double cand_offset = in.f64();
  const std::uint32_t cand_n = in.u32();
  constexpr std::size_t kCandEntryBytes = 8 + 8 + 8;
  if (!in.fits(cand_n, kCandEntryBytes)) return false;
  if (!valid_magnitude(cand_total) || !valid_magnitude(cand_offset) ||
      cand_n > 2 * candidates_.capacity()) {
    in.fail();
    return false;
  }
  std::vector<MisraGries::Entry> entries;
  entries.reserve(cand_n);
  for (std::uint32_t i = 0; i < cand_n; ++i) {
    MisraGries::Entry e;
    e.key = in.u64();
    e.count = in.f64();
    e.error = in.f64();
    if (!valid_magnitude(e.count) || !valid_magnitude(e.error)) {
      in.fail();
      return false;
    }
    entries.push_back(e);
  }
  if (!in.ok()) return false;
  if (!candidates_.restore(entries, cand_total, cand_offset)) {
    in.fail();  // repeated candidate key: not a serialize() output
    return false;
  }

  if (!in.read_into(cells_.data(), cells_.size() * sizeof(FusedCell))) {
    return false;
  }
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const FusedCell& cell = cells_[i];
    if (!valid_magnitude(cell.cost) || !valid_magnitude(cell.state)) {
      in.fail();
      return false;
    }
  }
  return true;
}

namespace {

constexpr std::size_t kNodeOverhead = 2 * sizeof(void*);

}  // namespace

std::size_t WorkerSketchSlab::memory_bytes() const {
  // The fixed footprint plus what clear() hands back or empties.
  const std::size_t hot_entry_bytes =
      hot_.size() * (sizeof(std::pair<const KeyId, KeyAgg>) + kNodeOverhead);
  return cleared_memory_bytes() + hot_entry_bytes +
         (candidates_.memory_bytes() - candidates_.cleared_memory_bytes());
}

std::size_t WorkerSketchSlab::cleared_memory_bytes() const {
  const std::size_t heavy_bytes =
      heavy_.size() * (sizeof(KeyId) + kNodeOverhead) +
      heavy_.bucket_count() * sizeof(void*);
  return sizeof(*this) + hot_.bucket_count() * sizeof(void*) + heavy_bytes +
         cells_.memory_bytes() + candidates_.cleared_memory_bytes();
}

}  // namespace skewless
