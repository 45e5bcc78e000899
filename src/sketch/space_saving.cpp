#include "sketch/space_saving.h"

#include <algorithm>
#include <iterator>

#include "common/assert.h"

namespace skewless {

SpaceSaving::SpaceSaving(std::size_t capacity) : capacity_(capacity) {
  SKW_EXPECTS(capacity >= 1);
  map_.reserve(capacity);
  heap_.reserve(2 * capacity);
}

void SpaceSaving::push_heap_item(KeyId key, double count) {
  heap_.push_back(HeapItem{count, key});
  std::push_heap(heap_.begin(), heap_.end(), heap_after);
}

void SpaceSaving::compact_heap() {
  // Drop stale snapshots (an item is live iff it matches the map exactly);
  // bounds the heap at O(capacity) regardless of stream length.
  heap_.clear();
  for (const auto& [key, entry] : map_) {
    heap_.push_back(HeapItem{entry.count, key});
  }
  std::make_heap(heap_.begin(), heap_.end(), heap_after);
  heap_stale_ = false;
}

void SpaceSaving::add(KeyId key, double weight, InstanceId dest) {
  SKW_EXPECTS(weight >= 0.0);
  if (heap_stale_) compact_heap();
  total_ += weight;
  if (auto it = map_.find(key); it != map_.end()) {
    it->second.count += weight;
    if (dest != kNilInstance) it->second.dest = dest;
    push_heap_item(key, it->second.count);
  } else if (map_.size() < capacity_) {
    map_.emplace(key, Entry{key, weight, 0.0, dest});
    push_heap_item(key, weight);
  } else {
    // Evict the minimum live (count, key): pop stale snapshots until the
    // top matches a live entry.
    while (true) {
      SKW_ASSERT(!heap_.empty());
      const HeapItem top = heap_.front();
      const auto live = map_.find(top.key);
      if (live != map_.end() && live->second.count == top.count) break;
      std::pop_heap(heap_.begin(), heap_.end(), heap_after);
      heap_.pop_back();
    }
    const HeapItem victim = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), heap_after);
    heap_.pop_back();
    map_.erase(victim.key);
    map_.emplace(key, Entry{key, victim.count + weight, victim.count, dest});
    push_heap_item(key, victim.count + weight);
  }
  if (heap_.size() > 8 * capacity_) compact_heap();
}

void SpaceSaving::union_entry(const Entry& entry) {
  // Each key receives at most one addition per source, so the union is
  // independent of the order entries arrive in. No truncation — see the
  // header for why dropping entries here would break the heavy-hitter
  // guarantee under chained merges.
  if (auto it = map_.find(entry.key); it != map_.end()) {
    it->second.count += entry.count;
    it->second.error += entry.error;
    if (entry.dest != kNilInstance) it->second.dest = entry.dest;
  } else {
    map_.emplace(entry.key, entry);
  }
  heap_stale_ = true;
}

void SpaceSaving::merge(const SpaceSaving& other) {
  SKW_EXPECTS(&other != this);
  total_ += other.total_;
  for (const auto& [key, entry] : other.map_) union_entry(entry);
}

void SpaceSaving::merge(const std::vector<Entry>& entries,
                        double total_weight) {
  total_ += total_weight;
  for (const Entry& e : entries) union_entry(e);
}

void SpaceSaving::merge_entry(const Entry& entry, double total_weight) {
  total_ += total_weight;
  union_entry(entry);
}

const SpaceSaving::Entry* SpaceSaving::find(KeyId key) const {
  const auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second;
}

std::vector<SpaceSaving::Entry> SpaceSaving::entries_by_count() const {
  std::vector<Entry> out = entries_unsorted();
  std::sort(out.begin(), out.end(), count_order);
  return out;
}

std::vector<SpaceSaving::Entry> SpaceSaving::entries_unsorted() const {
  std::vector<Entry> out;
  out.reserve(map_.size());
  for (const auto& [key, entry] : map_) out.push_back(entry);
  return out;
}

std::vector<SpaceSaving::Entry> SpaceSaving::entries_by_count_at_least(
    double min_count) const {
  std::vector<Entry> out;
  for (const auto& [key, entry] : map_) {
    if (entry.count >= min_count) out.push_back(entry);
  }
  std::sort(out.begin(), out.end(), count_order);
  return out;
}

std::vector<SpaceSaving::Entry> SpaceSaving::guaranteed(
    double threshold) const {
  std::vector<Entry> out;
  for (const auto& entry : entries_by_count()) {
    if (entry.count - entry.error >= threshold) out.push_back(entry);
  }
  return out;
}

std::size_t SpaceSaving::memory_bytes() const {
  // unordered_map node ≈ entry + next pointer + allocator header.
  constexpr std::size_t kNodeOverhead = 2 * sizeof(void*);
  return sizeof(*this) +
         map_.size() * (sizeof(std::pair<const KeyId, Entry>) + kNodeOverhead) +
         map_.bucket_count() * sizeof(void*) +
         heap_.capacity() * sizeof(HeapItem);
}

void SpaceSaving::clear() {
  map_.clear();
  heap_.clear();
  heap_stale_ = false;
  total_ = 0.0;
}

MisraGries::MisraGries(std::size_t capacity) : capacity_(capacity) {
  SKW_EXPECTS(capacity >= 1);
  map_.reserve(2 * capacity + 1);
  prune_scratch_.reserve(2 * capacity + 1);
}

void MisraGries::add(KeyId key, double weight) {
  SKW_EXPECTS(weight >= 0.0);
  total_ += weight;
  if (auto it = map_.find(key); it != map_.end()) {
    it->second.count += weight;
    return;
  }
  // The key's prior mass (never tracked, or pruned at ≤ some earlier
  // cutoff) is bounded by offset_, so starting at offset_ + weight keeps
  // the overestimate invariant; error = offset_ records the slack.
  map_.emplace(key, SpaceSaving::Entry{key, offset_ + weight, offset_});
  if (map_.size() > 2 * capacity_) prune();
}

void MisraGries::prune() {
  prune_scratch_.clear();
  for (const auto& [key, e] : map_) prune_scratch_.push_back(e.count);
  // The (capacity_+1)-th largest count: at most capacity_ entries can
  // strictly exceed it, and it is ≤ (sum of counts)/(capacity_+1).
  std::nth_element(prune_scratch_.begin(),
                   prune_scratch_.begin() + static_cast<std::ptrdiff_t>(capacity_),
                   prune_scratch_.end(), std::greater<double>());
  const double cutoff = prune_scratch_[capacity_];
  for (auto it = map_.begin(); it != map_.end();) {
    // Value threshold, not rank: equal counts drop together, so the
    // surviving set never depends on hash iteration order.
    it = it->second.count <= cutoff ? map_.erase(it) : std::next(it);
  }
  offset_ = std::max(offset_, cutoff);
}

const SpaceSaving::Entry* MisraGries::find(KeyId key) const {
  const auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second;
}

std::vector<SpaceSaving::Entry> MisraGries::entries_by_count() const {
  std::vector<SpaceSaving::Entry> out = entries_unsorted();
  std::sort(out.begin(), out.end(), SpaceSaving::count_order);
  return out;
}

std::vector<SpaceSaving::Entry> MisraGries::entries_unsorted() const {
  std::vector<SpaceSaving::Entry> out;
  out.reserve(map_.size());
  for (const auto& [key, entry] : map_) out.push_back(entry);
  return out;
}

std::size_t MisraGries::memory_bytes() const {
  constexpr std::size_t kNodeOverhead = 2 * sizeof(void*);
  return sizeof(*this) +
         map_.size() *
             (sizeof(std::pair<const KeyId, SpaceSaving::Entry>) +
              kNodeOverhead) +
         map_.bucket_count() * sizeof(void*) +
         prune_scratch_.capacity() * sizeof(double);
}

void MisraGries::clear() {
  map_.clear();
  total_ = 0.0;
  offset_ = 0.0;
}

void MisraGries::restore(const std::vector<SpaceSaving::Entry>& entries,
                         double total_weight, double offset) {
  SKW_EXPECTS(entries.size() <= 2 * capacity_);
  map_.clear();
  for (const auto& e : entries) map_.emplace(e.key, e);
  total_ = total_weight;
  offset_ = offset;
}

}  // namespace skewless
