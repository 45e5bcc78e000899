#include "sketch/space_saving.h"

#include <algorithm>
#include <functional>

#include "common/assert.h"

namespace skewless {

SpaceSaving::SpaceSaving(std::size_t capacity) : capacity_(capacity) {
  SKW_EXPECTS(capacity >= 1);
  heap_.reserve(2 * capacity);
}

void SpaceSaving::push_heap_item(KeyId key, double count) {
  heap_.push_back(HeapItem{count, key});
  std::push_heap(heap_.begin(), heap_.end(), heap_after);
}

void SpaceSaving::compact_heap() {
  // Drop stale snapshots (an item is live iff it matches the table
  // exactly); bounds the heap at O(capacity) regardless of stream length.
  heap_.clear();
  for (const Entry& entry : table_.entries()) {
    heap_.push_back(HeapItem{entry.count, entry.key});
  }
  std::make_heap(heap_.begin(), heap_.end(), heap_after);
  heap_stale_ = false;
}

void SpaceSaving::add(KeyId key, double weight, InstanceId dest) {
  SKW_EXPECTS(weight >= 0.0);
  if (heap_stale_) compact_heap();
  total_ += weight;
  if (Entry* entry = table_.find(key)) {
    entry->count += weight;
    if (dest != kNilInstance) entry->dest = dest;
    push_heap_item(key, entry->count);
  } else if (table_.size() < capacity_) {
    table_.insert(Entry{key, weight, 0.0, dest});
    push_heap_item(key, weight);
  } else {
    // Evict the minimum live (count, key): pop stale snapshots until the
    // top matches a live entry.
    while (true) {
      SKW_ASSERT(!heap_.empty());
      const HeapItem top = heap_.front();
      const Entry* live = table_.find(top.key);
      if (live != nullptr && live->count == top.count) break;
      std::pop_heap(heap_.begin(), heap_.end(), heap_after);
      heap_.pop_back();
    }
    const HeapItem victim = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), heap_after);
    heap_.pop_back();
    table_.erase(victim.key);
    table_.insert(Entry{key, victim.count + weight, victim.count, dest});
    push_heap_item(key, victim.count + weight);
  }
  if (heap_.size() > 8 * capacity_) compact_heap();
}

void SpaceSaving::union_entry(const Entry& entry) {
  // Each key receives at most one addition per source, so the union is
  // independent of the order entries arrive in. No truncation — see the
  // header for why dropping entries here would break the heavy-hitter
  // guarantee under chained merges.
  if (const auto [mine, inserted] = table_.insert(entry); !inserted) {
    mine->count += entry.count;
    mine->error += entry.error;
    if (entry.dest != kNilInstance) mine->dest = entry.dest;
  }
  heap_stale_ = true;
}

void SpaceSaving::merge(const SpaceSaving& other) {
  SKW_EXPECTS(&other != this);
  total_ += other.total_;
  table_.reserve(table_.size() + other.table_.size());
  for (const Entry& entry : other.table_.entries()) union_entry(entry);
}

void SpaceSaving::merge(const std::vector<Entry>& entries,
                        double total_weight) {
  total_ += total_weight;
  table_.reserve(table_.size() + entries.size());
  for (const Entry& e : entries) union_entry(e);
}

void SpaceSaving::merge_entry(const Entry& entry, double total_weight) {
  total_ += total_weight;
  union_entry(entry);
}

const SpaceSaving::Entry* SpaceSaving::find(KeyId key) const {
  return table_.find(key);
}

std::vector<SpaceSaving::Entry> SpaceSaving::entries_by_count() const {
  std::vector<Entry> out = entries_unsorted();
  std::sort(out.begin(), out.end(), count_order);
  return out;
}

std::vector<SpaceSaving::Entry> SpaceSaving::entries_by_count_at_least(
    double min_count) const {
  std::vector<Entry> out;
  for (const Entry& entry : table_.entries()) {
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
  return sizeof(*this) + table_.memory_bytes() +
         heap_.capacity() * sizeof(HeapItem);
}

void SpaceSaving::clear() {
  table_.clear();
  heap_.clear();
  heap_stale_ = false;
  total_ = 0.0;
}

MisraGries::MisraGries(std::size_t capacity) : capacity_(capacity) {
  SKW_EXPECTS(capacity >= 1);
  prune_scratch_.reserve(2 * capacity + 1);
}

void MisraGries::add(KeyId key, double weight) {
  SKW_EXPECTS(weight >= 0.0);
  total_ += weight;
  // Size the table once for its 2×capacity + 1 bound: growing by
  // doubling would end just past a power of two at twice the memory.
  if (table_.size() == 0) table_.reserve(2 * capacity_ + 1);
  // The key's prior mass (never tracked, or pruned at ≤ some earlier
  // cutoff) is bounded by offset_, so starting at offset_ + weight keeps
  // the overestimate invariant; error = offset_ records the slack.
  const auto [entry, inserted] =
      table_.insert(SpaceSaving::Entry{key, offset_ + weight, offset_});
  if (!inserted) {
    entry->count += weight;
    return;
  }
  if (table_.size() > 2 * capacity_) prune();
}

void MisraGries::prune() {
  prune_scratch_.clear();
  for (const auto& e : table_.entries()) prune_scratch_.push_back(e.count);
  // The (capacity_+1)-th largest count: at most capacity_ entries can
  // strictly exceed it, and it is ≤ (sum of counts)/(capacity_+1).
  std::nth_element(prune_scratch_.begin(),
                   prune_scratch_.begin() + static_cast<std::ptrdiff_t>(capacity_),
                   prune_scratch_.end(), std::greater<double>());
  const double cutoff = prune_scratch_[capacity_];
  // Value threshold, not rank: equal counts drop together, so the
  // surviving set never depends on table order.
  table_.erase_if(
      [cutoff](const SpaceSaving::Entry& e) { return e.count <= cutoff; });
  offset_ = std::max(offset_, cutoff);
}

const SpaceSaving::Entry* MisraGries::find(KeyId key) const {
  return table_.find(key);
}

std::vector<SpaceSaving::Entry> MisraGries::entries_by_count() const {
  std::vector<SpaceSaving::Entry> out = entries_unsorted();
  std::sort(out.begin(), out.end(), SpaceSaving::count_order);
  return out;
}

std::size_t MisraGries::memory_bytes() const {
  return sizeof(*this) + table_.memory_bytes() +
         prune_scratch_.capacity() * sizeof(double);
}

void MisraGries::clear() {
  table_.clear();
  total_ = 0.0;
  offset_ = 0.0;
}

bool MisraGries::restore(const std::vector<SpaceSaving::Entry>& entries,
                         double total_weight, double offset) {
  SKW_EXPECTS(entries.size() <= 2 * capacity_);
  clear();
  table_.reserve(entries.size());
  for (const auto& e : entries) {
    if (!table_.insert(e).second) {
      clear();
      return false;
    }
  }
  total_ = total_weight;
  offset_ = offset;
  return true;
}

}  // namespace skewless
