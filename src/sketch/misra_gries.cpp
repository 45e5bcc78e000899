#include "sketch/misra_gries.h"

#include <algorithm>
#include <functional>

#include "common/assert.h"

namespace skewless {

MisraGries::MisraGries(std::size_t capacity) : capacity_(capacity) {
  SKW_EXPECTS(capacity >= 1);
  prune_scratch_.reserve(2 * capacity + 1);
}

void MisraGries::add(KeyId key, double weight, InstanceId dest) {
  SKW_EXPECTS(weight >= 0.0);
  total_ += weight;
  // Size the table once for its 2×capacity + 1 bound: growing by
  // doubling would end just past a power of two at twice the memory.
  if (table_.size() == 0) table_.reserve(2 * capacity_ + 1);
  // The key's prior mass (never tracked, or pruned at ≤ some earlier
  // cutoff) is bounded by offset_, so starting at offset_ + weight keeps
  // the overestimate invariant; error = offset_ records the slack.
  const auto [entry, inserted] =
      table_.insert(Entry{key, offset_ + weight, offset_, dest});
  if (!inserted) {
    entry->count += weight;
    if (dest != kNilInstance) entry->dest = dest;
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
  table_.erase_if([cutoff](const Entry& e) { return e.count <= cutoff; });
  offset_ = std::max(offset_, cutoff);
}

void MisraGries::union_entry(const Entry& entry) {
  // Each key receives at most one addition per source, so the union is
  // independent of the order entries arrive in. No truncation — see the
  // header for why dropping entries here would break the heavy-hitter
  // guarantee under chained merges.
  if (const auto [mine, inserted] = table_.insert(entry); !inserted) {
    mine->count += entry.count;
    mine->error += entry.error;
    if (entry.dest != kNilInstance) mine->dest = entry.dest;
  }
}

void MisraGries::merge(const MisraGries& other) {
  SKW_EXPECTS(&other != this);
  total_ += other.total_;
  table_.reserve(table_.size() + other.table_.size());
  for (const Entry& entry : other.table_.entries()) union_entry(entry);
}

void MisraGries::merge(const std::vector<Entry>& entries,
                       double total_weight) {
  total_ += total_weight;
  table_.reserve(table_.size() + entries.size());
  for (const Entry& e : entries) union_entry(e);
}

void MisraGries::merge_entry(const Entry& entry, double total_weight) {
  total_ += total_weight;
  union_entry(entry);
}

const MisraGries::Entry* MisraGries::find(KeyId key) const {
  return table_.find(key);
}

std::vector<MisraGries::Entry> MisraGries::entries_by_count() const {
  std::vector<Entry> out = entries_unsorted();
  std::sort(out.begin(), out.end(), count_order);
  return out;
}

std::vector<MisraGries::Entry> MisraGries::entries_by_count_at_least(
    double min_count) const {
  std::vector<Entry> out;
  for (const Entry& entry : table_.entries()) {
    if (entry.count >= min_count) out.push_back(entry);
  }
  std::sort(out.begin(), out.end(), count_order);
  return out;
}

std::size_t MisraGries::memory_bytes() const {
  return cleared_memory_bytes() + table_.memory_bytes();
}

std::size_t MisraGries::cleared_memory_bytes() const {
  return sizeof(*this) + prune_scratch_.capacity() * sizeof(double);
}

void MisraGries::clear() {
  table_.clear();
  total_ = 0.0;
  offset_ = 0.0;
}

bool MisraGries::restore(const std::vector<Entry>& entries,
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
