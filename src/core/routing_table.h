// The explicit routing table A of the paper's mixed routing strategy:
// a bounded map from KeyId to destination instance. Keys absent from the
// table fall through to the hash function (see AssignmentFunction).
#pragma once

#include <cstddef>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace skewless {

class RoutingTable {
 public:
  /// `max_entries` = Amax in the paper; 0 means unbounded (used by MinMig,
  /// which the paper notes "can not control the size of routing tables").
  explicit RoutingTable(std::size_t max_entries = 0)
      : max_entries_(max_entries) {}

  /// Destination for `key` if an entry exists.
  [[nodiscard]] std::optional<InstanceId> lookup(KeyId key) const {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }

  /// Inserts or updates an entry. Returns false (no-op) if inserting a new
  /// key would exceed the bound.
  bool set(KeyId key, InstanceId dest);

  /// Inserts or updates an entry regardless of the bound — the sparse
  /// equivalent of assign()'s wholesale replacement, used when installing
  /// a rebalance plan (planners may deliberately exceed Amax when no
  /// feasible plan exists; the plan's table_fits flag reports it).
  void set_unchecked(KeyId key, InstanceId dest) { entries_[key] = dest; }

  /// Removes the entry for `key` ("move back" in the paper). Returns true
  /// if an entry was removed.
  bool erase(KeyId key) { return entries_.erase(key) > 0; }

  void clear() { entries_.clear(); }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t max_entries() const { return max_entries_; }
  [[nodiscard]] bool bounded() const { return max_entries_ > 0; }

  /// Snapshot of all entries (sorted by key for deterministic iteration).
  [[nodiscard]] std::vector<std::pair<KeyId, InstanceId>> entries() const;

  /// Replaces the whole table (used when installing a rebalance plan).
  void assign(std::vector<std::pair<KeyId, InstanceId>> new_entries);

 private:
  std::unordered_map<KeyId, InstanceId> entries_;
  std::size_t max_entries_;
};

}  // namespace skewless
