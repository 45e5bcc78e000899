// AssignmentFunction — the paper's Eq. (1):
//
//   F(k) = A[k]   if an entry (k, d) exists in the routing table A,
//          h(k)   otherwise (consistent hashing).
//
// This is the object the upstream router evaluates per tuple; rebalance
// plans are installed by swapping the table contents atomically between
// intervals.
#pragma once

#include <vector>

#include "common/assert.h"
#include "common/consistent_hash.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/routing_table.h"

namespace skewless {

class AssignmentFunction {
 public:
  AssignmentFunction(ConsistentHashRing ring, std::size_t max_table_entries)
      : ring_(std::move(ring)), table_(max_table_entries) {}

  /// Evaluates F(k). With retired instances (degraded mode), any key
  /// whose table or ring destination is retired is deterministically
  /// re-homed onto a survivor.
  [[nodiscard]] InstanceId operator()(KeyId key) const {
    if (const auto dest = table_.lookup(key)) return resolve(*dest, key);
    return resolve(ring_.owner(key), key);
  }

  /// The hash default h(k) regardless of table contents.
  [[nodiscard]] InstanceId hash_dest(KeyId key) const {
    return ring_.owner(key);
  }

  [[nodiscard]] const RoutingTable& table() const { return table_; }
  [[nodiscard]] RoutingTable& table() { return table_; }
  [[nodiscard]] const ConsistentHashRing& ring() const { return ring_; }
  [[nodiscard]] InstanceId num_instances() const {
    return ring_.num_instances();
  }

  /// Scale-out: adds a new instance to the hash ring. Keys that the ring
  /// reassigns but that must stay put (stateful!) get explicit entries via
  /// the next rebalance; callers normally follow this with a plan install.
  void add_instance() { ring_.add_instance(); }

  /// Materializes F over the dense key domain [0, num_keys).
  [[nodiscard]] std::vector<InstanceId> materialize(
      std::size_t num_keys) const;

  /// Materializes h over the dense key domain.
  [[nodiscard]] std::vector<InstanceId> materialize_hash(
      std::size_t num_keys) const;

  /// Installs a new dense assignment: table entries are exactly the keys
  /// where `assignment[k] != h(k)`.
  void install(const std::vector<InstanceId>& assignment);

  /// Sparse point update: routes `key` to `dest` (adding or removing its
  /// explicit entry as needed), leaving every other key untouched. The
  /// O(moves) plan-installation primitive of the compact planning path —
  /// untracked cold keys keep their entries, so the table invariant
  /// (entry exists iff F(k) != h(k)) is preserved key-by-key.
  void apply(KeyId key, InstanceId dest);

  /// Degraded mode (fault tolerance): marks an instance as permanently
  /// gone. F never returns it again — keys it owned re-home onto the
  /// survivors via a deterministic salted hash, WITHOUT moving the ring
  /// (a ring rebuild would shuffle keys between healthy instances too).
  /// At least one instance must survive.
  void retire(InstanceId id) {
    SKW_EXPECTS(id >= 0 && id < num_instances());
    if (retired_.empty()) {
      retired_.assign(static_cast<std::size_t>(num_instances()), 0);
    }
    retired_[static_cast<std::size_t>(id)] = 1;
    survivors_.clear();
    for (InstanceId d = 0; d < num_instances(); ++d) {
      if (retired_[static_cast<std::size_t>(d)] == 0) survivors_.push_back(d);
    }
    SKW_EXPECTS(!survivors_.empty());
  }

  [[nodiscard]] bool is_retired(InstanceId id) const {
    const auto i = static_cast<std::size_t>(id);
    return i < retired_.size() && retired_[i] != 0;
  }

  [[nodiscard]] bool has_retired() const { return !survivors_.empty(); }

 private:
  /// Survivor re-home for retired destinations (identity otherwise).
  [[nodiscard]] InstanceId resolve(InstanceId dest, KeyId key) const {
    if (survivors_.empty() || retired_[static_cast<std::size_t>(dest)] == 0) {
      return dest;
    }
    const auto h = mix64(static_cast<std::uint64_t>(key) ^ kRetireSalt);
    return survivors_[h % survivors_.size()];
  }

  /// Distinct from the ring's hashing so re-homed keys spread evenly
  /// across survivors instead of piling onto ring neighbours.
  static constexpr std::uint64_t kRetireSalt = 0x5377766f72537276ULL;

  ConsistentHashRing ring_;
  RoutingTable table_;
  /// Empty until the first retire() (the hot path stays branch-cheap);
  /// afterwards retired_[d] != 0 marks dead instances and survivors_
  /// lists the rest.
  std::vector<char> retired_;
  std::vector<InstanceId> survivors_;
};

/// ∆(F, F') — keys whose destination differs between two dense assignments.
[[nodiscard]] std::vector<KeyId> assignment_delta(
    const std::vector<InstanceId>& before,
    const std::vector<InstanceId>& after);

}  // namespace skewless
