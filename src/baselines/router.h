// Per-tuple routing policies the sim engine models besides keyed routing.
//
//  * Shuffle — the paper's "Ideal" upper bound: round-robin, ignoring
//              keys entirely (unusable for stateful ops, but it bounds
//              achievable throughput/latency). It needs no router:
//              SimEngine's RoutingMode::kShuffle spreads each interval's
//              work evenly in closed form.
//  * PkgRouter — Partial Key Grouping (Nasir et al., ICDE'15): each key
//                has two candidate destinations (two independent hashes);
//                each tuple goes to the currently lesser-loaded of the
//                two. Splits keys, so stateful aggregations need a
//                downstream merge step — the engine models that extra
//                stage's latency.
//
// Keyed strategies route through a Controller's AssignmentFunction
// instead (see core/controller.h). That includes the plain "Storm"
// baseline: a controller without a planner, whose F is consistent
// hashing with an empty routing table.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/hash.h"
#include "common/types.h"

namespace skewless {

class PkgRouter {
 public:
  explicit PkgRouter(InstanceId num_instances, std::uint64_t seed = 0x9c9)
      : num_instances_(num_instances),
        seed_(seed),
        load_(static_cast<std::size_t>(num_instances), 0.0) {
    SKW_EXPECTS(num_instances > 0);
  }

  /// Routes one tuple: the lesser-loaded of the key's two candidates.
  /// `cost_estimate` is the tuple's expected processing cost (1.0 when
  /// unknown — PKG balances on tuple counts).
  [[nodiscard]] InstanceId route(KeyId key, Cost cost_estimate = 1.0) {
    const auto c1 = candidate(key, 0);
    const auto c2 = candidate(key, 1);
    const InstanceId pick =
        load_[static_cast<std::size_t>(c1)] <= load_[static_cast<std::size_t>(c2)]
            ? c1
            : c2;
    load_[static_cast<std::size_t>(pick)] += cost_estimate;
    return pick;
  }

  /// Both candidate destinations for a key (needed by the merge stage and
  /// by join-style broadcasts, which PKG cannot avoid).
  [[nodiscard]] InstanceId candidate(KeyId key, int which) const {
    return static_cast<InstanceId>(
        hash64(key, seed_ + static_cast<std::uint64_t>(which) * 0x51edULL) %
        static_cast<std::uint64_t>(num_instances_));
  }

  /// Interval boundary: decay the load estimates so routing follows the
  /// current distribution, not all history.
  void on_interval() {
    for (auto& l : load_) l *= 0.5;
  }

  [[nodiscard]] InstanceId num_instances() const { return num_instances_; }
  [[nodiscard]] const std::vector<Cost>& loads() const { return load_; }

  void add_instance() {
    ++num_instances_;
    load_.push_back(0.0);
  }

 private:
  InstanceId num_instances_;
  std::uint64_t seed_;
  std::vector<Cost> load_;
};

}  // namespace skewless
