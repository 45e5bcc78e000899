// Consistent-hash ring (Karger et al., STOC'97) — the paper's default
// placement function h : K -> D (Section II, "we use the consistent
// hashing [14] as our basic hash function").
//
// Instances are placed on a 64-bit ring at `virtual_nodes` pseudo-random
// positions each; a key maps to the owner of the first ring position at or
// after its hash. Adding/removing an instance therefore moves only ~1/N of
// the keys — exactly the property the scale-out experiment (Fig. 15)
// relies on.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace skewless {

class ConsistentHashRing {
 public:
  /// Builds a ring over instances [0, num_instances) with the given number
  /// of virtual nodes per instance. `seed` derives the ring positions so
  /// that independent rings can be constructed for tests.
  explicit ConsistentHashRing(InstanceId num_instances,
                              int virtual_nodes = 128,
                              std::uint64_t seed = 0x5eed);

  /// Maps a key to its owning instance. O(log(N * virtual_nodes)).
  [[nodiscard]] InstanceId owner(KeyId key) const;

  /// Adds one instance (id = current num_instances()). O(V log(NV)).
  void add_instance();

  /// Removes the instance with the highest id. Keys it owned redistribute
  /// to their ring successors.
  void remove_last_instance();

  [[nodiscard]] InstanceId num_instances() const { return num_instances_; }
  [[nodiscard]] int virtual_nodes() const { return virtual_nodes_; }

 private:
  struct RingPoint {
    std::uint64_t position;
    InstanceId instance;
    friend bool operator<(const RingPoint& a, const RingPoint& b) {
      return a.position < b.position ||
             (a.position == b.position && a.instance < b.instance);
    }
  };

  void insert_instance_points(InstanceId id);

  std::vector<RingPoint> ring_;  // sorted by position
  InstanceId num_instances_;
  int virtual_nodes_;
  std::uint64_t seed_;
};

}  // namespace skewless
