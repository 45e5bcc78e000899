#include "common/consistent_hash.h"

#include <algorithm>

#include "common/assert.h"
#include "common/hash.h"

namespace skewless {

ConsistentHashRing::ConsistentHashRing(InstanceId num_instances,
                                       int virtual_nodes, std::uint64_t seed)
    : num_instances_(0), virtual_nodes_(virtual_nodes), seed_(seed) {
  SKW_EXPECTS(num_instances > 0);
  SKW_EXPECTS(virtual_nodes > 0);
  ring_.reserve(static_cast<std::size_t>(num_instances) *
                static_cast<std::size_t>(virtual_nodes));
  for (InstanceId i = 0; i < num_instances; ++i) add_instance();
}

void ConsistentHashRing::insert_instance_points(InstanceId id) {
  for (int v = 0; v < virtual_nodes_; ++v) {
    const std::uint64_t pos =
        hash64(static_cast<std::uint64_t>(id) * 0x9e3779b1ULL +
                   static_cast<std::uint64_t>(v),
               seed_);
    ring_.push_back(RingPoint{pos, id});
  }
  std::sort(ring_.begin(), ring_.end());
}

InstanceId ConsistentHashRing::owner(KeyId key) const {
  SKW_EXPECTS(!ring_.empty());
  const std::uint64_t h = hash64(key, seed_ ^ 0xabcdef12345ULL);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), RingPoint{h, -1},
      [](const RingPoint& a, const RingPoint& b) {
        return a.position < b.position;
      });
  if (it == ring_.end()) it = ring_.begin();  // wrap around the ring
  return it->instance;
}

void ConsistentHashRing::add_instance() {
  insert_instance_points(num_instances_);
  ++num_instances_;
}

void ConsistentHashRing::remove_last_instance() {
  SKW_EXPECTS(num_instances_ > 1);
  const InstanceId victim = num_instances_ - 1;
  ring_.erase(std::remove_if(ring_.begin(), ring_.end(),
                             [victim](const RingPoint& p) {
                               return p.instance == victim;
                             }),
              ring_.end());
  --num_instances_;
}

}  // namespace skewless
