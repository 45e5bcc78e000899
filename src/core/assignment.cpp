#include "core/assignment.h"

#include "common/assert.h"

namespace skewless {

std::vector<InstanceId> AssignmentFunction::materialize(
    std::size_t num_keys) const {
  std::vector<InstanceId> out(num_keys);
  for (std::size_t k = 0; k < num_keys; ++k) {
    out[k] = (*this)(static_cast<KeyId>(k));
  }
  return out;
}

std::vector<InstanceId> AssignmentFunction::materialize_hash(
    std::size_t num_keys) const {
  std::vector<InstanceId> out(num_keys);
  for (std::size_t k = 0; k < num_keys; ++k) {
    out[k] = ring_.owner(static_cast<KeyId>(k));
  }
  return out;
}

void AssignmentFunction::install(const std::vector<InstanceId>& assignment) {
  std::vector<std::pair<KeyId, InstanceId>> entries;
  for (std::size_t k = 0; k < assignment.size(); ++k) {
    const auto key = static_cast<KeyId>(k);
    SKW_EXPECTS(assignment[k] >= 0 && assignment[k] < num_instances());
    if (assignment[k] != ring_.owner(key)) {
      entries.emplace_back(key, assignment[k]);
    }
  }
  table_.assign(std::move(entries));
}

void AssignmentFunction::apply(KeyId key, InstanceId dest) {
  SKW_EXPECTS(dest >= 0 && dest < num_instances());
  if (dest == ring_.owner(key)) {
    table_.erase(key);
  } else {
    table_.set_unchecked(key, dest);
  }
}

std::vector<KeyId> assignment_delta(const std::vector<InstanceId>& before,
                                    const std::vector<InstanceId>& after) {
  SKW_EXPECTS(before.size() == after.size());
  std::vector<KeyId> delta;
  for (std::size_t k = 0; k < before.size(); ++k) {
    if (before[k] != after[k]) delta.push_back(static_cast<KeyId>(k));
  }
  return delta;
}

}  // namespace skewless
