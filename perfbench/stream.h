// Seeded tuple streams for the benchmark's workloads, and the reference
// result each run is checked against.
//
// The key distribution (which keys are hot, and how the shift workload
// swaps frequencies) is part of a workload's definition and is fixed.
// The --seed argument chooses the stream's tuple order and its values, so
// different seeds exercise the same skew through different streams.
//
// The reference is computed from the generated stream alone: per key, the
// tuple count and value sum, folded with the operator's checksum rule and
// StateStore's commutative key mix.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_logic.h"
#include "common/hash.h"
#include "common/rng.h"
#include "engine/tuple.h"
#include "workload/synthetic.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  bool net = false;
  /// Share of the mean reference-instance load swapped between keys at
  /// each fluctuation (0 = a fixed distribution).
  double fluctuation = 0.0;
  int fluctuate_every = 1;
};

/// Stream parameters shared by every workload.
struct StreamShape {
  std::uint64_t num_keys = 1'000'000;
  double skew = 1.2;
  std::uint64_t tuples_per_interval = 250'000;
  /// Seed of the key distribution, not of the stream (see header).
  std::uint64_t distribution_seed = 0x5eed;
};

class Stream {
 public:
  Stream(const WorkloadSpec& spec, const StreamShape& shape,
         std::uint64_t seed)
      : source_(source_options(spec, shape)),
        rng_(mix64_seed(seed, 1)),
        value_seed_(mix64_seed(seed, 2)),
        count_(shape.num_keys, 0),
        sum_(shape.num_keys, 0) {}

  /// Expands the next interval's per-key counts into a shuffled tuple
  /// sequence and folds it into the reference.
  const std::vector<Tuple>& next() {
    const skewless::IntervalWorkload load = source_.next_interval();
    tuples_.clear();
    tuples_.reserve(static_cast<std::size_t>(load.total()));
    for (std::size_t k = 0; k < load.counts.size(); ++k) {
      for (std::uint64_t c = 0; c < load.counts[k]; ++c) {
        Tuple t;
        t.key = static_cast<skewless::KeyId>(k);
        // Small values keep the per-key sums far from overflow.
        t.value = static_cast<std::int64_t>(
            skewless::mix64(value_seed_ ^ (k << 24) ^ count_[k]) & 0xfff);
        ++count_[k];
        sum_[k] += t.value;
        tuples_.push_back(t);
      }
    }
    for (std::size_t j = tuples_.size(); j > 1; --j) {
      std::swap(tuples_[j - 1], tuples_[rng_.next_below(j)]);
    }
    return tuples_;
  }

  /// What ThreadedEngine/NetEngine::state_checksum() must return after
  /// processing every tuple next() produced.
  [[nodiscard]] std::uint64_t expected_checksum() const {
    std::uint64_t acc = 0;
    for (std::size_t k = 0; k < count_.size(); ++k) {
      if (count_[k] == 0) continue;
      acc += skewless::mix64(static_cast<std::uint64_t>(k) ^
                             aggregate_checksum(count_[k], sum_[k]));
    }
    return acc;
  }

  [[nodiscard]] std::size_t expected_entries() const {
    std::size_t n = 0;
    for (const auto c : count_) n += c > 0 ? 1 : 0;
    return n;
  }

 private:
  static skewless::ZipfFluctuatingSource::Options source_options(
      const WorkloadSpec& spec, const StreamShape& shape) {
    skewless::ZipfFluctuatingSource::Options o;
    o.num_keys = shape.num_keys;
    o.skew = shape.skew;
    o.tuples_per_interval = shape.tuples_per_interval;
    o.fluctuation = spec.fluctuation;
    o.fluctuate_every = spec.fluctuate_every;
    o.seed = shape.distribution_seed;
    return o;
  }
  static std::uint64_t mix64_seed(std::uint64_t seed, std::uint64_t salt) {
    return skewless::hash64(seed, salt);
  }

  skewless::ZipfFluctuatingSource source_;
  skewless::Xoshiro256 rng_;
  std::uint64_t value_seed_;
  std::vector<std::uint64_t> count_;
  std::vector<std::int64_t> sum_;
  std::vector<Tuple> tuples_;
};

}  // namespace perfbench
