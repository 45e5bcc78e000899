// Concrete stateful operator logics for the threaded engine:
//
//  * WordCountLogic — the Social experiment's topology: counts tuples per
//    key while keeping the recent tuples in memory (the paper's word
//    count "continuously maintain[s] current tuples in memory and
//    updat[es] the appearance frequency").
//  * SelfJoinLogic — the Stock experiment's topology: a sliding-window
//    self-join per key ("find potential high-frequency players with
//    dense buying and selling behavior"); each tuple matches against the
//    key's in-window history, so cost grows with state.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "engine/operator.h"

namespace skewless {

/// State for WordCountLogic: total count plus the in-memory tuple buffer.
class WordCountState final : public KeyState {
 public:
  [[nodiscard]] Bytes bytes() const override {
    return 24.0 + 16.0 * static_cast<Bytes>(recent_.size());
  }
  [[nodiscard]] std::uint64_t checksum() const override;
  void serialize(ByteWriter& out) const override;
  /// Drops the buffered tuples stamped before `watermark`.
  void expire_before(Micros watermark);

  static std::unique_ptr<WordCountState> deserialize(ByteReader& in);

  void add(Micros time_us, std::int64_t value);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::size_t buffered() const { return recent_.size(); }

 private:
  std::uint64_t count_ = 0;
  std::int64_t value_sum_ = 0;
  std::deque<std::pair<Micros, std::int64_t>> recent_;
};

class WordCountLogic final : public OperatorLogic {
 public:
  /// `cost_per_tuple_us` is the declared CPU cost reported to the
  /// controller per processed tuple.
  explicit WordCountLogic(Cost cost_per_tuple_us = 1.0)
      : cost_per_tuple_us_(cost_per_tuple_us) {}

  [[nodiscard]] std::unique_ptr<KeyState> make_state() const override {
    return std::make_unique<WordCountState>();
  }
  [[nodiscard]] std::unique_ptr<KeyState> deserialize_state(
      ByteReader& in) const override {
    return WordCountState::deserialize(in);
  }

  Cost process(const Tuple& tuple, KeyState& state,
               Collector& out) const override;

 private:
  Cost cost_per_tuple_us_;
};

/// State for SelfJoinLogic: the key's in-window tuple history.
class SelfJoinState final : public KeyState {
 public:
  [[nodiscard]] Bytes bytes() const override {
    return 16.0 * static_cast<Bytes>(window_.size());
  }
  [[nodiscard]] std::uint64_t checksum() const override;
  void serialize(ByteWriter& out) const override;
  /// Drops the buffered tuples stamped before `watermark`.
  void expire_before(Micros watermark);

  static std::unique_ptr<SelfJoinState> deserialize(ByteReader& in);

  void append(Micros time_us, std::int64_t value) {
    window_.emplace_back(time_us, value);
  }
  [[nodiscard]] std::size_t window_size() const { return window_.size(); }
  [[nodiscard]] const std::deque<std::pair<Micros, std::int64_t>>& window()
      const {
    return window_;
  }

 private:
  std::deque<std::pair<Micros, std::int64_t>> window_;
};

class SelfJoinLogic final : public OperatorLogic {
 public:
  /// Every tuple probes the key's window: cost = base + probe · |window|.
  /// A match (equal value sign heuristic stands in for the business
  /// predicate) emits one output tuple.
  SelfJoinLogic(Cost base_cost_us = 1.0, Cost probe_cost_us = 0.02,
                std::size_t max_window_tuples = 4096)
      : base_cost_us_(base_cost_us),
        probe_cost_us_(probe_cost_us),
        max_window_tuples_(max_window_tuples) {}

  [[nodiscard]] std::unique_ptr<KeyState> make_state() const override {
    return std::make_unique<SelfJoinState>();
  }
  [[nodiscard]] std::unique_ptr<KeyState> deserialize_state(
      ByteReader& in) const override {
    return SelfJoinState::deserialize(in);
  }

  Cost process(const Tuple& tuple, KeyState& state,
               Collector& out) const override;

 private:
  Cost base_cost_us_;
  Cost probe_cost_us_;
  std::size_t max_window_tuples_;
};

}  // namespace skewless
