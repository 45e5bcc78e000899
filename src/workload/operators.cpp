#include "workload/operators.h"

#include "common/assert.h"
#include "common/hash.h"

namespace skewless {

void WordCountState::add(Micros time_us, std::int64_t value) {
  ++count_;
  value_sum_ += value;
  recent_.emplace_back(time_us, value);
}

void WordCountState::expire_before(Micros watermark) {
  while (!recent_.empty() && recent_.front().first < watermark) {
    recent_.pop_front();
  }
}

void WordCountState::serialize(ByteWriter& out) const {
  out.u64(count_);
  out.i64(value_sum_);
  out.u32(static_cast<std::uint32_t>(recent_.size()));
  for (const auto& [time_us, value] : recent_) {
    out.i64(time_us);
    out.i64(value);
  }
}

std::unique_ptr<WordCountState> WordCountState::deserialize(ByteReader& in) {
  auto state = std::make_unique<WordCountState>();
  state->count_ = in.u64();
  state->value_sum_ = in.i64();
  const std::uint32_t n = in.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const Micros t = in.i64();
    const std::int64_t v = in.i64();
    state->recent_.emplace_back(t, v);
  }
  return state;
}

std::uint64_t WordCountState::checksum() const {
  // Count and value sum fully determine the aggregate; the buffer is a
  // cache of recent tuples and is included via its size only (expiry
  // timing may differ across placements).
  return mix64(count_ * 0x9e37ULL + static_cast<std::uint64_t>(value_sum_));
}

Cost WordCountLogic::process(const Tuple& tuple, KeyState& state,
                             Collector& out) const {
  auto& wc = static_cast<WordCountState&>(state);
  wc.add(tuple.emit_micros, tuple.value);
  Tuple update;
  update.key = tuple.key;
  update.value = static_cast<std::int64_t>(wc.count());
  update.emit_micros = tuple.emit_micros;
  out.emit(update);
  return cost_per_tuple_us_;
}

void SelfJoinState::expire_before(Micros watermark) {
  while (!window_.empty() && window_.front().first < watermark) {
    window_.pop_front();
  }
}

void SelfJoinState::serialize(ByteWriter& out) const {
  out.u32(static_cast<std::uint32_t>(window_.size()));
  for (const auto& [time_us, value] : window_) {
    out.i64(time_us);
    out.i64(value);
  }
}

std::unique_ptr<SelfJoinState> SelfJoinState::deserialize(ByteReader& in) {
  auto state = std::make_unique<SelfJoinState>();
  const std::uint32_t n = in.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const Micros t = in.i64();
    const std::int64_t v = in.i64();
    state->append(t, v);
  }
  return state;
}

std::uint64_t SelfJoinState::checksum() const {
  std::uint64_t acc = 0;
  for (const auto& [time_us, value] : window_) {
    acc += mix64(static_cast<std::uint64_t>(value) * 31 + 7);
  }
  return acc;
}

Cost SelfJoinLogic::process(const Tuple& tuple, KeyState& state,
                            Collector& out) const {
  auto& sj = static_cast<SelfJoinState&>(state);
  // Probe: count in-window tuples whose value shares the tuple's parity —
  // a cheap stand-in predicate that makes output depend on real state.
  std::uint64_t matches = 0;
  for (const auto& [time_us, value] : sj.window()) {
    if (((value ^ tuple.value) & 1) == 0) ++matches;
  }
  if (matches > 0) {
    Tuple match;
    match.key = tuple.key;
    match.value = static_cast<std::int64_t>(matches);
    match.emit_micros = tuple.emit_micros;
    out.emit(match);
  }
  const Cost cost =
      base_cost_us_ + probe_cost_us_ * static_cast<Cost>(sj.window_size());
  sj.append(tuple.emit_micros, tuple.value);
  // The operator bounds its own window, so a runaway key cannot exhaust
  // memory.
  while (sj.window_size() > max_window_tuples_) {
    sj.expire_before(sj.window().front().first + 1);
  }
  return cost;
}

}  // namespace skewless
