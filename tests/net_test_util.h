// Shared helpers for the suites that fork NetEngine workers.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <sys/mman.h>
#include <utility>
#include <vector>

#include "common/log.h"
#include "core/assignment.h"
#include "core/controller.h"
#include "engine/interval.h"
#include "net/net_engine.h"
#include "workload/operators.h"

namespace skewless::testutil {

/// True under ThreadSanitizer, which cannot instrument the fork-based
/// engine: its suites skip there.
inline bool tsan_enabled() {
#if defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  return true;
#endif
#endif
  return false;
}

/// One atomic int in MAP_SHARED memory: every worker forked after its
/// construction sees the test's writes and the test sees theirs, so a
/// fault armed here fires once per run, respawns included.
class SharedFlag {
 public:
  SharedFlag()
      : mem_(::mmap(nullptr, sizeof(std::atomic<int>), PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_ANONYMOUS, -1, 0)) {
    static_assert(std::atomic<int>::is_always_lock_free);
    if (mem_ != MAP_FAILED) flag_ = new (mem_) std::atomic<int>(0);
  }
  ~SharedFlag() {
    if (flag_ != nullptr) ::munmap(mem_, sizeof(std::atomic<int>));
  }
  SharedFlag(const SharedFlag&) = delete;
  SharedFlag& operator=(const SharedFlag&) = delete;

  /// Null when the mapping failed.
  [[nodiscard]] std::atomic<int>* get() const { return flag_; }

 private:
  void* mem_;
  std::atomic<int>* flag_ = nullptr;
};

/// Everything the byte-identity contract covers, harvested from one run.
struct RunDigest {
  std::uint64_t plan_digest = 0;
  std::uint64_t state_checksum = 0;
  std::size_t state_entries = 0;
  std::uint64_t processed = 0;
  std::uint64_t outputs = 0;
  std::vector<std::uint64_t> theta_bits;  // exact double bit patterns
  std::size_t rebalances = 0;
  std::uint64_t recoveries = 0;
  bool degraded = false;
  bool ok = false;
  std::string error;
};

/// Harvests the digest of a finished run and shuts the engine down.
inline RunDigest digest_of(NetEngine& engine,
                           const std::vector<IntervalReport>& reports) {
  RunDigest d;
  for (const auto& r : reports) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(r.max_theta));
    std::memcpy(&bits, &r.max_theta, sizeof(bits));
    d.theta_bits.push_back(bits);
  }
  d.plan_digest = engine.controller()->plan_history_digest();
  d.rebalances = engine.controller()->rebalance_count();
  engine.shutdown();
  d.ok = engine.ok();
  d.error = engine.error();
  d.state_checksum = engine.state_checksum();
  d.state_entries = engine.total_state_entries();
  d.processed = engine.total_processed();
  d.outputs = engine.total_output_tuples();
  d.recoveries = engine.recoveries();
  d.degraded = engine.degraded();
  return d;
}

inline void expect_byte_identical(const RunDigest& got, const RunDigest& clean,
                                  const std::string& label) {
  ASSERT_TRUE(got.ok) << label << ": " << got.error;
  EXPECT_EQ(got.plan_digest, clean.plan_digest) << label;
  EXPECT_EQ(got.state_checksum, clean.state_checksum) << label;
  EXPECT_EQ(got.state_entries, clean.state_entries) << label;
  EXPECT_EQ(got.processed, clean.processed) << label;
  EXPECT_EQ(got.outputs, clean.outputs) << label;
  ASSERT_EQ(got.theta_bits.size(), clean.theta_bits.size()) << label;
  for (std::size_t i = 0; i < clean.theta_bits.size(); ++i) {
    EXPECT_EQ(got.theta_bits[i], clean.theta_bits[i])
        << label << " θ interval " << i;
  }
}

/// A sketch-mode controller with no planner: the run never migrates, so
/// a worker serializes state only to encode its checkpoint and
/// deserializes state only in a restore.
inline std::unique_ptr<Controller> static_controller(
    InstanceId workers, std::size_t num_keys = 400) {
  ControllerConfig ccfg;
  ccfg.stats_mode = StatsMode::kSketch;
  ccfg.sketch.heavy_capacity = 128;
  return std::make_unique<Controller>(
      AssignmentFunction(ConsistentHashRing(workers), 0), nullptr, ccfg,
      num_keys);
}

/// `count` (at most 20) intervals of 6,000 tuples for static_controller():
/// half spread over keys 0..299, half on five hot keys that change every
/// interval, so each boundary broadcasts a different heavy set. Every
/// worker of three takes well over a credit window of 64-tuple batches
/// in each.
inline std::vector<std::vector<Tuple>> keyed_intervals(std::size_t count) {
  std::vector<std::vector<Tuple>> intervals(count);
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t t = 0; t < 6'000; ++t) {
      Tuple tuple;
      tuple.key = static_cast<KeyId>(t % 2 == 0 ? (t * 7 + i) % 300
                                                : 300 + 5 * i + t % 5);
      tuple.value = 1;
      intervals[i].push_back(tuple);
    }
  }
  return intervals;
}

/// WordCountLogic whose states report each serialization to
/// on_serialize(), saying whether the state ever processed kWatchedKey
/// (the mark is serialized with the state). Under static_controller(), a
/// worker serializes states only to encode its checkpoint, which it does
/// right after its summary went out: a hook that ends the process there
/// loses the checkpoint of an epoch whose summary the driver absorbs.
class SerializeHookLogic : public OperatorLogic {
 public:
  static constexpr KeyId kWatchedKey = 0;

  [[nodiscard]] std::unique_ptr<KeyState> make_state() const override {
    return std::make_unique<State>(inner_.make_state(), *this);
  }
  [[nodiscard]] std::unique_ptr<KeyState> deserialize_state(
      ByteReader& in) const override {
    const bool watched = in.u8() != 0;
    auto state = std::make_unique<State>(inner_.deserialize_state(in), *this);
    state->watched = watched;
    return state;
  }
  Cost process(const Tuple& tuple, KeyState& state,
               Collector& out) const override {
    before_process(tuple);
    auto& s = static_cast<State&>(state);
    s.watched |= tuple.key == kWatchedKey;
    return cost(inner_.process(tuple, *s.inner, out));
  }

 protected:
  virtual void on_serialize(bool watched) const = 0;
  virtual void before_process(const Tuple& /*tuple*/) const {}
  /// The cost reported for a tuple WordCountLogic priced at `cost`.
  [[nodiscard]] virtual Cost cost(Cost cost) const { return cost; }

 private:
  struct State final : KeyState {
    State(std::unique_ptr<KeyState> state, const SerializeHookLogic& logic)
        : inner(std::move(state)), owner(logic) {}
    [[nodiscard]] Bytes bytes() const override { return inner->bytes(); }
    [[nodiscard]] std::uint64_t checksum() const override {
      return inner->checksum();
    }
    void serialize(ByteWriter& out) const override {
      owner.on_serialize(watched);
      out.u8(watched ? 1 : 0);
      inner->serialize(out);
    }

    std::unique_ptr<KeyState> inner;
    const SerializeHookLogic& owner;
    bool watched = false;
  };

  WordCountLogic inner_;
};

/// Captures stderr at INFO level from construction until take(), so a
/// test can read which path the engine logged a recovery through. The
/// forked workers inherit the capture too.
class CapturedLog {
 public:
  CapturedLog() : before_(log_level()) {
    set_log_level(LogLevel::kInfo);
    ::testing::internal::CaptureStderr();
  }
  CapturedLog(const CapturedLog&) = delete;
  CapturedLog& operator=(const CapturedLog&) = delete;

  /// Ends the capture (call once) and returns what was logged.
  [[nodiscard]] std::string take() {
    std::string log = ::testing::internal::GetCapturedStderr();
    set_log_level(before_);
    return log;
  }

 private:
  LogLevel before_;
};

}  // namespace skewless::testutil
