// Shared helpers for the suites that fork NetEngine workers.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <sys/mman.h>
#include <vector>

#include "common/log.h"
#include "engine/interval.h"
#include "net/net_engine.h"

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
