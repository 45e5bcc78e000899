// The benchmark's operator and its tracing decorator.
//
// BenchLogic keeps WordCount's per-key aggregate (tuple count and value
// sum, with WordCount's checksum rule) but bounds each key's window by
// COUNT, so state stops growing once a key has been seen `window` times,
// and it spends a fixed number of mix64 rounds per tuple. The rounds make
// the workers, not the driver, the bottleneck: queues stay full and the
// balance between workers sets throughput.
//
// ProfiledLogic forwards to BenchLogic and sums the time spent in
// process() per worker into slots in a shared anonymous mapping, so the
// counts survive fork() and the net engine's worker processes report into
// the same slots as the threaded engine's worker threads.
#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "common/hash.h"
#include "engine/operator.h"

namespace perfbench {

using skewless::ByteReader;
using skewless::ByteWriter;
using skewless::Bytes;
using skewless::Collector;
using skewless::Cost;
using skewless::KeyState;
using skewless::Tuple;

/// WordCount's state rule: the aggregate is the checksum, the window is a
/// bounded cache of the last `window` per-tuple digests.
inline std::uint64_t aggregate_checksum(std::uint64_t count,
                                        std::int64_t value_sum) {
  return skewless::mix64(count * 0x9e37ULL +
                         static_cast<std::uint64_t>(value_sum));
}

class BenchState final : public KeyState {
 public:
  [[nodiscard]] Bytes bytes() const override {
    return 24.0 + 8.0 * static_cast<Bytes>(window_.size());
  }
  [[nodiscard]] std::uint64_t checksum() const override {
    return aggregate_checksum(count_, value_sum_);
  }
  void serialize(ByteWriter& out) const override {
    out.u64(count_);
    out.i64(value_sum_);
    out.u32(static_cast<std::uint32_t>(window_.size()));
    // Oldest first, so the receiver restarts its ring at slot 0.
    for (std::size_t i = 0; i < window_.size(); ++i) {
      out.u64(window_[(head_ + i) % window_.size()]);
    }
  }

  static std::unique_ptr<BenchState> deserialize(ByteReader& in,
                                                 std::size_t max_window) {
    auto state = std::make_unique<BenchState>();
    state->count_ = in.u64();
    state->value_sum_ = in.i64();
    const std::uint32_t n = in.u32();
    if (n > max_window || !in.fits(n, sizeof(std::uint64_t))) {
      in.fail();
      return state;
    }
    state->window_.resize(n);
    for (auto& digest : state->window_) digest = in.u64();
    return state;
  }

  /// Folds one tuple: the aggregate always, the digest into the window,
  /// overwriting the oldest entry once the window is full.
  void add(std::int64_t value, std::uint64_t digest, std::size_t max_window) {
    ++count_;
    value_sum_ += value;
    if (window_.size() < max_window) {
      window_.push_back(digest);
    } else {
      window_[head_] = digest;
      head_ = (head_ + 1) % window_.size();
    }
  }

  [[nodiscard]] std::uint64_t last_digest() const {
    if (window_.empty()) return 0;
    return window_[(head_ + window_.size() - 1) % window_.size()];
  }

 private:
  std::uint64_t count_ = 0;
  std::int64_t value_sum_ = 0;
  std::vector<std::uint64_t> window_;
  std::size_t head_ = 0;  // oldest entry once the window is full
};

class BenchLogic final : public skewless::OperatorLogic {
 public:
  BenchLogic(int rounds, std::size_t window)
      : rounds_(rounds), window_(window) {}

  [[nodiscard]] std::unique_ptr<KeyState> make_state() const override {
    return std::make_unique<BenchState>();
  }
  [[nodiscard]] std::unique_ptr<KeyState> deserialize_state(
      ByteReader& in) const override {
    return BenchState::deserialize(in, window_);
  }

  /// A constant declared cost, so plans depend only on the stream.
  Cost process(const Tuple& tuple, KeyState& state,
               Collector& /*out*/) const override {
    auto& s = static_cast<BenchState&>(state);
    std::uint64_t h = s.last_digest() ^ static_cast<std::uint64_t>(tuple.value);
    for (int r = 0; r < rounds_; ++r) {
      h = skewless::mix64(h + static_cast<std::uint64_t>(r));
    }
    s.add(tuple.value, h, window_);
    return 1.0;
  }

 private:
  int rounds_;
  std::size_t window_;
};

/// Per-worker operator counters in memory shared across fork(). Each
/// worker thread or process claims one slot on its first process() call
/// and is its slot's only writer.
class OperatorProfile {
 public:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> tuples{0};
  };
  static constexpr std::size_t kMaxSlots = 64;

  OperatorProfile() {
    void* mem = ::mmap(nullptr, sizeof(Shared), PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) throw std::bad_alloc();
    shared_ = new (mem) Shared();
    static std::atomic<std::uint64_t> next_id{1};
    id_ = next_id.fetch_add(1);
  }
  ~OperatorProfile() {
    shared_->~Shared();
    ::munmap(shared_, sizeof(Shared));
  }
  OperatorProfile(const OperatorProfile&) = delete;
  OperatorProfile& operator=(const OperatorProfile&) = delete;

  /// The calling thread's slot, claimed on first use.
  Slot& slot() {
    thread_local std::uint64_t owner = 0;
    thread_local Slot* mine = nullptr;
    if (owner != id_) {
      // Past kMaxSlots workers, slots are shared (and their counts mixed).
      mine = &shared_->slots[shared_->claimed.fetch_add(1) % kMaxSlots];
      owner = id_;
    }
    return *mine;
  }

  /// Zeroes every slot. Call only while no worker is inside process().
  void reset() {
    for (auto& s : shared_->slots) {
      s.busy_ns.store(0);
      s.tuples.store(0);
    }
  }

  [[nodiscard]] std::size_t claimed() const {
    return std::min(shared_->claimed.load(), kMaxSlots);
  }
  [[nodiscard]] const Slot& at(std::size_t i) const {
    return shared_->slots[i];
  }

 private:
  struct Shared {
    std::atomic<std::size_t> claimed{0};
    Slot slots[kMaxSlots];
  };
  Shared* shared_ = nullptr;
  std::uint64_t id_ = 0;
};

class ProfiledLogic final : public skewless::OperatorLogic {
 public:
  ProfiledLogic(std::shared_ptr<const skewless::OperatorLogic> inner,
                OperatorProfile& profile)
      : inner_(std::move(inner)), profile_(profile) {}

  [[nodiscard]] std::unique_ptr<KeyState> make_state() const override {
    return inner_->make_state();
  }
  [[nodiscard]] std::unique_ptr<KeyState> deserialize_state(
      ByteReader& in) const override {
    return inner_->deserialize_state(in);
  }
  Cost process(const Tuple& tuple, KeyState& state,
               Collector& out) const override {
    const auto t0 = std::chrono::steady_clock::now();
    const Cost cost = inner_->process(tuple, state, out);
    const auto t1 = std::chrono::steady_clock::now();
    OperatorProfile::Slot& s = profile_.slot();
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    s.busy_ns.store(s.busy_ns.load(std::memory_order_relaxed) + ns,
                    std::memory_order_relaxed);
    s.tuples.store(s.tuples.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
    return cost;
  }

 private:
  std::shared_ptr<const skewless::OperatorLogic> inner_;
  OperatorProfile& profile_;
};

}  // namespace perfbench
