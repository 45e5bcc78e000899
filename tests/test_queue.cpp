#include "common/queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace skewless {
namespace {

TEST(BoundedMpmcQueue, PushPopSingleThread) {
  BoundedMpmcQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  q.close();
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedMpmcQueue, PushBlocksWhileFull) {
  // The data path's backpressure: a push into a full queue waits until a
  // pop frees a slot.
  BoundedMpmcQueue<int> q(2);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(3));
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
}

TEST(BoundedMpmcQueue, ForcePushBypassesCapacityButNotClose) {
  // Control-plane semantics (the threaded engine's interval seals): a
  // force_push succeeds on a FULL queue without blocking, keeps FIFO
  // order, and still fails once the queue is closed.
  BoundedMpmcQueue<int> q(2);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.force_push(3));
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
  q.close();
  EXPECT_FALSE(q.force_push(4));
}

TEST(BoundedMpmcQueue, CloseDrainsThenReturnsNullopt) {
  BoundedMpmcQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedMpmcQueue, CloseWakesBlockedConsumer) {
  BoundedMpmcQueue<int> q(2);
  std::thread consumer([&] {
    const auto v = q.pop();
    EXPECT_FALSE(v.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  consumer.join();
}

TEST(BoundedMpmcQueue, MultiProducerMultiConsumerConservation) {
  BoundedMpmcQueue<int> q(64);
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 5000;

  std::atomic<long long> consumed_sum{0};
  std::atomic<int> consumed_count{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.pop()) {
        consumed_sum.fetch_add(*v, std::memory_order_relaxed);
        consumed_count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(p * kPerProducer + i));
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();

  const long long n = static_cast<long long>(kProducers) * kPerProducer;
  EXPECT_EQ(consumed_count.load(), n);
  EXPECT_EQ(consumed_sum.load(), n * (n - 1) / 2);
}

TEST(BoundedMpmcQueue, MoveOnlyPayload) {
  BoundedMpmcQueue<std::unique_ptr<int>> q(2);
  EXPECT_TRUE(q.push(std::make_unique<int>(42)));
  auto v = q.pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 42);
}

}  // namespace
}  // namespace skewless
