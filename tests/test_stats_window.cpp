#include "core/stats_window.h"

#include <gtest/gtest.h>

namespace skewless {
namespace {

TEST(StatsWindow, FreshWindowIsZero) {
  const StatsWindow w(10, 3);
  EXPECT_EQ(w.num_keys(), 10u);
  EXPECT_EQ(w.window(), 3);
  EXPECT_EQ(w.closed_intervals(), 0);
  EXPECT_EQ(w.total_windowed_state(), 0.0);
}

TEST(StatsWindow, RecordAccumulatesWithinInterval) {
  StatsWindow w(4, 1);
  w.record(1, 2.0, 8.0);
  w.record(1, 3.0, 8.0);
  w.roll();
  EXPECT_EQ(w.last_cost()[1], 5.0);
  EXPECT_EQ(w.windowed_state()[1], 16.0);
}

TEST(StatsWindow, RollResetsCurrentInterval) {
  StatsWindow w(2, 1);
  w.record(0, 1.0, 4.0);
  w.roll();
  w.roll();  // empty second interval
  EXPECT_EQ(w.last_cost()[0], 0.0);
}

TEST(StatsWindow, WindowSumCoversLastWIntervals) {
  StatsWindow w(1, 2);
  w.record(0, 1.0, 10.0);
  w.roll();  // interval 1: 10 bytes
  w.record(0, 1.0, 20.0);
  w.roll();  // interval 2: 20 bytes; window = 30
  EXPECT_EQ(w.windowed_state()[0], 30.0);
  w.record(0, 1.0, 5.0);
  w.roll();  // interval 3: 5 bytes; interval 1 expires -> 25
  EXPECT_EQ(w.windowed_state()[0], 25.0);
  w.roll();  // interval 4: 0; interval 2 expires -> 5
  EXPECT_EQ(w.windowed_state()[0], 5.0);
  w.roll();  // everything expired
  EXPECT_EQ(w.windowed_state()[0], 0.0);
}

TEST(StatsWindow, WindowOneKeepsOnlyLastInterval) {
  StatsWindow w(1, 1);
  w.record(0, 1.0, 100.0);
  w.roll();
  EXPECT_EQ(w.windowed_state()[0], 100.0);
  w.roll();
  EXPECT_EQ(w.windowed_state()[0], 0.0);
}

TEST(StatsWindow, TotalWindowedState) {
  StatsWindow w(3, 2);
  w.record(0, 1.0, 10.0);
  w.record(2, 1.0, 30.0);
  w.roll();
  EXPECT_EQ(w.total_windowed_state(), 40.0);
}

// A key first recorded while the ring holds fewer than w closed
// intervals starts from zero history, and both keys expire on their own
// schedules.
TEST(StatsWindow, LateKeyInPartiallyFilledRing) {
  StatsWindow w(5, 3);
  w.record(0, 1.0, 10.0);
  w.roll();  // ring: [10] — 1 of 3 slots used
  w.record(0, 1.0, 20.0);
  w.roll();  // ring: [10, 20]
  EXPECT_EQ(w.windowed_state()[0], 30.0);
  EXPECT_EQ(w.windowed_state()[4], 0.0);

  w.record(4, 1.0, 7.0);
  w.roll();  // ring: [10, 20, 7-interval] — now full
  EXPECT_EQ(w.windowed_state()[0], 30.0);
  EXPECT_EQ(w.windowed_state()[4], 7.0);
  w.roll();  // the first interval (10) expires first
  EXPECT_EQ(w.windowed_state()[0], 20.0);
  EXPECT_EQ(w.windowed_state()[4], 7.0);
  w.roll();  // then the 20
  EXPECT_EQ(w.windowed_state()[0], 0.0);
  EXPECT_EQ(w.windowed_state()[4], 7.0);
  w.roll();  // finally the late key's interval
  EXPECT_EQ(w.windowed_state()[4], 0.0);
}

// record() beyond num_keys() is a contract violation by design; the
// sketch provider auto-grows instead — see the headers of both classes.
// RecordOutOfRangeKey below pins the asserting behaviour.
TEST(StatsWindow, RecordAtExactDomainBoundary) {
  StatsWindow w(3, 1);
  w.record(2, 1.0, 1.0);  // largest valid key
  w.roll();
  EXPECT_EQ(w.last_cost()[2], 1.0);
}

TEST(StatsWindow, ClosedIntervalCount) {
  StatsWindow w(1, 1);
  for (int i = 0; i < 5; ++i) w.roll();
  EXPECT_EQ(w.closed_intervals(), 5);
}

TEST(StatsWindowDeath, RecordOutOfRangeKey) {
  StatsWindow w(2, 1);
  EXPECT_DEATH(w.record(5, 1.0, 1.0), "precondition");
}

TEST(StatsWindowDeath, NegativeCostRejected) {
  StatsWindow w(2, 1);
  EXPECT_DEATH(w.record(0, -1.0, 1.0), "precondition");
}

class WindowLengthParam : public ::testing::TestWithParam<int> {};

TEST_P(WindowLengthParam, SumAlwaysEqualsLastWContributions) {
  const int window = GetParam();
  StatsWindow w(1, window);
  // Interval i contributes i bytes.
  double expected = 0.0;
  std::vector<double> contributions;
  for (int i = 1; i <= 30; ++i) {
    w.record(0, 0.0, static_cast<double>(i));
    w.roll();
    contributions.push_back(static_cast<double>(i));
    expected = 0.0;
    const int from = std::max(0, i - window);
    for (int j = from; j < i; ++j) {
      expected += contributions[static_cast<std::size_t>(j)];
    }
    EXPECT_NEAR(w.windowed_state()[0], expected, 1e-9) << "interval " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowLengthParam,
                         ::testing::Values(1, 2, 5, 10, 15, 20));

}  // namespace
}  // namespace skewless
