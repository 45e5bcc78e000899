#include "sketch/count_min.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/zipf.h"

namespace skewless {
namespace {

CountMinSketch::Params small_params(double eps = 1e-2, double delta = 0.01,
                                    std::uint64_t seed = 42) {
  CountMinSketch::Params p;
  p.epsilon = eps;
  p.delta = delta;
  p.seed = seed;
  return p;
}

TEST(CountMin, DimensionsFromEpsilonDelta) {
  const CountMinSketch cms(small_params(1e-2, 0.01));
  // width = next pow2 of ceil(e / 0.01) = next pow2 of 272 = 512.
  EXPECT_EQ(cms.width(), 512u);
  // depth = ceil(ln 100) = 5.
  EXPECT_EQ(cms.depth(), 5u);
  EXPECT_LE(cms.effective_epsilon(), 1e-2);
  EXPECT_GT(cms.memory_bytes(), 512u * 5u * sizeof(double));
}

TEST(CountMin, EstimateNeverUnderestimates) {
  CountMinSketch cms(small_params());
  Xoshiro256 rng(7);
  std::unordered_map<KeyId, double> truth;
  for (int i = 0; i < 5000; ++i) {
    const KeyId key = rng.next_below(2000);
    const double amount = static_cast<double>(rng.next_below(100));
    cms.add(key, amount);
    truth[key] += amount;
  }
  for (const auto& [key, true_count] : truth) {
    EXPECT_GE(cms.estimate(key), true_count - 1e-9) << "key " << key;
  }
}

TEST(CountMin, ErrorBoundHoldsForMostKeys) {
  // The CM guarantee: P[est − true > ε·W] ≤ δ per query. With a fixed
  // seed we check the empirical violation rate stays under δ with slack.
  CountMinSketch cms(small_params(1e-2, 0.01, 1234));
  const ZipfDistribution zipf(5000, 1.0, true, 99);
  const auto counts = zipf.expected_counts(200'000);
  double total = 0.0;
  for (std::size_t k = 0; k < counts.size(); ++k) {
    if (counts[k] == 0) continue;
    cms.add(static_cast<KeyId>(k), static_cast<double>(counts[k]));
    total += static_cast<double>(counts[k]);
  }
  const double bound = cms.effective_epsilon() * total;
  std::size_t violations = 0;
  for (std::size_t k = 0; k < counts.size(); ++k) {
    const double err =
        cms.estimate(static_cast<KeyId>(k)) - static_cast<double>(counts[k]);
    if (err > bound) ++violations;
  }
  EXPECT_LE(static_cast<double>(violations),
            2.0 * 0.01 * static_cast<double>(counts.size()));
}

TEST(CountMin, ConservativeUpdateNeverLooserThanClassic) {
  CountMinSketch classic(small_params(5e-2, 0.05, 3));
  CountMinSketch conservative(small_params(5e-2, 0.05, 3));
  Xoshiro256 rng(11);
  std::unordered_map<KeyId, double> truth;
  for (int i = 0; i < 20'000; ++i) {
    const KeyId key = rng.next_below(3000);
    classic.add(key, 1.0);
    conservative.add_conservative(key, 1.0);
    truth[key] += 1.0;
  }
  for (const auto& [key, true_count] : truth) {
    EXPECT_GE(conservative.estimate(key), true_count - 1e-9);
    EXPECT_LE(conservative.estimate(key), classic.estimate(key) + 1e-9);
  }
}

TEST(CountMin, AddSubtractSketchMaintainsWindow) {
  // window = i1 + i2 − i1 must equal a sketch holding only i2's stream.
  const auto params = small_params(1e-2, 0.01, 5);
  CountMinSketch i1(params), i2(params), window(params);
  Xoshiro256 rng(21);
  for (int i = 0; i < 1000; ++i) i1.add(rng.next_below(500), 2.0);
  for (int i = 0; i < 1000; ++i) i2.add(rng.next_below(500), 3.0);
  window.add_sketch(i1);
  window.add_sketch(i2);
  EXPECT_DOUBLE_EQ(window.total(), i1.total() + i2.total());
  window.subtract_sketch(i1);
  for (KeyId key = 0; key < 500; ++key) {
    EXPECT_NEAR(window.estimate(key), i2.estimate(key), 1e-6) << key;
  }
  EXPECT_NEAR(window.total(), i2.total(), 1e-6);
}

TEST(CountMin, AddFusedEqualsClassicAdds) {
  // An external pair buffer written with classic updates at the
  // sketches' own probe placement — lane 0 from one stream, lane 1 from
  // another — merged cell-wise into two sketches in one pass, must equal
  // the two sketches add() builds on those streams.
  const auto params = small_params(1e-2, 0.01, 9);
  CountMinSketch classic_first(params);
  CountMinSketch classic_second(params);
  const std::size_t width = classic_first.width();
  const std::size_t depth = classic_first.depth();
  std::vector<double> pairs(2 * width * depth, 0.0);
  Xoshiro256 rng(31);
  double first_total = 0.0;
  double second_total = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const KeyId key = rng.next_below(700);
    const double first = 0.25 * static_cast<double>(1 + rng.next_below(8));
    const double second = 8.0 * static_cast<double>(rng.next_below(5));
    classic_first.add(key, first);
    classic_second.add(key, second);
    const auto probe = CountMinSketch::make_probe(key, classic_first.seed());
    for (std::size_t row = 0; row < depth; ++row) {
      const std::size_t cell =
          row * width + CountMinSketch::probe_index(probe, row, width - 1);
      pairs[2 * cell] += first;
      pairs[2 * cell + 1] += second;
    }
    first_total += first;
    second_total += second;
  }
  CountMinSketch merged_first(params);
  CountMinSketch merged_second(params);
  CountMinSketch::add_fused(merged_first, merged_second, pairs.data(), width,
                            depth, first_total, second_total);
  for (KeyId key = 0; key < 700; ++key) {
    ASSERT_EQ(merged_first.estimate(key), classic_first.estimate(key)) << key;
    ASSERT_EQ(merged_second.estimate(key), classic_second.estimate(key))
        << key;
  }
  ASSERT_EQ(merged_first.total(), classic_first.total());
  ASSERT_EQ(merged_second.total(), classic_second.total());
}

TEST(CountMin, ClearZeroesEverything) {
  CountMinSketch cms(small_params());
  cms.add(1, 10.0);
  cms.add_conservative(2, 5.0);
  EXPECT_GT(cms.total(), 0.0);
  cms.clear();
  EXPECT_EQ(cms.total(), 0.0);
  EXPECT_EQ(cms.estimate(1), 0.0);
  EXPECT_EQ(cms.estimate(2), 0.0);
}

TEST(CountMin, TotalTracksMassExactly) {
  CountMinSketch cms(small_params());
  cms.add(1, 10.0);
  cms.add_conservative(1, 2.5);
  cms.add(7, 0.5);
  EXPECT_DOUBLE_EQ(cms.total(), 13.0);
}

TEST(CountMin, SeededDeterminism) {
  CountMinSketch a(small_params(1e-2, 0.01, 77));
  CountMinSketch b(small_params(1e-2, 0.01, 77));
  Xoshiro256 rng_a(5), rng_b(5);
  for (int i = 0; i < 3000; ++i) {
    a.add_conservative(rng_a.next_below(800), 1.0);
    b.add_conservative(rng_b.next_below(800), 1.0);
  }
  for (KeyId key = 0; key < 800; ++key) {
    ASSERT_EQ(a.estimate(key), b.estimate(key)) << key;
  }
}

TEST(CountMinDeath, NegativeAmountRejected) {
  CountMinSketch cms(small_params());
  EXPECT_DEATH(cms.add(0, -1.0), "precondition");
  EXPECT_DEATH(cms.add_conservative(0, -1.0), "precondition");
}

TEST(CountMinDeath, MismatchedSketchMergeRejected) {
  CountMinSketch a(small_params(1e-2, 0.01, 1));
  CountMinSketch b(small_params(1e-2, 0.01, 2));  // different hash family
  EXPECT_DEATH(a.add_sketch(b), "precondition");
}

}  // namespace
}  // namespace skewless
