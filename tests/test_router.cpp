#include "baselines/router.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/consistent_hash.h"

namespace skewless {
namespace {

TEST(PkgRouter, CandidatesAreDeterministicAndDistinctUsually) {
  const PkgRouter router(10);
  int same = 0;
  for (KeyId k = 0; k < 1000; ++k) {
    EXPECT_EQ(router.candidate(k, 0), router.candidate(k, 0));
    if (router.candidate(k, 0) == router.candidate(k, 1)) ++same;
  }
  // Collision probability is 1/10 per key.
  EXPECT_LT(same, 200);
}

TEST(PkgRouter, RoutesOnlyToCandidates) {
  PkgRouter router(8);
  for (KeyId k = 0; k < 500; ++k) {
    const InstanceId d = router.route(k);
    EXPECT_TRUE(d == router.candidate(k, 0) || d == router.candidate(k, 1));
  }
}

TEST(PkgRouter, BalancesSingleHotKey) {
  // The whole point of key splitting: one hot key spreads over both its
  // candidates instead of melting one instance.
  PkgRouter router(4);
  for (int i = 0; i < 10'000; ++i) (void)router.route(/*key=*/7);
  const auto c1 = static_cast<std::size_t>(router.candidate(7, 0));
  const auto c2 = static_cast<std::size_t>(router.candidate(7, 1));
  ASSERT_NE(c1, c2);
  EXPECT_NEAR(router.loads()[c1], router.loads()[c2], 1.0);
  EXPECT_NEAR(router.loads()[c1] + router.loads()[c2], 10'000.0, 1.0);
}

TEST(PkgRouter, TracksCostEstimates) {
  PkgRouter router(4);
  (void)router.route(1, 5.0);
  double total = 0.0;
  for (const double l : router.loads()) total += l;
  EXPECT_EQ(total, 5.0);
}

TEST(PkgRouter, IntervalDecayHalvesLoads) {
  PkgRouter router(2);
  (void)router.route(0, 8.0);
  router.on_interval();
  double total = 0.0;
  for (const double l : router.loads()) total += l;
  EXPECT_EQ(total, 4.0);
}

TEST(PkgRouter, BetterBalancedThanSingleHashOnSkew) {
  // Zipf-ish synthetic: key k sends 1000/(k+1) tuples. Compare max load.
  const InstanceId nd = 5;
  PkgRouter pkg(nd);
  const ConsistentHashRing hash(nd, 128, 3);
  std::vector<double> pkg_load(static_cast<std::size_t>(nd), 0.0);
  std::vector<double> hash_load(static_cast<std::size_t>(nd), 0.0);
  for (KeyId k = 0; k < 200; ++k) {
    const int tuples = 1000 / (static_cast<int>(k) + 1);
    for (int i = 0; i < tuples; ++i) {
      ++pkg_load[static_cast<std::size_t>(pkg.route(k))];
      ++hash_load[static_cast<std::size_t>(hash.owner(k))];
    }
  }
  const double pkg_max = *std::max_element(pkg_load.begin(), pkg_load.end());
  const double hash_max =
      *std::max_element(hash_load.begin(), hash_load.end());
  EXPECT_LT(pkg_max, hash_max);
}

TEST(PkgRouter, AddInstanceExpandsCandidateSpace) {
  PkgRouter router(2);
  router.add_instance();
  EXPECT_EQ(router.num_instances(), 3);
  bool uses_new = false;
  for (KeyId k = 0; k < 200 && !uses_new; ++k) {
    uses_new = router.candidate(k, 0) == 2 || router.candidate(k, 1) == 2;
  }
  EXPECT_TRUE(uses_new);
}

}  // namespace
}  // namespace skewless
