#include "sketch/space_saving.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/zipf.h"

namespace skewless {
namespace {

TEST(SpaceSaving, ExactWhenDistinctKeysFitCapacity) {
  SpaceSaving ss(16);
  Xoshiro256 rng(3);
  std::unordered_map<KeyId, double> truth;
  for (int i = 0; i < 2000; ++i) {
    const KeyId key = rng.next_below(10);
    const double w = 1.0 + static_cast<double>(rng.next_below(5));
    ss.add(key, w);
    truth[key] += w;
  }
  EXPECT_EQ(ss.size(), truth.size());
  for (const auto& [key, count] : truth) {
    const auto* e = ss.find(key);
    ASSERT_NE(e, nullptr);
    EXPECT_DOUBLE_EQ(e->count, count);
    EXPECT_DOUBLE_EQ(e->error, 0.0);
  }
}

TEST(SpaceSaving, CapacityIsNeverExceeded) {
  SpaceSaving ss(8);
  Xoshiro256 rng(9);
  for (int i = 0; i < 10'000; ++i) ss.add(rng.next_below(1000));
  EXPECT_EQ(ss.size(), 8u);
  EXPECT_DOUBLE_EQ(ss.total_weight(), 10'000.0);
}

TEST(SpaceSaving, CountOverestimatesAndErrorBoundsSlack) {
  SpaceSaving ss(32);
  const ZipfDistribution zipf(2000, 1.1, true, 17);
  Xoshiro256 rng(4);
  std::unordered_map<KeyId, double> truth;
  for (int i = 0; i < 50'000; ++i) {
    const KeyId key = zipf.sample(rng);
    ss.add(key);
    truth[key] += 1.0;
  }
  for (const auto& e : ss.entries_by_count()) {
    const double true_count = truth.count(e.key) ? truth.at(e.key) : 0.0;
    EXPECT_GE(e.count, true_count - 1e-9);          // overestimate
    EXPECT_LE(e.count - e.error, true_count + 1e-9);  // slack bounded
    // Classic bound: every tracked count's error ≤ W / m.
    EXPECT_LE(e.error, ss.total_weight() / static_cast<double>(ss.capacity()));
  }
}

TEST(SpaceSaving, GuaranteedHeavyHittersOnZipfStream) {
  // Space-Saving guarantee: every key with true weight > W/m is tracked.
  const std::size_t m = 64;
  SpaceSaving ss(m);
  const ZipfDistribution zipf(10'000, 1.2, true, 23);
  Xoshiro256 rng(8);
  std::unordered_map<KeyId, double> truth;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const KeyId key = zipf.sample(rng);
    ss.add(key);
    truth[key] += 1.0;
  }
  const double bound = static_cast<double>(n) / static_cast<double>(m);
  for (const auto& [key, count] : truth) {
    if (count > bound) {
      EXPECT_NE(ss.find(key), nullptr)
          << "heavy key " << key << " (count " << count << ") not tracked";
    }
  }
  // Every guaranteed() entry truly carries at least the threshold.
  const double threshold = bound / 2.0;
  for (const auto& e : ss.guaranteed(threshold)) {
    ASSERT_TRUE(truth.count(e.key));
    EXPECT_GE(truth.at(e.key), threshold - 1e-9);
  }
}

TEST(SpaceSaving, EntriesSortedDeterministically) {
  SpaceSaving ss(8);
  for (KeyId k = 0; k < 8; ++k) ss.add(k, 1.0);  // all ties
  const auto entries = ss.entries_by_count();
  ASSERT_EQ(entries.size(), 8u);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].key, static_cast<KeyId>(i));  // key-ascending ties
  }
}

TEST(SpaceSaving, DeterministicAcrossInstances) {
  SpaceSaving a(16), b(16);
  const ZipfDistribution zipf(500, 0.9, true, 31);
  Xoshiro256 rng_a(12), rng_b(12);
  for (int i = 0; i < 20'000; ++i) {
    a.add(zipf.sample(rng_a));
    b.add(zipf.sample(rng_b));
  }
  const auto ea = a.entries_by_count();
  const auto eb = b.entries_by_count();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].key, eb[i].key);
    EXPECT_EQ(ea[i].count, eb[i].count);
    EXPECT_EQ(ea[i].error, eb[i].error);
  }
}

TEST(SpaceSavingMerge, DisjointSetsWithinCapacityAreExactUnion) {
  SpaceSaving a(16), b(16);
  for (KeyId k = 0; k < 6; ++k) a.add(k, static_cast<double>(k + 1));
  for (KeyId k = 100; k < 106; ++k) b.add(k, static_cast<double>(k - 90));
  a.merge(b);
  EXPECT_EQ(a.size(), 12u);
  EXPECT_DOUBLE_EQ(a.total_weight(), 21.0 + 75.0);
  for (KeyId k = 0; k < 6; ++k) {
    const auto* e = a.find(k);
    ASSERT_NE(e, nullptr);
    EXPECT_DOUBLE_EQ(e->count, static_cast<double>(k + 1));
    EXPECT_DOUBLE_EQ(e->error, 0.0);
  }
  for (KeyId k = 100; k < 106; ++k) {
    const auto* e = a.find(k);
    ASSERT_NE(e, nullptr);
    EXPECT_DOUBLE_EQ(e->count, static_cast<double>(k - 90));
    EXPECT_DOUBLE_EQ(e->error, 0.0);
  }
}

TEST(SpaceSavingMerge, SharedKeysSumCountsAndErrors) {
  // Overfill both trackers so entries carry non-zero errors, then merge.
  SpaceSaving a(4), b(4);
  Xoshiro256 rng(5);
  for (int i = 0; i < 5000; ++i) {
    a.add(rng.next_below(40));
    b.add(rng.next_below(40));
  }
  std::unordered_map<KeyId, SpaceSaving::Entry> before_a, before_b;
  for (const auto& e : a.entries_by_count()) before_a.emplace(e.key, e);
  for (const auto& e : b.entries_by_count()) before_b.emplace(e.key, e);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.total_weight(), 10'000.0);
  for (const auto& e : a.entries_by_count()) {
    double want_count = 0.0, want_error = 0.0;
    if (const auto it = before_a.find(e.key); it != before_a.end()) {
      want_count += it->second.count;
      want_error += it->second.error;
    }
    if (const auto it = before_b.find(e.key); it != before_b.end()) {
      want_count += it->second.count;
      want_error += it->second.error;
    }
    EXPECT_DOUBLE_EQ(e.count, want_count);
    EXPECT_DOUBLE_EQ(e.error, want_error);
  }
}

TEST(SpaceSavingMerge, CapacityOverflowDropsNothing) {
  // The union deliberately exceeds capacity instead of truncating:
  // dropping an intermediate entry could lose a key whose mass is still
  // arriving from later workers in a chained merge.
  SpaceSaving a(4), b(4);
  a.add(1, 50.0);
  a.add(2, 40.0);
  a.add(3, 5.0);
  a.add(4, 4.0);
  b.add(5, 30.0);
  b.add(6, 20.0);
  b.add(7, 3.0);
  b.add(8, 2.0);
  a.merge(b);
  EXPECT_EQ(a.size(), 8u);  // sum of source sizes, nothing dropped
  EXPECT_DOUBLE_EQ(a.total_weight(), 154.0);
  for (const KeyId k : {1, 2, 3, 4, 5, 6, 7, 8}) {
    ASSERT_NE(a.find(k), nullptr);
  }
  // Every entry keeps its exact pre-merge count (sum invariant holds).
  EXPECT_DOUBLE_EQ(a.find(1)->count, 50.0);
  EXPECT_DOUBLE_EQ(a.find(8)->count, 2.0);
  const auto sorted = a.entries_by_count();
  double sum = 0.0;
  for (const auto& e : sorted) sum += e.count;
  EXPECT_DOUBLE_EQ(sum, a.total_weight());
}

TEST(SpaceSavingMerge, OverflowUnionKeepsGuaranteedHeavyHitters) {
  // Shared-nothing aggregation: one Zipf stream partitioned across 4
  // "workers" by key hash, per-worker trackers unioned at the boundary.
  // Every key with true weight > W/m must survive the union, exactly as
  // it would in a single tracker over the unpartitioned stream.
  const std::size_t m = 48;
  const int n = 80'000;
  const ZipfDistribution zipf(20'000, 1.2, true, 41);
  Xoshiro256 rng(6);
  std::vector<SpaceSaving> workers(4, SpaceSaving(m));
  std::unordered_map<KeyId, double> truth;
  for (int i = 0; i < n; ++i) {
    const KeyId key = zipf.sample(rng);
    workers[key % 4].add(key);
    truth[key] += 1.0;
  }
  SpaceSaving merged(m);
  for (const auto& w : workers) merged.merge(w);
  EXPECT_LE(merged.size(), 4 * m);  // bounded by the sum of source sizes
  EXPECT_DOUBLE_EQ(merged.total_weight(), static_cast<double>(n));
  const double bound = static_cast<double>(n) / static_cast<double>(m);
  for (const auto& [key, count] : truth) {
    if (count > bound) {
      const auto* e = merged.find(key);
      ASSERT_NE(e, nullptr)
          << "heavy key " << key << " (count " << count << ") lost in union";
      EXPECT_GE(e->count, count - 1e-9);                // still an overestimate
      EXPECT_LE(e->count - e->error, count + 1e-9);     // slack still bounded
    }
  }
}

TEST(SpaceSavingMerge, TiedEntriesStayDeterministicallyOrdered) {
  SpaceSaving a(2), b(2);
  a.add(10, 5.0);
  a.add(30, 5.0);
  b.add(20, 5.0);
  b.add(40, 5.0);
  a.merge(b);  // four entries, all count 5
  const auto entries = a.entries_by_count();
  ASSERT_EQ(entries.size(), 4u);
  // Consumers that re-bound the union (e.g. promotion) see ties broken
  // by key ascending, so the outcome never depends on hash order.
  EXPECT_EQ(entries[0].key, 10u);
  EXPECT_EQ(entries[1].key, 20u);
  EXPECT_EQ(entries[2].key, 30u);
  EXPECT_EQ(entries[3].key, 40u);
}

TEST(SpaceSavingMerge, MergeEmptyAndIntoEmptyAreNoOpsOnContent) {
  SpaceSaving a(8), empty(8);
  a.add(1, 3.0);
  a.add(2, 7.0);
  a.merge(empty);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_DOUBLE_EQ(a.total_weight(), 10.0);
  SpaceSaving fresh(8);
  fresh.merge(a);
  EXPECT_EQ(fresh.size(), 2u);
  EXPECT_DOUBLE_EQ(fresh.find(2)->count, 7.0);
  EXPECT_DOUBLE_EQ(fresh.total_weight(), 10.0);
}

TEST(SpaceSavingMerge, EvictionStillWorksOnOverCapacityUnion) {
  // A merge leaves the lazy heap stale; the add that follows must rebuild
  // it and evict the true minimum of the merged entries.
  SpaceSaving a(2), b(2);
  a.add(1, 50.0);
  a.add(2, 10.0);
  b.add(3, 40.0);
  b.add(4, 30.0);
  a.merge(b);  // over capacity: {1:50, 3:40, 4:30, 2:10}
  ASSERT_EQ(a.size(), 4u);
  a.add(9, 1.0);  // at/over capacity -> evicts the minimum (key 2, 10)
  const auto* e = a.find(9);
  ASSERT_NE(e, nullptr);
  EXPECT_DOUBLE_EQ(e->count, 11.0);  // inherited 10 + weight 1
  EXPECT_DOUBLE_EQ(e->error, 10.0);
  EXPECT_EQ(a.find(2), nullptr);
  EXPECT_NE(a.find(1), nullptr);
  EXPECT_NE(a.find(3), nullptr);
  EXPECT_NE(a.find(4), nullptr);
}

/// Brute-force Space-Saving with the documented semantics: the unions
/// add per key, and an insert into a full tracker evicts the minimum
/// (count, key) found by a linear scan — no heap at all.
class ReferenceSpaceSaving {
 public:
  using Entry = SpaceSaving::Entry;

  explicit ReferenceSpaceSaving(std::size_t capacity) : capacity_(capacity) {}

  void add(KeyId key, double weight, InstanceId dest) {
    total_ += weight;
    if (const auto it = map_.find(key); it != map_.end()) {
      it->second.count += weight;
      if (dest != kNilInstance) it->second.dest = dest;
      return;
    }
    if (map_.size() < capacity_) {
      map_.emplace(key, Entry{key, weight, 0.0, dest});
      return;
    }
    auto victim = map_.begin();
    for (auto it = map_.begin(); it != map_.end(); ++it) {
      const Entry& e = it->second;
      const Entry& v = victim->second;
      if (e.count < v.count || (e.count == v.count && e.key < v.key)) {
        victim = it;
      }
    }
    const double floor = victim->second.count;
    map_.erase(victim);
    map_.emplace(key, Entry{key, floor + weight, floor, dest});
  }

  void merge(const std::vector<Entry>& entries, double total_weight) {
    total_ += total_weight;
    for (const Entry& e : entries) {
      if (const auto it = map_.find(e.key); it != map_.end()) {
        it->second.count += e.count;
        it->second.error += e.error;
        if (e.dest != kNilInstance) it->second.dest = e.dest;
      } else {
        map_.emplace(e.key, e);
      }
    }
  }

  void clear() {
    map_.clear();
    total_ = 0.0;
  }

  [[nodiscard]] std::vector<Entry> entries_by_count() const {
    std::vector<Entry> out;
    for (const auto& [key, e] : map_) out.push_back(e);
    std::sort(out.begin(), out.end(), SpaceSaving::count_order);
    return out;
  }
  [[nodiscard]] double total_weight() const { return total_; }

 private:
  std::size_t capacity_;
  double total_ = 0.0;
  std::unordered_map<KeyId, Entry> map_;
};

void expect_same_entries(const std::vector<SpaceSaving::Entry>& got,
                         const std::vector<SpaceSaving::Entry>& want,
                         int op) {
  ASSERT_EQ(got.size(), want.size()) << "after op " << op;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].key, want[i].key) << "op " << op << " rank " << i;
    ASSERT_EQ(got[i].count, want[i].count) << "op " << op << " rank " << i;
    ASSERT_EQ(got[i].error, want[i].error) << "op " << op << " rank " << i;
    ASSERT_EQ(got[i].dest, want[i].dest) << "op " << op << " rank " << i;
  }
}

// The lazy heap (unions only mark it stale; add rebuilds it before use)
// against the brute-force reference: ~10k seeded operations interleaving
// add, both merge overloads, merge_entry and clear over a small key range,
// so evictions, over-capacity unions and re-merged keys collide
// constantly. Integer weights keep every sum exact, so equality is exact.
TEST(SpaceSavingMerge, LazyHeapMatchesBruteForceReference) {
  for (const std::size_t capacity : {8u, 13u, 32u, 64u}) {
    SpaceSaving sut(capacity);
    ReferenceSpaceSaving ref(capacity);
    Xoshiro256 rng(0x5eed + capacity);
    const std::uint64_t key_range = 3 * capacity;
    const auto weight = [&] { return static_cast<double>(rng.next_below(5)); };
    const auto dest = [&] {
      return static_cast<InstanceId>(rng.next_below(4)) - 1;  // -1 = nil
    };
    for (int op = 0; op < 2'500; ++op) {
      const std::uint64_t kind = rng.next_below(100);
      if (kind < 70) {
        const KeyId key = rng.next_below(key_range);
        const double w = weight();
        const InstanceId d = dest();
        sut.add(key, w, d);
        ref.add(key, w, d);
      } else if (kind < 80) {
        // A tracker built by its own adds, then unioned in whole.
        SpaceSaving other(capacity);
        ReferenceSpaceSaving other_ref(capacity);
        const int adds = 1 + static_cast<int>(rng.next_below(3 * capacity));
        for (int i = 0; i < adds; ++i) {
          const KeyId key = rng.next_below(key_range);
          const double w = weight();
          const InstanceId d = dest();
          other.add(key, w, d);
          other_ref.add(key, w, d);
        }
        sut.merge(other);
        ref.merge(other_ref.entries_by_count(), other_ref.total_weight());
      } else if (kind < 88) {
        // A raw summary: distinct keys, count >= error >= 0.
        std::vector<SpaceSaving::Entry> entries;
        double total = 0.0;
        for (KeyId key = 0; key < key_range; ++key) {
          if (rng.next_below(4) != 0) continue;
          SpaceSaving::Entry e;
          e.key = key;
          e.error = static_cast<double>(rng.next_below(3));
          e.count = e.error + 1.0 + static_cast<double>(rng.next_below(6));
          e.dest = dest();
          entries.push_back(e);
          total += e.count;
        }
        sut.merge(entries, total);
        ref.merge(entries, total);
      } else if (kind < 98) {
        SpaceSaving::Entry e;
        e.key = rng.next_below(key_range);
        e.count = 1.0 + static_cast<double>(rng.next_below(8));
        e.dest = dest();
        const double w = static_cast<double>(rng.next_below(2)) * e.count;
        sut.merge_entry(e, w);
        ref.merge({e}, w);
      } else {
        sut.clear();
        ref.clear();
      }
      expect_same_entries(sut.entries_by_count(), ref.entries_by_count(), op);
      ASSERT_EQ(sut.total_weight(), ref.total_weight()) << "after op " << op;
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(MisraGries, ExactWhenDistinctKeysFitCapacity) {
  MisraGries mg(16);
  Xoshiro256 rng(3);
  std::unordered_map<KeyId, double> truth;
  for (int i = 0; i < 2000; ++i) {
    const KeyId key = rng.next_below(10);
    const double w = 1.0 + static_cast<double>(rng.next_below(5));
    mg.add(key, w);
    truth[key] += w;
  }
  EXPECT_EQ(mg.size(), truth.size());
  EXPECT_DOUBLE_EQ(mg.offset(), 0.0);  // never pruned
  for (const auto& [key, count] : truth) {
    const auto* e = mg.find(key);
    ASSERT_NE(e, nullptr);
    EXPECT_DOUBLE_EQ(e->count, count);
    EXPECT_DOUBLE_EQ(e->error, 0.0);
  }
}

TEST(MisraGries, InvariantsOnZipfStreamWithPruning) {
  const std::size_t m = 32;
  MisraGries mg(m);
  const ZipfDistribution zipf(2000, 1.1, true, 17);
  Xoshiro256 rng(4);
  std::unordered_map<KeyId, double> truth;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    const KeyId key = zipf.sample(rng);
    mg.add(key);
    truth[key] += 1.0;
  }
  EXPECT_LE(mg.size(), 2 * m);  // prune keeps the map bounded
  EXPECT_GT(mg.offset(), 0.0);  // 2000 distinct keys forced pruning
  EXPECT_DOUBLE_EQ(mg.total_weight(), static_cast<double>(n));
  for (const auto& e : mg.entries_by_count()) {
    const double true_count = truth.count(e.key) ? truth.at(e.key) : 0.0;
    EXPECT_GE(e.count, true_count - 1e-9);            // overestimate
    EXPECT_LE(e.count - e.error, true_count + 1e-9);  // slack bounded
  }
  // Every untracked key's true weight is bounded by the offset.
  for (const auto& [key, count] : truth) {
    if (mg.find(key) == nullptr) {
      EXPECT_LE(count, mg.offset() + 1e-9)
          << "untracked key " << key << " heavier than the offset";
    }
  }
}

TEST(MisraGries, HeavyHittersSurvivePruning) {
  // The nomination property the worker slabs rely on: keys heavy enough
  // to deserve promotion must still be tracked after arbitrary pruning.
  const std::size_t m = 64;
  MisraGries mg(m);
  const ZipfDistribution zipf(10'000, 1.2, true, 23);
  Xoshiro256 rng(8);
  std::unordered_map<KeyId, double> truth;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const KeyId key = zipf.sample(rng);
    mg.add(key);
    truth[key] += 1.0;
  }
  // offset stays O(W/m): every prune cutoff ≤ (sum of counts)/(m+1) and
  // counts inflate by at most one offset each — assert the classic
  // small-constant bound.
  const double bound = 4.0 * static_cast<double>(n) / static_cast<double>(m);
  EXPECT_LE(mg.offset(), bound);
  for (const auto& [key, count] : truth) {
    if (count > bound) {
      EXPECT_NE(mg.find(key), nullptr)
          << "heavy key " << key << " (count " << count << ") lost to prune";
    }
  }
}

TEST(MisraGries, DeterministicAcrossInstances) {
  MisraGries a(16), b(16);
  const ZipfDistribution zipf(500, 0.9, true, 31);
  Xoshiro256 rng_a(12), rng_b(12);
  for (int i = 0; i < 20'000; ++i) {
    a.add(zipf.sample(rng_a));
    b.add(zipf.sample(rng_b));
  }
  const auto ea = a.entries_by_count();
  const auto eb = b.entries_by_count();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].key, eb[i].key);
    EXPECT_EQ(ea[i].count, eb[i].count);
    EXPECT_EQ(ea[i].error, eb[i].error);
  }
  EXPECT_DOUBLE_EQ(a.offset(), b.offset());
}

TEST(MisraGries, SummaryMergesIntoSpaceSavingUnion) {
  // The slab -> window hand-off: MisraGries worker summaries union into
  // one SpaceSaving via the entries overload, weights and slack intact.
  MisraGries w0(8), w1(8);
  w0.add(1, 10.0);
  w0.add(2, 5.0);
  w1.add(1, 7.0);
  w1.add(3, 2.0);
  SpaceSaving merged(8);
  merged.merge(w0.entries_by_count(), w0.total_weight());
  merged.merge(w1.entries_by_count(), w1.total_weight());
  EXPECT_DOUBLE_EQ(merged.total_weight(), 24.0);
  ASSERT_NE(merged.find(1), nullptr);
  EXPECT_DOUBLE_EQ(merged.find(1)->count, 17.0);
  EXPECT_DOUBLE_EQ(merged.find(2)->count, 5.0);
  EXPECT_DOUBLE_EQ(merged.find(3)->count, 2.0);
}

TEST(MisraGries, ClearResets) {
  MisraGries mg(4);
  for (KeyId k = 0; k < 20; ++k) mg.add(k, 1.0 + static_cast<double>(k));
  mg.clear();
  EXPECT_EQ(mg.size(), 0u);
  EXPECT_DOUBLE_EQ(mg.total_weight(), 0.0);
  EXPECT_DOUBLE_EQ(mg.offset(), 0.0);
  EXPECT_EQ(mg.find(1), nullptr);
}

TEST(MisraGriesDeath, ZeroCapacityRejected) {
  EXPECT_DEATH(MisraGries(0), "precondition");
}

TEST(SpaceSaving, ClearResets) {
  SpaceSaving ss(4);
  ss.add(1, 5.0);
  ss.clear();
  EXPECT_EQ(ss.size(), 0u);
  EXPECT_EQ(ss.total_weight(), 0.0);
  EXPECT_EQ(ss.find(1), nullptr);
}

TEST(SpaceSavingDeath, ZeroCapacityRejected) {
  EXPECT_DEATH(SpaceSaving(0), "precondition");
}

}  // namespace
}  // namespace skewless
