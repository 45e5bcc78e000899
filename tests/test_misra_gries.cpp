#include "sketch/misra_gries.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/zipf.h"

namespace skewless {
namespace {

// The union the sketch window takes of worker summaries, run on
// MisraGries sources: counts and errors add per key and nothing is
// dropped.
TEST(SpaceSavingMerge, DisjointSetsWithinCapacityAreExactUnion) {
  MisraGries a(16), b(16);
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
  // Overfill both trackers past their 2 × capacity bound so they prune
  // and entries carry non-zero errors, then merge.
  MisraGries a(4), b(4);
  Xoshiro256 rng(5);
  for (int i = 0; i < 5000; ++i) {
    a.add(rng.next_below(40));
    b.add(rng.next_below(40));
  }
  ASSERT_GT(a.offset(), 0.0);
  ASSERT_GT(b.offset(), 0.0);
  std::unordered_map<KeyId, MisraGries::Entry> before_a, before_b;
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
  // The union deliberately exceeds the 2 × capacity table bound instead
  // of pruning: dropping an intermediate entry could lose a key whose
  // mass is still arriving from later workers in a chained merge.
  MisraGries a(2), b(2);
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
  // Neither source pruned, so every entry keeps its exact pre-merge
  // count and the counts sum to the total.
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
  std::vector<MisraGries> workers(4, MisraGries(m));
  std::unordered_map<KeyId, double> truth;
  for (int i = 0; i < n; ++i) {
    const KeyId key = zipf.sample(rng);
    workers[key % 4].add(key);
    truth[key] += 1.0;
  }
  MisraGries merged(m);
  std::size_t source_sizes = 0;
  for (const auto& w : workers) {
    EXPECT_LE(w.size(), 2 * m);
    source_sizes += w.size();
    merged.merge(w);
  }
  EXPECT_LE(merged.size(), source_sizes);  // bounded by the sum of source sizes
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
  MisraGries a(2), b(2);
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
  MisraGries a(8), empty(8);
  a.add(1, 3.0);
  a.add(2, 7.0);
  a.merge(empty);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_DOUBLE_EQ(a.total_weight(), 10.0);
  MisraGries fresh(8);
  fresh.merge(a);
  EXPECT_EQ(fresh.size(), 2u);
  EXPECT_DOUBLE_EQ(fresh.find(2)->count, 7.0);
  EXPECT_DOUBLE_EQ(fresh.total_weight(), 10.0);
}

// The flat table against std::unordered_map: seeded insert / find /
// erase / erase_if / clear sequences. Phase 1 stays at the table's first
// 16 slots (≤ 12 entries, load ≤ 3/4) over keys whose homes cluster on
// the last two slots and the first two, so probe runs wrap past the end
// and backward-shift erase must pull entries back across the wrap. Phase
// 2 lets the table grow and shrink over a wide key range.
TEST(FlatEntryTable, MatchesUnorderedMapReference) {
  using Entry = MisraGries::Entry;
  constexpr std::size_t kSlots = 16;
  std::vector<KeyId> wrap_pool;
  for (const std::size_t want : {15u, 15u, 15u, 15u, 15u, 14u, 14u, 14u, 14u,
                                 0u, 0u, 0u, 1u, 1u, 1u, 13u}) {
    KeyId key = wrap_pool.empty() ? 0 : wrap_pool.back() + 1;
    while ((mix64(key) & (kSlots - 1)) != want ||
           std::find(wrap_pool.begin(), wrap_pool.end(), key) !=
               wrap_pool.end()) {
      ++key;
    }
    wrap_pool.push_back(key);
  }

  for (const bool wrap_phase : {true, false}) {
    FlatEntryTable<Entry> sut;
    std::unordered_map<KeyId, Entry> ref;
    Xoshiro256 rng(wrap_phase ? 0xf1a7 : 0xf1a8);
    const auto draw_key = [&]() -> KeyId {
      return wrap_phase ? wrap_pool[rng.next_below(wrap_pool.size())]
                        : rng.next_below(400);
    };
    const auto check = [&](int op) {
      ASSERT_EQ(sut.size(), ref.size()) << "op " << op;
      if (wrap_phase && sut.size() > 0) {
        ASSERT_EQ(sut.slot_count(), kSlots) << "op " << op;
      }
      std::vector<KeyId> got;
      for (const Entry& e : sut.entries()) got.push_back(e.key);
      std::sort(got.begin(), got.end());
      ASSERT_EQ(std::adjacent_find(got.begin(), got.end()), got.end())
          << "op " << op;
      for (const auto& [key, want] : ref) {
        const Entry* e = sut.find(key);
        ASSERT_NE(e, nullptr) << "op " << op << " key " << key;
        ASSERT_EQ(e->key, key);
        ASSERT_EQ(e->count, want.count) << "op " << op << " key " << key;
        ASSERT_EQ(e->error, want.error) << "op " << op << " key " << key;
      }
      for (const KeyId key : wrap_pool) {
        ASSERT_EQ(sut.find(key) != nullptr, ref.count(key) == 1)
            << "op " << op << " key " << key;
      }
    };
    for (int op = 0; op < 20'000; ++op) {
      const std::uint64_t kind = rng.next_below(100);
      const KeyId key = draw_key();
      const bool full = wrap_phase && ref.size() >= 12 && !ref.count(key);
      if (kind < 45 && !full) {
        const Entry entry{key, static_cast<double>(rng.next_below(9)),
                          static_cast<double>(op), kNilInstance};
        const auto [e, inserted] = sut.insert(entry);
        const auto [it, ref_inserted] = ref.emplace(key, entry);
        ASSERT_EQ(inserted, ref_inserted) << "op " << op;
        ASSERT_EQ(e->key, key);
        // Write through the returned entry, as the tracker unions do.
        e->count += 1.0;
        it->second.count += 1.0;
      } else if (kind < 55) {
        const Entry* e = sut.find(key);
        ASSERT_EQ(e != nullptr, ref.count(key) == 1) << "op " << op;
      } else if (kind < 93 || full) {
        ASSERT_EQ(sut.erase(key), ref.erase(key) == 1) << "op " << op;
      } else if (kind < 99) {
        const double cut = static_cast<double>(rng.next_below(10));
        const auto pred = [cut](const Entry& e) { return e.count <= cut; };
        sut.erase_if(pred);
        std::erase_if(ref, [&](const auto& kv) { return pred(kv.second); });
      } else {
        sut.clear();
        ref.clear();
        ASSERT_EQ(sut.memory_bytes(), 0u);
      }
      check(op);
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

TEST(MisraGries, SummaryMergesIntoUnion) {
  // The slab -> window hand-off: worker summaries union into the
  // window's tracker via the entries overload, weights and slack intact.
  MisraGries w0(8), w1(8);
  w0.add(1, 10.0);
  w0.add(2, 5.0);
  w1.add(1, 7.0);
  w1.add(3, 2.0);
  MisraGries merged(8);
  merged.merge(w0.entries_by_count(), w0.total_weight());
  merged.merge(w1.entries_by_count(), w1.total_weight());
  EXPECT_DOUBLE_EQ(merged.total_weight(), 24.0);
  ASSERT_NE(merged.find(1), nullptr);
  EXPECT_DOUBLE_EQ(merged.find(1)->count, 17.0);
  EXPECT_DOUBLE_EQ(merged.find(2)->count, 5.0);
  EXPECT_DOUBLE_EQ(merged.find(3)->count, 2.0);
}

// Each entry carries the latest non-nil destination it was given — the
// instance whose cold aggregates the sketch window debits when the key
// is promoted. A pruned key inserted again takes its new insert's tag,
// and unions follow the same rule as add().
TEST(MisraGries, AddTagsLatestDestination) {
  MisraGries mg(2);
  mg.add(1, 5.0, 2);
  EXPECT_EQ(mg.find(1)->dest, 2);
  mg.add(1, 1.0);  // nil keeps the tag
  EXPECT_EQ(mg.find(1)->dest, 2);
  mg.add(1, 1.0, 0);  // a new destination replaces it
  EXPECT_EQ(mg.find(1)->dest, 0);
  mg.add(2, 1.0);
  EXPECT_EQ(mg.find(2)->dest, kNilInstance);

  // The fifth key passes the 2 × 2 bound: counts {7, 1, 1, 1, 1} prune
  // at the third largest (1), leaving key 1 alone at offset 1.
  mg.add(3, 1.0, 1);
  mg.add(4, 1.0, 1);
  mg.add(5, 1.0, 1);
  ASSERT_EQ(mg.size(), 1u);
  EXPECT_DOUBLE_EQ(mg.offset(), 1.0);
  EXPECT_EQ(mg.find(1)->dest, 0);
  mg.add(3, 1.0, 2);
  ASSERT_NE(mg.find(3), nullptr);
  EXPECT_EQ(mg.find(3)->dest, 2);
  EXPECT_DOUBLE_EQ(mg.find(3)->count, 2.0);
  EXPECT_DOUBLE_EQ(mg.find(3)->error, 1.0);

  MisraGries::Entry e{3, 1.0, 0.0, kNilInstance};
  mg.merge_entry(e, 1.0);
  EXPECT_EQ(mg.find(3)->dest, 2);
  e.dest = 1;
  mg.merge_entry(e, 1.0);
  EXPECT_EQ(mg.find(3)->dest, 1);
  EXPECT_DOUBLE_EQ(mg.find(3)->count, 4.0);
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

}  // namespace
}  // namespace skewless
