// Space-Saving (Metwally, Agrawal & El Abbadi, ICDT'05) — deterministic
// top-k tracking of a weighted stream in O(capacity) memory.
//
// Invariants with capacity m over a stream of total weight W:
//   * tracked count(k) ≥ true weight(k)            (overestimate)
//   * count(k) − error(k) ≤ true weight(k)         (error bounds the slack)
//   * every key with true weight > W / m is tracked (guaranteed heavy
//     hitters — the property the sketch stats window's promotion relies on)
//
// Implementation: hash map + lazy min-heap of (count, key) snapshots.
// Eviction picks the minimum (count, key) pair, so runs are deterministic.
// The heap is lazy twice over: add() skips stale snapshots on pop, and
// the unions (merge, merge_entry) only mark the heap stale — add(), its
// one reader, rebuilds it before first use. A tracker that is only ever
// merged into (the sketch window's decayed union) never pays for a heap,
// and a union costs O(entries merged), not O(tracker size).
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace skewless {

class SpaceSaving {
 public:
  struct Entry {
    KeyId key = 0;
    double count = 0.0;  // overestimate of the key's true weight
    double error = 0.0;  // count inherited from the evicted predecessor
    /// Last observed routing destination of the key (kNilInstance when
    /// never supplied). A key routes to exactly one instance within an
    /// interval, so "last" is also "only" — the sketch stats window uses
    /// it to debit the right per-instance cold aggregate on promotion.
    InstanceId dest = kNilInstance;
  };

  explicit SpaceSaving(std::size_t capacity);

  /// Observes `weight` more mass on `key`, optionally tagging the
  /// instance the key currently routes to.
  void add(KeyId key, double weight = 1.0, InstanceId dest = kNilInstance);

  /// Unions another tracker into this one (shared-nothing aggregation:
  /// per-worker trackers merged at an interval boundary). For keys
  /// tracked on both sides, counts and errors add; keys tracked on only
  /// one side carry over unchanged. The union NEVER drops an entry, so
  /// size() may exceed capacity() after merging (bounded by the sum of
  /// the source sizes); a later add() that inserts still evicts the
  /// minimum, and callers that want the bound back can take the top
  /// entries of entries_by_count(). Not truncating is what keeps the
  /// guarantee below exact even for CHAINED merges (N per-worker
  /// trackers folded one at a time): truncating intermediate unions
  /// could drop a key whose mass is still arriving from later workers.
  ///
  /// Invariants after any sequence of merges of trackers with capacity
  /// ≥ m, over the combined stream of weight W:
  ///   * sum of all counts == W (each source preserves it; addition
  ///     preserves it);
  ///   * count(k) − error(k) ≤ true weight(k), inherited per key by
  ///     summation (sources where k went untracked only add true mass);
  ///   * count(k) ≥ true weight(k) holds for keys tracked by EVERY
  ///     source that observed them — a key evicted in one source
  ///     contributes nothing from that stream, so the union's count can
  ///     undershoot such a key (its guaranteed bound still never lies);
  ///   * every key with true combined weight > W / m is tracked: such a
  ///     key must carry > W_s / m in at least one source stream s (the
  ///     weights sum), so that source tracked it, and the union drops
  ///     nothing.
  void merge(const SpaceSaving& other);

  /// Same union, from a raw summary: `entries` must satisfy the Entry
  /// invariants (count ≥ true ≥ count − error) over a stream of weight
  /// `total_weight`, in deterministic order. This is how a MisraGries
  /// worker summary folds into a Space-Saving union.
  void merge(const std::vector<Entry>& entries, double total_weight);

  /// Single-entry union, same invariants as the vector overload without
  /// the container — how a demoted heavy key's decayed standing returns
  /// to the sketch window's decayed tracker.
  void merge_entry(const Entry& entry, double total_weight);

  /// The tracked entry for `key`, or nullptr if untracked.
  [[nodiscard]] const Entry* find(KeyId key) const;

  /// The deterministic entry order every sorted view uses: count
  /// descending, key ascending on ties — a total order, since keys are
  /// unique within a tracker.
  [[nodiscard]] static bool count_order(const Entry& a, const Entry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.key < b.key;
  }

  /// All tracked entries, sorted by count_order — deterministic.
  [[nodiscard]] std::vector<Entry> entries_by_count() const;

  /// All tracked entries in map-iteration order — NOT sorted. For
  /// consumers that select by count_order themselves (the decayed
  /// union's top-capacity truncation) and would otherwise sort the whole
  /// tracker to read a prefix of it.
  [[nodiscard]] std::vector<Entry> entries_unsorted() const;

  /// The entries with count ≥ min_count, sorted exactly like
  /// entries_by_count(). Equivalent to filtering that list — but a
  /// consumer that would stop scanning at the first entry below
  /// min_count (the promotion pass) gets the same prefix while sorting
  /// only the filtered few instead of the whole tracker, which after
  /// non-truncating worker-slab unions can hold tens of thousands of
  /// entries.
  [[nodiscard]] std::vector<Entry> entries_by_count_at_least(
      double min_count) const;

  /// Entries whose guaranteed lower bound (count − error) is ≥ threshold.
  /// Since count − error never exceeds the true weight, every returned
  /// key provably carries ≥ threshold of true weight.
  [[nodiscard]] std::vector<Entry> guaranteed(double threshold) const;

  [[nodiscard]] double total_weight() const { return total_; }
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t memory_bytes() const;

  void clear();

 private:
  struct HeapItem {
    double count;
    KeyId key;
  };
  /// Min-heap order on (count, key).
  static bool heap_after(const HeapItem& a, const HeapItem& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.key > b.key;
  }

  void push_heap_item(KeyId key, double count);
  void compact_heap();
  /// Adds `entry` to the union without touching the heap.
  void union_entry(const Entry& entry);

  std::size_t capacity_;
  double total_ = 0.0;
  std::unordered_map<KeyId, Entry> map_;
  std::vector<HeapItem> heap_;  // lazy: stale items skipped on pop
  /// Set by the unions: the map changed without heap snapshots, so
  /// add() must rebuild the heap before it can trust it.
  bool heap_stale_ = false;
};

/// Misra-Gries / "frequent items" heavy-hitter summary (Misra & Gries
/// '82, in the offset formulation used by modern frequent-items
/// sketches): the amortized-O(1) alternative to SpaceSaving for hot
/// paths that cannot afford per-add heap maintenance — specifically the
/// WorkerSketchSlab data path, where SpaceSaving's eviction (heap pop +
/// push per new cold key) measurably dominated per-tuple cost.
///
/// Design: a plain hash map plus a scalar `offset`. An untracked key
/// inserts with count = offset + weight, error = offset. When the map
/// exceeds 2×capacity, one O(size) prune finds the (capacity+1)-th
/// largest count, drops every entry ≤ it (a value threshold — ties drop
/// together, so the surviving set is deterministic) and raises `offset`
/// to the cutoff. No heap, no per-add eviction.
///
/// Invariants over a stream of total weight W (same Entry semantics as
/// SpaceSaving, so summaries union via SpaceSaving::merge):
///   * count(k) ≥ true weight(k): by induction, a key's mass before its
///     latest insertion is ≤ offset at that moment;
///   * count(k) − error(k) ≤ true weight(k);
///   * every untracked key has true weight ≤ offset, and each prune's
///     cutoff is ≤ (sum of counts)/(capacity+1) — the offset stays
///     O(W / capacity), which is the nomination guarantee promotion
///     needs (the classic frequent-items bound).
class MisraGries {
 public:
  explicit MisraGries(std::size_t capacity);

  /// Observes `weight` more mass on `key`. Amortized O(1).
  void add(KeyId key, double weight = 1.0);

  /// The tracked entry for `key`, or nullptr if untracked.
  [[nodiscard]] const SpaceSaving::Entry* find(KeyId key) const;

  /// All tracked entries, sorted by count descending (key ascending on
  /// ties) — deterministic.
  [[nodiscard]] std::vector<SpaceSaving::Entry> entries_by_count() const;

  /// Rebuilds the tracker from a serialized summary (the net layer's
  /// boundary-summary wire format): replaces the tracked entries,
  /// total_weight() and offset() wholesale. `entries` must satisfy the
  /// Entry invariants over a stream of weight `total_weight` with
  /// untracked-mass bound `offset` — i.e. be the output of another
  /// tracker of the same capacity, which is what the slab codec ships.
  void restore(const std::vector<SpaceSaving::Entry>& entries,
               double total_weight, double offset);

  /// All tracked entries in map-iteration order — NOT sorted. For
  /// consumers whose results are order-independent (SpaceSaving::merge
  /// accumulates per key and every observable output of the union is
  /// defined by a total order), skipping the sort removes the dominant
  /// cost of summarizing a full tracker on the boundary-merge path.
  [[nodiscard]] std::vector<SpaceSaving::Entry> entries_unsorted() const;

  [[nodiscard]] double total_weight() const { return total_; }
  /// Upper bound on any untracked key's true weight.
  [[nodiscard]] double offset() const { return offset_; }
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t memory_bytes() const;

  void clear();

 private:
  void prune();

  std::size_t capacity_;
  double total_ = 0.0;
  double offset_ = 0.0;
  std::unordered_map<KeyId, SpaceSaving::Entry> map_;
  std::vector<double> prune_scratch_;
};

}  // namespace skewless
