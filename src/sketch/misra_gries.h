// Misra-Gries / "frequent items" heavy-hitter summary (Misra & Gries
// '82, in the offset formulation used by modern frequent-items
// sketches) — deterministic top-k tracking of a weighted stream in
// O(capacity) memory, amortized O(1) per add. It is the sketch layer's
// one tracker: the worker slabs nominate promotion candidates with it,
// and the sketch window records into it and unions the slabs' summaries
// into it.
//
// Design: a FlatEntryTable (below) plus a scalar `offset`. An untracked
// key inserts with count = offset + weight, error = offset. When the
// table exceeds 2×capacity, one O(size) prune finds the (capacity+1)-th
// largest count, drops every entry ≤ it in one compaction (a value
// threshold — ties drop together, so the surviving set is
// deterministic) and raises `offset` to the cutoff. No heap, no per-add
// eviction.
//
// Invariants over a stream of total weight W:
//   * count(k) ≥ true weight(k): by induction, a key's mass before its
//     latest insertion is ≤ offset at that moment;
//   * count(k) − error(k) ≤ true weight(k)  (error bounds the slack);
//   * every untracked key has true weight ≤ offset, and the offset
//     never exceeds W / (capacity + 1): a prune that raises it by δ
//     takes δ from the surplus (count − offset) of each of the
//     capacity + 1 largest entries, and that surplus only grows by
//     added weight. So every key with true weight > W / capacity is
//     tracked — the nomination guarantee promotion needs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace skewless {

/// Key → entry table of the tracker below. Entries live densely in one
/// vector (scans are sequential and no entry is a separate heap node); a
/// power-of-two slot array holds entry index + 1 (0 = empty), probed
/// linearly from mix64(key) at load ≤ 3/4. erase() closes its probe run
/// by backward shift (no tombstones) and moves the last entry into the
/// freed position, so any insert or erase may move entries and reorders
/// entries(). No tracker output depends on that order: unions add per
/// key, every sorted view uses a total order, and pruning cuts by value.
template <typename Entry>
class FlatEntryTable {
 public:
  [[nodiscard]] Entry* find(KeyId key) {
    if (slots_.empty()) return nullptr;
    for (std::size_t s = home(key); slots_[s] != 0; s = next(s)) {
      Entry& e = entries_[slots_[s] - 1];
      if (e.key == key) return &e;
    }
    return nullptr;
  }
  [[nodiscard]] const Entry* find(KeyId key) const {
    return const_cast<FlatEntryTable*>(this)->find(key);
  }

  /// Inserts `entry` unless its key is present. Returns the key's entry
  /// and whether it was inserted (false leaves the table unchanged).
  std::pair<Entry*, bool> insert(const Entry& entry) {
    std::size_t s = 0;
    if (!slots_.empty()) {
      for (s = home(entry.key); slots_[s] != 0; s = next(s)) {
        Entry& e = entries_[slots_[s] - 1];
        if (e.key == entry.key) return {&e, false};
      }
    }
    if (4 * (entries_.size() + 1) > 3 * slots_.size()) {
      rehash(std::max<std::size_t>(kMinSlots, 2 * slots_.size()));
      s = free_slot(entry.key);
    }
    entries_.push_back(entry);
    slots_[s] = static_cast<std::uint32_t>(entries_.size());
    return {&entries_.back(), true};
  }

  /// Sizes the table for `n` entries without further rehashing. The
  /// bulk unions call it with an upper bound: growing by doubling would
  /// re-probe every entry once per doubling.
  void reserve(std::size_t n) {
    entries_.reserve(n);
    std::size_t slot_count = std::max(kMinSlots, slots_.size());
    while (4 * n > 3 * slot_count) slot_count *= 2;
    if (slot_count > slots_.size()) rehash(slot_count);
  }

  /// Removes `key`'s entry; false if it was absent.
  bool erase(KeyId key) {
    if (slots_.empty()) return false;
    std::size_t hole = home(key);
    while (slots_[hole] != 0 && entries_[slots_[hole] - 1].key != key) {
      hole = next(hole);
    }
    if (slots_[hole] == 0) return false;
    const std::size_t index = slots_[hole] - 1;
    // Backward shift: a later member of the probe run moves into the
    // hole unless its home lies strictly after the hole.
    for (std::size_t s = next(hole); slots_[s] != 0; s = next(s)) {
      const std::size_t from_home = (s - home(entries_[slots_[s] - 1].key)) &
                                    (slots_.size() - 1);
      if (from_home >= ((s - hole) & (slots_.size() - 1))) {
        slots_[hole] = slots_[s];
        hole = s;
      }
    }
    slots_[hole] = 0;
    const std::size_t last = entries_.size() - 1;
    if (index != last) {
      entries_[index] = entries_[last];
      std::size_t s = home(entries_[index].key);
      while (slots_[s] != last + 1) s = next(s);
      slots_[s] = static_cast<std::uint32_t>(index + 1);
    }
    entries_.pop_back();
    return true;
  }

  /// Removes every entry matching `pred` in one compaction and re-index.
  template <typename Pred>
  void erase_if(Pred pred) {
    std::erase_if(entries_, pred);
    rehash(slots_.size());
  }

  /// Empties the table and hands its memory back.
  void clear() {
    std::vector<Entry>().swap(entries_);
    std::vector<std::uint32_t>().swap(slots_);
  }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }
  [[nodiscard]] std::size_t memory_bytes() const {
    return entries_.capacity() * sizeof(Entry) +
           slots_.capacity() * sizeof(std::uint32_t);
  }

 private:
  static constexpr std::size_t kMinSlots = 16;

  [[nodiscard]] std::size_t home(KeyId key) const {
    return static_cast<std::size_t>(mix64(key)) & (slots_.size() - 1);
  }
  [[nodiscard]] std::size_t next(std::size_t s) const {
    return (s + 1) & (slots_.size() - 1);
  }
  [[nodiscard]] std::size_t free_slot(KeyId key) const {
    std::size_t s = home(key);
    while (slots_[s] != 0) s = next(s);
    return s;
  }
  /// Rebuilds the slot array at `slot_count` (a power of two) from the
  /// dense entries.
  void rehash(std::size_t slot_count) {
    slots_.assign(slot_count, 0);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      slots_[free_slot(entries_[i].key)] = static_cast<std::uint32_t>(i + 1);
    }
  }

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> slots_;
};

class MisraGries {
 public:
  struct Entry {
    KeyId key = 0;
    double count = 0.0;  // overestimate of the key's true weight
    double error = 0.0;  // slack: count − error ≤ true weight
    /// Last observed routing destination of the key (kNilInstance when
    /// never supplied). A key routes to exactly one instance within an
    /// interval, so "last" is also "only" — the sketch stats window uses
    /// it to debit the right per-instance cold aggregate on promotion.
    InstanceId dest = kNilInstance;
  };

  explicit MisraGries(std::size_t capacity);

  /// Observes `weight` more mass on `key`, tagging it with `dest` (the
  /// instance the key currently routes to) unless that is kNilInstance.
  /// Amortized O(1).
  void add(KeyId key, double weight = 1.0, InstanceId dest = kNilInstance);

  /// Unions another tracker into this one (shared-nothing aggregation:
  /// per-worker trackers merged at an interval boundary). For keys
  /// tracked on both sides, counts and errors add; keys tracked on only
  /// one side carry over unchanged. The union NEVER drops an entry, so
  /// size() may exceed 2×capacity() after merging (bounded by the sum of
  /// the source sizes); a later add() that inserts past the bound prunes,
  /// and callers that want the bound back can take the top entries of
  /// entries_by_count(). Not truncating is what keeps the guarantee
  /// below exact even for CHAINED merges (N per-worker trackers folded
  /// one at a time): truncating intermediate unions could drop a key
  /// whose mass is still arriving from later workers.
  ///
  /// Invariants after any sequence of merges of trackers with capacity
  /// ≥ m, over the combined stream of weight W:
  ///   * count(k) − error(k) ≤ true weight(k), inherited per key by
  ///     summation (sources where k went untracked only add true mass);
  ///   * count(k) ≥ true weight(k) holds for keys tracked by EVERY
  ///     source that observed them — a key pruned in one source
  ///     contributes nothing from that stream, so the union's count can
  ///     undershoot such a key (its guaranteed bound still never lies);
  ///   * every key with true combined weight > W / m is tracked: such a
  ///     key must carry > W_s / m in at least one source stream s (the
  ///     weights sum), so that source tracked it, and the union drops
  ///     nothing.
  void merge(const MisraGries& other);

  /// Same union, from a raw summary: `entries` must satisfy the Entry
  /// invariants (count ≥ true ≥ count − error) over a stream of weight
  /// `total_weight`, with distinct keys. This is how a worker slab's
  /// summary, stamped with its worker's destination, folds into the
  /// window's candidate union.
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

  /// The entries with count ≥ min_count, sorted exactly like
  /// entries_by_count(). Equivalent to filtering that list — but a
  /// consumer that would stop scanning at the first entry below
  /// min_count (the promotion pass) gets the same prefix while sorting
  /// only the filtered few instead of the whole tracker, which after
  /// non-truncating worker-slab unions can hold tens of thousands of
  /// entries.
  [[nodiscard]] std::vector<Entry> entries_by_count_at_least(
      double min_count) const;

  /// All tracked entries in table order — NOT sorted. For consumers
  /// whose results are order-independent (a union accumulates per key,
  /// and the decayed union's top-capacity truncation selects by
  /// count_order itself): skipping the sort removes the dominant cost
  /// of summarizing a full tracker on the boundary-merge path.
  [[nodiscard]] const std::vector<Entry>& entries_unsorted() const {
    return table_.entries();
  }

  /// Rebuilds the tracker from a serialized summary (the net layer's
  /// boundary-summary wire format): replaces the tracked entries,
  /// total_weight() and offset() wholesale. `entries` must satisfy the
  /// Entry invariants over a stream of weight `total_weight` with
  /// untracked-mass bound `offset` — i.e. be the output of another
  /// tracker of the same capacity, which is what the slab codec ships.
  /// Returns false, leaving the tracker cleared, when a key repeats: no
  /// tracker emits such a summary, so it is corruption.
  [[nodiscard]] bool restore(const std::vector<Entry>& entries,
                             double total_weight, double offset);

  [[nodiscard]] double total_weight() const { return total_; }
  /// Upper bound on the true weight of any key this tracker's own adds
  /// left untracked (unions do not raise it).
  [[nodiscard]] double offset() const { return offset_; }
  [[nodiscard]] std::size_t size() const { return table_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t memory_bytes() const;
  /// What memory_bytes() will read once clear() has run: the tracker
  /// without its entry table.
  [[nodiscard]] std::size_t cleared_memory_bytes() const;

  /// Empties the tracker; the entry table hands its memory back.
  void clear();

 private:
  void prune();
  /// Adds `entry` to the union: counts and errors add per key.
  void union_entry(const Entry& entry);

  std::size_t capacity_;
  double total_ = 0.0;
  double offset_ = 0.0;
  FlatEntryTable<Entry> table_;
  std::vector<double> prune_scratch_;
};

}  // namespace skewless
