// WorkerSketchSlab — one worker thread's interval-local statistics
// accumulator for sketch mode, designed so that NO per-key hash traffic
// ever crosses a thread boundary on the data path.
//
// Each ThreadedEngine worker owns its slabs and writes to them without
// any lock: the merge thread only reads a slab after the worker sealed it
// (see below), which establishes a happens-before edge from every worker
// write.
//
// The slab mirrors the two tiers of SketchStatsWindow:
//
//  * HOT — keys in the window's current heavy set (distributed by the
//    driver at the previous interval boundary) accumulate exactly in a
//    bounded per-slab map, so the hot tier keeps perfect fidelity even
//    though the observations are produced on N threads.
//  * COLD — everything else lands in ONE fused Count-Min cell array
//    holding the (cost, state) pair per cell. Both quantities share a
//    single Kirsch–Mitzenmacher probe and a single set of cache lines
//    per key — the hot-path reason the slab exists —
//    and the cells are written with the classic update, so the array
//    stays a linear function of the stream and the boundary merge can
//    unpack both quantities cell-wise in one pass
//    (CountMinSketch::add_fused) into the window's per-quantity sketches,
//    which share the same hash family. A MisraGries tracker (amortized
//    O(1) per add) nominates promotion candidates and exact scalars keep
//    the cold aggregates truthful — the update rule, tracker and scalars
//    SketchStatsWindow::record uses too. The tracker is
//    interval-local by construction (clear()ed before each interval's
//    first add), which is precisely the granularity the window's decayed
//    promotion needs: each interval's merged candidates enter the
//    β-decayed union once, at that interval's roll.
//
// At the interval boundary the merge path calls SketchStatsWindow::absorb
// on each slab in worker-index order — a fixed order, so the merged result
// is byte-identical regardless of which worker finished first. The slab
// is clear()ed before it takes the next interval's first add (cells and
// hot maps keep their allocations; the candidate tracker hands its table
// back): the threaded engine's worker clears it when it switches back
// into it, the net worker right after shipping it.
//
// Double-buffered operation (ThreadedEngine's seal protocol): each worker
// owns a PAIR of slabs. A SealMsg at the interval boundary stamps the
// active slab with the closing epoch, release-publishes it to the
// driver-side merge thread, and swaps the worker onto the other buffer,
// which it clears — tuples keep flowing through the merge. The sealed
// slab also carries the interval's scalar counters (IntervalScalars), so
// the merge path reads a complete epoch without any lock: the seal
// publication orders every worker write before the merge thread's reads.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/first_touch.h"
#include "common/serde.h"
#include "sketch/count_min.h"
#include "sketch/misra_gries.h"
#include "sketch/stats_provider.h"

namespace skewless {

class WorkerSketchSlab {
 public:
  /// Exact accumulation for one hot key on one worker.
  struct KeyAgg {
    Cost cost = 0.0;
    Bytes state_bytes = 0.0;
  };

  /// One fused Count-Min cell: the two per-quantity counters a key's
  /// probe touches together, 16 bytes, so a cell never straddles two
  /// cache lines.
  struct FusedCell {
    double cost = 0.0;
    double state = 0.0;
  };

  /// Per-interval scalar counters the owning worker accumulates next to
  /// the per-key statistics and seals together with them. In
  /// double-buffered mode the merge path reads these from the sealed
  /// slab with no lock at all — the seal publication is the only
  /// synchronization an epoch needs.
  struct IntervalScalars {
    std::uint64_t processed = 0;
    /// Summed over every processed tuple, so the mean is
    /// latency_sum_us / processed.
    double latency_sum_us = 0.0;
  };

  /// `config` must be the SketchStatsConfig of the SketchStatsWindow the
  /// slab will be absorbed into: the fused cells replicate the geometry
  /// and probe placement of the window's shared Count-Min family
  /// (SketchStatsWindow::kSharedFamilySalt) cell-for-cell.
  explicit WorkerSketchSlab(const SketchStatsConfig& config);

  /// Accumulates one observation. Hot keys (current heavy set) go to the
  /// exact map; everything else to the fused cells + candidate tracker.
  void add(KeyId key, Cost cost, Bytes state_bytes);

  /// Folds one batch's per-key aggregation in two passes: pass 1
  /// classifies every entry against the heavy set and computes each cold
  /// key's Kirsch–Mitzenmacher probe; pass 2 flushes the cold entries
  /// with a software-pipelined prefetch a few entries ahead — each key's
  /// fused cell rows are already in flight when its update executes.
  /// Byte-identical to add() per entry in iteration order: hot and cold
  /// entries touch disjoint accumulators, and each class is flushed in
  /// its original order.
  void add_batch(const std::unordered_map<KeyId, KeyAgg>& batch);

  /// Replaces the hot-key set. Called by the owning worker at its seal,
  /// with the heavy set SketchStatsWindow::roll left behind, before it
  /// folds the next epoch's first batch.
  void set_heavy_keys(const std::vector<KeyId>& keys);

  /// Resets the interval-local contents (keeps the heavy set; fused
  /// cells are zeroed in place, hash maps keep their buckets, and the
  /// candidate tracker releases its table). The zeroing is also the
  /// cells' first touch, so the thread that clears a fresh slab places
  /// its pages.
  void clear();

  [[nodiscard]] const std::unordered_map<KeyId, KeyAgg>& hot() const {
    return hot_;
  }
  [[nodiscard]] const FirstTouchArray<FusedCell>& cells() const {
    return cells_;
  }
  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t depth() const { return depth_; }
  [[nodiscard]] const MisraGries& candidates() const { return candidates_; }

  [[nodiscard]] Cost cold_cost() const { return cold_cost_; }
  [[nodiscard]] Bytes cold_state() const { return cold_state_; }

  /// Exact total cost observed this interval (hot + cold) — what the
  /// driver uses for the realized per-worker imbalance.
  [[nodiscard]] Cost total_cost() const { return hot_cost_ + cold_cost_; }

  /// One past the largest key observed since construction (the logical
  /// domain bound the window grows to on absorb).
  [[nodiscard]] std::size_t key_bound() const { return key_bound_; }

  /// The interval's scalar counters (worker-written, sealed with the
  /// slab; cleared by clear()).
  [[nodiscard]] IntervalScalars& scalars() { return scalars_; }
  [[nodiscard]] const IntervalScalars& scalars() const { return scalars_; }

  /// Epoch stamp: the 1-based interval boundary this slab was sealed at
  /// (0 = never sealed). Set by the worker's SealMsg handler right
  /// before the release-publish; the merge path asserts it matches the
  /// epoch it is absorbing.
  void set_epoch(std::uint64_t epoch) { epoch_ = epoch; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  [[nodiscard]] std::size_t memory_bytes() const;
  /// What memory_bytes() will read once clear() has run, read without
  /// clearing: the slab's fixed footprint (cells, both maps' buckets and
  /// the heavy set) without its hot entries or candidate table.
  [[nodiscard]] std::size_t cleared_memory_bytes() const;

  /// Writes the slab's full interval content as a boundary summary — the
  /// NetEngine's kSummary payload. The encoding is deterministic (hot
  /// entries sorted by key, candidates by (count desc, key asc), then
  /// every cell's cost and state), so two slabs holding equal
  /// content serialize to equal bytes regardless of the hash-map
  /// insertion order that produced them.
  void serialize(ByteWriter& out) const;

  /// Where serialize() writes the latency sum: after the epoch, the four
  /// geometry fields and the processed count. It is the one summary field
  /// read off the wall clock, so a replay of the same batches reproduces
  /// every byte but these.
  static constexpr std::size_t kLatencySumOffset = 6 * sizeof(std::uint64_t);

  /// Rebuilds the interval content from a summary produced by serialize()
  /// on a slab of the SAME SketchStatsConfig. The heavy set is left
  /// untouched (absorb never reads it). Returns false — with the reader's
  /// sticky error flag set — on truncation, a geometry mismatch (the
  /// peer derived different Count-Min dimensions or family seed), or
  /// value-range corruption in any field, cells included (every
  /// magnitude must be finite and non-negative); the slab content is
  /// unspecified then and the caller must drop the frame.
  [[nodiscard]] bool deserialize_from(ByteReader& in);

 private:
  void add_hot(KeyId key, const KeyAgg& agg);
  void add_cold(KeyId key, const KeyAgg& agg,
                const CountMinSketch::KeyProbe& probe);

  std::unordered_set<KeyId> heavy_;
  std::unordered_map<KeyId, KeyAgg> hot_;
  std::size_t width_ = 0;  // power of two, mirrors the window's family
  std::size_t depth_ = 0;
  std::uint64_t seed_ = 0;
  /// depth_ rows of width_ fused cells. First-touch mapped: pages commit
  /// on the NUMA node of whichever thread writes them first — see
  /// clear().
  FirstTouchArray<FusedCell> cells_;
  MisraGries candidates_;
  // add_batch scratch (retained across calls; the slab is single-writer
  // so plain members are safe where thread_local would be wasteful).
  std::vector<const std::pair<const KeyId, KeyAgg>*> hot_scratch_;
  std::vector<const std::pair<const KeyId, KeyAgg>*> cold_scratch_;
  std::vector<CountMinSketch::KeyProbe> probes_;  // one per cold entry
  Cost cold_cost_ = 0.0;
  Cost hot_cost_ = 0.0;
  Bytes cold_state_ = 0.0;
  std::size_t key_bound_ = 0;
  IntervalScalars scalars_;
  std::uint64_t epoch_ = 0;
};

}  // namespace skewless
