// SketchStatsWindow — approximate per-key statistics matching the
// StatsWindow rolling-interval contract in O(sketch + heavy_capacity)
// memory, independent of the key-domain size |K|. It is the sketch-mode
// StatsProvider: make_stats_provider builds it, the controller plans from
// its compact view, and the engines absorb their worker slabs into it.
//
// Two-tier design (DKG's sketch+heavy-hitters idea, DEBS'15, carried into
// the rolling-window setting):
//
//  * HOT TIER — keys promoted to "heavy" are tracked exactly in a bounded
//    hash map: per-interval cost and state plus a w-slot ring (one
//    allocation) for the windowed state sum. This is precisely the set
//    the Mixed planner wants explicit routing-table entries for.
//  * COLD TIER — everything else goes into Count-Min sketches
//    (conservative update for the per-interval cost; classic update for
//    state so a ring of per-interval sketches can be cell-wise
//    subtracted to maintain the w-interval window sum) and a
//    Space-Saving tracker that nominates next interval's promotions.
//
// Interval totals (cost, state) are tracked exactly as scalars, so
// total_windowed_state() and the aggregate mass of the dense
// synthesized view stay exact: synthesize_dense() writes exact values for
// heavy keys and scales the cold keys' upper-bound estimates so they sum
// to the exactly-known cold aggregate.
//
// Promotion nomination runs in one of two modes (SketchStatsConfig::
// decay, default on): the DECAYED mode keeps a β-decayed union of the
// per-interval Space-Saving candidates, promotes against a decayed
// threshold, backfills the first interval from the closed interval's
// guaranteed (count − error) observation, and demotes heavy keys whose
// decayed standing collapses — crediting their residual mass back to the
// cold tier exactly. The legacy single-interval mode (decay = false)
// nominates from the last interval alone, backfills upper bounds and
// demotes only fully-idle keys.
//
// Approximation caveats (all bounded, none affect aggregate totals):
//  * a key promoted at interval i was sketched during interval i, so its
//    first "exact" values are backfilled estimates (upper bounds without
//    decay, guaranteed lower bounds with it; the matching mass is
//    removed from the cold aggregate, clamped at 0);
//  * per-key accessors (last_cost_of, ...) return unnormalized
//    upper-bound estimates for cold keys; only synthesize_dense
//    normalizes (it needs the full domain to compute the scale);
//  * record() on a key ≥ num_keys() auto-grows the logical domain —
//    unlike StatsWindow, which asserts — because the sketch allocates
//    nothing per key.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sketch/count_min.h"
#include "sketch/space_saving.h"
#include "sketch/stats_provider.h"

namespace skewless {

class WorkerSketchSlab;

class SketchStatsWindow final : public StatsProvider {
 public:
  /// `num_keys` = |K| (logical bound for synthesize_dense; grows on
  /// demand), `window` = w ≥ 1.
  SketchStatsWindow(std::size_t num_keys, int window,
                    SketchStatsConfig config = {});

  /// Every per-quantity sketch (cost and state — current, last and the
  /// windowed-state ring) shares ONE hash family: the worker slabs fuse
  /// both quantities into a single probed cell array on the data path
  /// (one probe, one set of cache lines per key), and cell-wise
  /// unpacking that array into the per-quantity sketches is only sound
  /// when the placements coincide. Per-sketch Count-Min bounds are
  /// unaffected (the analysis is per sketch); the price is that two
  /// colliding keys collide in every quantity at once.
  static constexpr std::uint64_t kSharedFamilySalt = 3;

  /// The Count-Min parameters of hash family `salt` under `config`.
  /// Shared with WorkerSketchSlab so worker-local fused cells are
  /// cell-wise compatible with the window's sketches.
  [[nodiscard]] static CountMinSketch::Params family_params(
      const SketchStatsConfig& config, std::uint64_t salt);

  /// `dest` (the instance the key routed to) feeds the per-instance cold
  /// residual aggregates that synthesize_compact emits; recording
  /// without it still keeps every total exact but leaves the mass
  /// unattributed (spread evenly at compact-synthesis time).
  void record(KeyId key, Cost cost, Bytes state_bytes,
              InstanceId dest = kNilInstance) override;
  void roll() override;

  /// Boundary merge: folds one worker's interval-local slab into the
  /// open interval. Hot entries accumulate exactly into the heavy tier
  /// (the slab's heavy set is a snapshot of this window's, so they route
  /// straight to existing entries); cold mass merges cell-wise into the
  /// open Count-Min sketches (exact, since slabs use the classic
  /// update), candidates union into the Space-Saving tracker, and the
  /// exact scalar aggregates add. Absorbing slabs in a fixed order
  /// yields byte-identical state regardless of worker finish order —
  /// and regardless of WHERE the absorb runs (the driver's inline drain
  /// or the asynchronous merge thread absorbing sealed buffers): the
  /// input is exactly the sealed epoch either way.
  /// `dest` is the worker/instance the slab belongs to (its whole cold
  /// stream was processed there); it tags the per-instance cold
  /// aggregates and the merged promotion candidates.
  void absorb(const WorkerSketchSlab& slab, InstanceId dest = kNilInstance);

  /// The current heavy key set, sorted ascending (deterministic) — what
  /// the driver distributes to worker slabs at interval boundaries.
  [[nodiscard]] std::vector<KeyId> heavy_keys() const;

  [[nodiscard]] Cost last_cost_of(KeyId key) const override;
  [[nodiscard]] Bytes windowed_state_of(KeyId key) const override;
  [[nodiscard]] Bytes total_windowed_state() const override;
  void synthesize_dense(std::vector<Cost>& cost,
                        std::vector<Bytes>& state) const override;

  /// The compact planner view — the O(k + N_D) alternative to
  /// synthesize_dense that allocates nothing proportional to |K|:
  ///   * `keys`/`cost`/`state` — the heavy set, sorted ascending, with
  ///     its EXACT last-interval cost and windowed state;
  ///   * `cold_cost`/`cold_state` — per-instance residual aggregates of
  ///     the untracked tail, sums of the recorded cold mass by
  ///     destination (recorded scalars, not sketch estimates — no
  ///     normalization step exists on this path).
  /// Cold mass recorded without a destination is spread evenly across
  /// the `num_instances` instances, keeping L̄ and Lmax exact; recorded
  /// destinations must lie in [0, num_instances).
  ///
  /// Exactness caveat (same one the class header documents for the
  /// scalar aggregates): a promotion debits the candidate's backfilled
  /// upper-bound count from its recorded destination, clamped at zero.
  /// When Space-Saving ran eviction-free (capacity ≥ distinct cold keys
  /// — the equivalence-anchor regime) the backfill is the exact recorded
  /// mass and the residuals are exact; under evictions the inherited
  /// error can over-debit one instance by up to the entry's `error`
  /// for the promotion interval, after which fresh intervals are exact
  /// again.
  void synthesize_compact(InstanceId num_instances, std::vector<KeyId>& keys,
                          std::vector<Cost>& cost, std::vector<Bytes>& state,
                          std::vector<Cost>& cold_cost,
                          std::vector<Bytes>& cold_state) const;

  [[nodiscard]] std::size_t num_keys() const override { return num_keys_; }
  [[nodiscard]] int window() const override { return window_; }
  [[nodiscard]] IntervalId closed_intervals() const override {
    return closed_;
  }
  [[nodiscard]] std::size_t memory_bytes() const override;
  [[nodiscard]] StatsMode mode() const override { return StatsMode::kSketch; }

  /// Number of keys currently tracked exactly.
  [[nodiscard]] std::size_t heavy_count() const { return heavy_.size(); }
  [[nodiscard]] bool is_heavy(KeyId key) const {
    return heavy_.find(key) != heavy_.end();
  }
  [[nodiscard]] const SketchStatsConfig& config() const { return config_; }

  /// Heavy-set churn accounting: cumulative promotions/demotions since
  /// construction, and the counts from the most recent roll(). The
  /// bench's churn rate is (promotions + demotions per interval) /
  /// heavy_capacity.
  [[nodiscard]] std::uint64_t total_promotions() const {
    return total_promotions_;
  }
  [[nodiscard]] std::uint64_t total_demotions() const {
    return total_demotions_;
  }
  [[nodiscard]] std::size_t last_promotions() const {
    return last_promotions_;
  }
  [[nodiscard]] std::size_t last_demotions() const { return last_demotions_; }
  /// Exponentially decayed total cost Σ β^age · (interval total). Zero
  /// when decay is disabled.
  [[nodiscard]] Cost decayed_total_cost() const { return decayed_total_; }

 private:
  /// One heavy key's state per closed interval, oldest to newest, in one
  /// allocation of exactly w slots used as a circular buffer: that
  /// allocation is all memory_bytes() counts for it. The window passes
  /// its w to every call.
  class StateRing {
   public:
    /// Starts over with one closed interval holding `amount`.
    void reset(int window, Bytes amount);
    /// Appends `amount` as the newest interval. On a full ring it takes
    /// the oldest interval's slot, returns true and writes that
    /// interval's amount to `expired`.
    bool push(int window, Bytes amount, Bytes& expired);
    /// The `age`-th newest interval's amount (0 = newest), age < size().
    [[nodiscard]] Bytes newest(int window, std::size_t age) const;
    [[nodiscard]] std::size_t size() const { return size_; }

   private:
    std::unique_ptr<Bytes[]> slots_;
    std::uint32_t oldest_ = 0;  // slot of the oldest interval
    std::uint32_t size_ = 0;
  };

  struct HeavyEntry {
    Cost cur_cost = 0.0;
    Cost last_cost = 0.0;
    Bytes cur_state = 0.0;
    Bytes window_state = 0.0;
    /// Decayed cost history Σ β^age · (interval cost), maintained while
    /// heavy (seeded from the promoting candidate's decayed count). The
    /// decayed-demotion criterion compares it against the demote
    /// threshold on the same timescale as decayed_total_.
    Cost decayed_cost = 0.0;
    StateRing ring;
    int idle_intervals = 0;
    /// Last known routing destination (kNilInstance when never
    /// attributed) — where a demotion credits the per-instance cold
    /// aggregates back.
    InstanceId dest = kNilInstance;
  };

  [[nodiscard]] CountMinSketch::Params cms_params(std::uint64_t salt) const;
  void close_cold_interval();
  void roll_heavy_entries(Cost& heavy_cost_closed);
  /// Moves a newly promoted entry's backfill (last cost, window state)
  /// out of the cold scalars, the aggregates of its destination, and
  /// both state rings.
  void debit_backfill(const HeavyEntry& e);
  void promote_candidates(Cost interval_total_cost);
  void decay_candidates(Cost interval_total_cost);
  void promote_decayed();
  void demote_decayed();
  /// Drops the decayed union back to the top heavy_capacity non-heavy
  /// entries at the end of a roll — behavior-identical (the next
  /// rebuild keeps exactly that set) but bounds steady-state memory,
  /// which the non-truncating candidates union would otherwise blow
  /// past in threaded runs.
  void truncate_decayed();
  void demote_entry(KeyId key);

  SketchStatsConfig config_;
  int window_;
  std::size_t num_keys_;
  IntervalId closed_ = 0;

  std::unordered_map<KeyId, HeavyEntry> heavy_;
  SpaceSaving candidates_;  // cold stream of the open interval, weight=cost
  /// Decayed union of per-interval candidate trackers (decay mode only):
  /// at each roll the previous history is scaled by β, truncated back to
  /// capacity, filtered of currently-heavy keys, and the just-closed
  /// interval's candidates_ are merged in. Promotion reads this tracker
  /// instead of the single-interval one, so a key hot across intervals
  /// accumulates standing while a one-interval spike decays away.
  SpaceSaving decayed_;
  Cost decayed_total_ = 0.0;  // Σ β^age · interval total cost

  std::uint64_t total_promotions_ = 0;
  std::uint64_t total_demotions_ = 0;
  std::size_t last_promotions_ = 0;
  std::size_t last_demotions_ = 0;

  CountMinSketch cost_cur_, cost_last_;    // conservative update
  CountMinSketch state_cur_;               // classic update (subtractable)
  CountMinSketch state_window_;            // running sum of state_ring_
  std::deque<CountMinSketch> state_ring_;  // last ≤ w closed intervals

  // Exact scalar totals for the cold tier.
  Cost cold_cost_cur_ = 0.0, cold_cost_last_ = 0.0;
  Bytes cold_state_cur_ = 0.0;
  Bytes cold_state_window_ = 0.0;
  std::deque<Bytes> cold_state_ring_;

  // Exact per-destination cold aggregates (the compact planning view's
  // residuals), rolled in lockstep with the scalars above. Index is
  // dest + 1: slot 0 holds mass recorded without a destination. The
  // vectors grow on demand to the largest destination seen, so they stay
  // O(N_D) regardless of |K|.
  [[nodiscard]] static std::size_t dest_slot(InstanceId dest) {
    return static_cast<std::size_t>(dest + 1);
  }
  void grow_dest(std::size_t slot);
  std::vector<Cost> cold_cost_cur_d_, cold_cost_last_d_;
  std::vector<Bytes> cold_state_cur_d_, cold_state_window_d_;
  std::deque<std::vector<Bytes>> cold_state_ring_d_;
};

}  // namespace skewless
