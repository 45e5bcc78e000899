// StatsProvider — the statistics contract the controller and the engines
// consume, abstracted from its storage. Two implementations exist:
//
//  * StatsWindow (core/stats_window.h) — exact, four dense O(|K|) vectors
//    plus a ring of w per-interval state vectors.
//    Right for the figure benches (K ≤ a few hundred thousand).
//  * SketchStatsWindow (sketch/sketch_stats_window.h) — approximate:
//    exact stats only for the tracked heavy-hitter keys and
//    Count-Min-sketched aggregates for the cold tail. O(sketch + k)
//    memory regardless of |K|, which is what makes million-key domains
//    affordable.
//
// The controller plans from a dense PartitionSnapshot in exact mode and
// from a compact one in sketch mode (heavy entries plus per-instance cold
// residuals, SketchStatsWindow::synthesize_compact). In sketch mode the
// dense view (synthesize_dense: heavy keys exact, cold estimates
// normalized) serves only the benches and tests that compare against
// exact statistics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace skewless {

/// How per-key statistics are stored (the ControllerConfig `stats_mode`
/// switch).
enum class StatsMode {
  kExact,   // dense per-key vectors (StatsWindow)
  kSketch,  // heavy-hitter maps + Count-Min sketches (SketchStatsWindow)
};

/// Tuning knobs for the sketch-based provider.
struct SketchStatsConfig {
  /// Count-Min ε: per-query overestimate ≤ ε · (total mass) with
  /// probability ≥ 1 − δ. Width = next power of two ≥ e / ε.
  double epsilon = 2e-4;
  /// Count-Min δ. Depth = ⌈ln(1/δ)⌉.
  double delta = 0.01;
  /// Maximum number of keys tracked exactly (the heavy-map bound), and
  /// the capacity m of every MisraGries candidate tracker: a tracker's
  /// counts stay exact until its own adds pass 2m distinct keys in one
  /// interval, and only then does it prune.
  std::size_t heavy_capacity = 4096;
  /// A key is promoted to exact tracking when its estimated interval cost
  /// is ≥ promote_fraction · (interval total cost). With decay enabled
  /// both sides of the comparison are exponentially decayed sums over
  /// intervals instead of single-interval values.
  double promote_fraction = 1e-4;
  /// Seed for the sketch hash functions (determinism knob).
  std::uint64_t seed = 0x5eedc0de;
  /// Decayed heavy-hitter tracking. When true (default), MisraGries
  /// candidates are tracked per interval and merged across intervals with
  /// exponential decay: promotion compares each key's decayed cost
  /// history against promote_fraction · (decayed total cost), the first
  /// post-promotion interval is backfilled from the closed interval's
  /// GUARANTEED observation (count − error, never an over-debit of the
  /// cold aggregates), and demotion fires when a heavy key's decayed cost
  /// falls below demote_fraction of the promotion threshold (hysteresis)
  /// — with its residual mass credited back to the cold tier exactly.
  /// A full heavy tier does not freeze: a candidate whose guaranteed
  /// decayed weight (count − error) clearly outweighs the weakest
  /// incumbent's displaces it, so a shifted hot set migrates into exact
  /// tracking instead of being stranded in the cold tier.
  /// When false, the original single-interval behavior is reproduced
  /// bit-for-bit: upper-bound first-interval backfill, idle-only
  /// demotion (an interval is idle for a key that added neither cost
  /// nor state in it).
  bool decay = true;
  /// β — per-interval multiplier applied to the decayed candidate counts
  /// and the decayed total (0 < β < 1). Matches the window's spirit of
  /// forgetting: with β = 0.5 an interval's weight halves every boundary.
  double decay_beta = 0.5;
  /// Hysteresis for decayed demotion: a heavy key is demoted when its
  /// decayed cost < demote_fraction · promote_fraction · (decayed total).
  /// Must be < 1 so a key needs to fall well below the promotion bar
  /// before it is evicted (no promote/demote flapping at the boundary).
  double demote_fraction = 0.1;
};

class StatsProvider {
 public:
  virtual ~StatsProvider() = default;

  /// Accumulates one observation for the current (open) interval: the
  /// key's cost c(k) and state growth, the two per-key quantities the
  /// planners read. `dest` is the instance the key's tuples were
  /// processed on (F(key) during the interval). The exact provider
  /// ignores it; the sketch provider uses it to keep EXACT per-instance
  /// cold residual aggregates for synthesize_compact — callers on the
  /// planning path (the engines' boundary replay and the sim's keyed
  /// routing) must supply it. kNilInstance marks the destination unknown
  /// (tests, non-planning monitors); such mass is spread evenly across
  /// instances at compact-synthesis time.
  virtual void record(KeyId key, Cost cost, Bytes state_bytes,
                      InstanceId dest = kNilInstance) = 0;

  /// Closes the current interval (see StatsWindow::roll for semantics).
  virtual void roll() = 0;

  /// c_{i-1}(k). For the sketch provider this is exact for heavy keys and
  /// an unnormalized upper-bound estimate for cold keys.
  [[nodiscard]] virtual Cost last_cost_of(KeyId key) const = 0;

  /// S_{i-1}(k, w), same exact/estimate split as last_cost_of.
  [[nodiscard]] virtual Bytes windowed_state_of(KeyId key) const = 0;

  /// Total windowed state over all keys. Exact in both implementations
  /// (the sketch provider tracks interval totals as scalars).
  [[nodiscard]] virtual Bytes total_windowed_state() const = 0;

  /// Materializes the dense per-key view the planners consume:
  /// cost[k] = c_{i-1}(k) and state[k] = S_{i-1}(k, w) for the whole
  /// domain [0, num_keys()). The sketch provider writes exact values for
  /// heavy keys and scales cold-key estimates so that their sum matches
  /// the exactly-tracked cold aggregate.
  virtual void synthesize_dense(std::vector<Cost>& cost,
                                std::vector<Bytes>& state) const = 0;

  [[nodiscard]] virtual std::size_t num_keys() const = 0;

  [[nodiscard]] virtual int window() const = 0;
  [[nodiscard]] virtual IntervalId closed_intervals() const = 0;

  /// Resident bytes of the statistics structures themselves — the number
  /// the exact-vs-sketch trade-off is about.
  [[nodiscard]] virtual std::size_t memory_bytes() const = 0;

  [[nodiscard]] virtual StatsMode mode() const = 0;
};

}  // namespace skewless
