// Count-Min sketch (Cormode & Muthukrishnan, J. Algorithms '05) over the
// KeyId domain with double-valued counters, supporting both the classic
// update and the conservative-update variant (Estan & Varghese, SIGCOMM'02)
// that only raises the cells that need raising.
//
// Guarantees (classic update, depth d = ⌈ln 1/δ⌉, width w ≥ e/ε):
//   estimate(k) ≥ true(k)                                   always
//   P[ estimate(k) − true(k) > ε · Σ true ] ≤ δ             per query
// Conservative update preserves the overestimate property and is never
// less accurate, but cell-wise merge/subtract only remain sound for the
// classic update — which is why the windowed-state ring uses add() while
// the per-interval cost sketches use add_conservative().
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/types.h"

namespace skewless {

class CountMinSketch {
 public:
  struct Params {
    double epsilon = 2e-4;
    double delta = 0.01;
    std::uint64_t seed = 0x5eedc0de;
  };

  explicit CountMinSketch(Params params);

  /// Classic update: every row's cell += amount. Cell-wise add_sketch /
  /// subtract_sketch stay exact under this update.
  void add(KeyId key, double amount);

  /// Conservative update: raises each row's cell only up to
  /// min-row-estimate + amount. Tighter estimates, but the sketch is no
  /// longer a linear function of the stream (no subtract).
  void add_conservative(KeyId key, double amount);

  /// Upper-bound point estimate: min over rows.
  [[nodiscard]] double estimate(KeyId key) const;

  /// Cell-wise merge/unmerge (used to maintain a sliding-window sum of
  /// per-interval sketches). Both sketches must share width/depth/seed.
  void add_sketch(const CountMinSketch& other);
  void subtract_sketch(const CountMinSketch& other);

  /// Cell-wise merge of an external fused buffer into two sketches in
  /// one pass: cell (row, c) of `first` gains `pairs[2 * i]` and the same
  /// cell of `second` gains `pairs[2 * i + 1]`, where i = row * width + c.
  /// Per sketch, the additions and their order are those of a cell-wise
  /// merge of that lane alone. The buffer must have been written with
  /// both sketches' exact geometry and probe placement (one family's
  /// Params — see make_probe/probe_index, which exist so external
  /// accumulators like WorkerSketchSlab can share the placement).
  /// `first_total` and `second_total` are the exact masses each lane
  /// accumulated.
  static void add_fused(CountMinSketch& first, CountMinSketch& second,
                        const double* pairs, std::size_t width,
                        std::size_t depth, double first_total,
                        double second_total);

  void clear();

  /// Exact running total of all added amounts (maintained as a scalar;
  /// conservative updates make cell sums useless for this).
  [[nodiscard]] double total() const { return total_; }

  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t depth() const { return depth_; }
  /// The realized ε after rounding the width up to a power of two.
  [[nodiscard]] double effective_epsilon() const;
  [[nodiscard]] std::size_t memory_bytes() const;
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Kirsch–Mitzenmacher double hashing: two base hashes per operation,
  /// row i probes (h1 + i·h2). h2 is forced odd so every stride is
  /// coprime with the power-of-two width — each row still touches a
  /// distinct, well-distributed cell, at 2 hash evaluations per key
  /// instead of `depth`. (K&M '06 show the pairwise-independence bounds
  /// carry over, which is all the CM guarantee needs.) The statics are
  /// public so an external accumulator (WorkerSketchSlab's fused cell
  /// array) can reproduce the exact placement of a same-seed sketch.
  struct KeyProbe {
    std::uint64_t h1;
    std::uint64_t h2;
  };
  [[nodiscard]] static KeyProbe make_probe(KeyId key, std::uint64_t seed) {
    return {hash64(key, seed),
            hash64(key, seed ^ 0x9e3779b97f4a7c15ULL) | 1ULL};
  }
  [[nodiscard]] static std::size_t probe_index(const KeyProbe& p,
                                               std::size_t row,
                                               std::size_t width_mask) {
    return static_cast<std::size_t>(p.h1 + row * p.h2) & width_mask;
  }

  /// Probe-reusing update variants: same semantics as the KeyId forms,
  /// with a caller-supplied probe, so a hot path updating SEVERAL
  /// same-family sketches for one key (the window's cost/state pair —
  /// see SketchStatsWindow::kSharedFamilySalt) hashes the key once
  /// instead of once per sketch. `probe` must come from make_probe(key, seed()).
  void add(double amount, const KeyProbe& probe);
  void add_conservative(double amount, const KeyProbe& probe);

  /// Portable software-prefetch hint for one cell (no-op where the
  /// intrinsic is unavailable). Public for the same reason as
  /// make_probe/probe_index: external accumulators that share a sketch's
  /// placement (WorkerSketchSlab's fused cells) warm the same lines.
  static void prefetch_cell(const double* cell) {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(cell, /*rw=*/1, /*locality=*/1);
#else
    (void)cell;
#endif
  }

  /// Prefetches every row cell `probe` touches in THIS sketch, so a
  /// caller can overlap the cache misses of an upcoming update with
  /// other work (sibling-sketch updates, the next scratch entry).
  void prefetch(const KeyProbe& probe) const {
    for (std::size_t row = 0; row < depth_; ++row) {
      prefetch_cell(&cells_[row * width_ + cell_index(probe, row)]);
    }
  }

 private:
  [[nodiscard]] KeyProbe probe(KeyId key) const {
    return make_probe(key, seed_);
  }
  [[nodiscard]] std::size_t cell_index(const KeyProbe& p,
                                       std::size_t row) const {
    return probe_index(p, row, width_ - 1);
  }
  /// Minimum over the rows' cells for `p`: the point estimate, and the
  /// conservative update's raise target.
  [[nodiscard]] double row_min(const KeyProbe& p) const;

  std::size_t width_;   // power of two
  std::size_t depth_;
  std::uint64_t seed_;
  double total_ = 0.0;
  std::vector<double> cells_;  // depth_ rows of width_ cells
};

}  // namespace skewless
