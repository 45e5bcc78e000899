#include "core/controller.h"

#include <utility>

#include "common/log.h"
#include "common/rng.h"
#include "sketch/sketch_stats_window.h"

namespace skewless {

Controller::Controller(AssignmentFunction assignment, PlannerPtr planner,
                       ControllerConfig config, std::size_t num_keys)
    : assignment_(std::move(assignment)),
      planner_(std::move(planner)),
      config_(config),
      stats_(make_stats_provider(config.stats_mode, num_keys, config.window,
                                 config.sketch)) {}

SketchStatsWindow* Controller::slab_sink() {
  return dynamic_cast<SketchStatsWindow*>(stats_.get());
}

const SketchStatsWindow* Controller::slab_sink() const {
  return dynamic_cast<const SketchStatsWindow*>(stats_.get());
}

std::uint64_t Controller::heavy_promotions() const {
  const SketchStatsWindow* sketch = slab_sink();
  return sketch ? sketch->total_promotions() : 0;
}

std::uint64_t Controller::heavy_demotions() const {
  const SketchStatsWindow* sketch = slab_sink();
  return sketch ? sketch->total_demotions() : 0;
}

PartitionSnapshot Controller::build_snapshot() const {
  PartitionSnapshot snap;
  snap.num_instances = assignment_.num_instances();
  if (const SketchStatsWindow* sketch = slab_sink()) {
    // Compact planning view: the heavy set as entries (exact values) plus
    // per-instance cold residual aggregates. O(k + N_D) work and memory —
    // nothing here scales with |K|, which is what lets planning keep up
    // with million-key domains. Under the threaded engine's asynchronous
    // boundary merge this runs strictly after every sealed worker slab of
    // the closing epoch has been absorbed (end_interval is only reached
    // once the merge thread hands the epoch back), so the snapshot is a
    // pure function of the merged epoch — identical across schedulings
    // and buffer modes.
    sketch->synthesize_compact(snap.num_instances, snap.keys, snap.cost,
                               snap.state, snap.cold_cost, snap.cold_state);
    snap.total_keys = stats_->num_keys();
    const std::size_t n = snap.keys.size();
    snap.hash_dest.resize(n);
    snap.current.resize(n);
    std::size_t entry_table = 0;
    for (std::size_t e = 0; e < n; ++e) {
      const KeyId key = snap.keys[e];
      snap.hash_dest[e] = assignment_.hash_dest(key);
      snap.current[e] = assignment_(key);
      if (snap.current[e] != snap.hash_dest[e]) ++entry_table;
    }
    // Table entries held by untracked keys: the invariant "entry exists
    // iff F(k) != h(k)" makes them exactly the non-heavy remainder. After
    // a retirement the invariant weakens (a re-homed heavy key differs
    // from h(k) without holding an entry), so clamp the subtraction.
    const std::size_t table_size = assignment_.table().size();
    snap.cold_table_entries =
        table_size >= entry_table ? table_size - entry_table : 0;
  } else {
    // Exact mode: the dense per-key view IS the compact view with every
    // key an entry (keys empty = identity, no cold residuals).
    stats_->synthesize_dense(snap.cost, snap.state);
    snap.hash_dest = assignment_.materialize_hash(stats_->num_keys());
    snap.current = assignment_.materialize(stats_->num_keys());
  }
  return snap;
}

std::optional<RebalancePlan> Controller::end_interval() {
  stats_->roll();
  if (!planner_) return std::nullopt;
  last_snapshot_ = build_snapshot();
  const auto loads = last_snapshot_.current_loads();
  last_observed_theta_ = PartitionSnapshot::max_theta(loads);

  if (last_observed_theta_ <= config_.planner.theta_max) return std::nullopt;

  RebalancePlan plan = planner_->plan(last_snapshot_, config_.planner);
  if (assignment_.has_retired()) {
    // Degraded mode: the planner sees retired instances as valid slots
    // (the snapshot's loads simply read zero for them). Never move a key
    // onto — or pointlessly off — a dead instance; sources read from
    // `current`, which resolve() already maps onto survivors.
    std::erase_if(plan.moves, [&](const KeyMove& mv) {
      return assignment_.is_retired(mv.to) || assignment_.is_retired(mv.from);
    });
  }
  if (plan.moves.empty()) return std::nullopt;

  // Sparse install: only moved keys change routing state; cold keys keep
  // their pins. O(moves), never O(|K|) — equivalent to the old wholesale
  // install() because the table invariant (entry iff F(k) != h(k)) holds
  // key-by-key before and after.
  for (const KeyMove& mv : plan.moves) assignment_.apply(mv.key, mv.to);
  ++rebalance_count_;
  plan_digest_ = mix64(plan_digest_ ^ plan_value_digest(plan));
  total_generation_micros_ += plan.generation_micros;
  total_migrated_bytes_ += plan.migration_bytes;
  SKW_LOG_INFO(
      "rebalance #%zu: %zu moves, %.0f bytes, table=%zu, theta %.3f -> %.3f "
      "(%.1f ms)",
      rebalance_count_, plan.moves.size(), plan.migration_bytes,
      plan.table_size, last_observed_theta_, plan.achieved_theta,
      static_cast<double>(plan.generation_micros) / 1000.0);
  return plan;
}

void Controller::add_instance() {
  // Without a planner nothing would ever move a pinned key: plain
  // consistent hashing just grows the ring, and the keys whose owner
  // changed follow it.
  if (!planner_) {
    assignment_.add_instance();
    return;
  }
  // Pin every key to its pre-scale-out destination, then grow the ring.
  // Installing after the ring change computes entries against the new
  // h(k), so keys whose ring owner changed get explicit pins and no state
  // moves implicitly.
  const auto frozen = assignment_.materialize(stats_->num_keys());
  assignment_.add_instance();
  assignment_.install(frozen);
}

}  // namespace skewless
