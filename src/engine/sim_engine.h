// Virtual-time simulation driver for one keyed operator (upstream router
// -> N_D downstream task instances).
//
// Why a simulator: the paper's evaluation ran on a 21-node Storm cluster;
// we reproduce the *shape* of its end-to-end results on one machine. The
// rebalance algorithms only interact with the engine through per-interval
// statistics and the routing function, so a deterministic fluid queueing
// model of the data plane preserves everything that matters:
//
//  * per-instance work  W(d) = Σ_{F(k)=d} batch_cost(k) per interval,
//  * backpressure: the spout is throttled by the most loaded instance
//    (admitted fraction α = min(1, capacity/W_max)) — the Fig. 1 effect,
//  * M/D/1-style queueing latency per instance, weighted by tuple counts,
//  * the pause/migrate/resume protocol of Fig. 5: migrating keys reduces
//    the capacity of participating instances by the pause time
//    (signalling RTT + state bytes / bandwidth + plan generation time),
//    and delays tuples of the affected keys,
//  * PKG's split-key routing with its downstream merge stage overheads.
//
// The engine contract is the threaded and net engines': one Controller,
// whose provider is the engine's only statistics store and whose
// AssignmentFunction routes keyed tuples. A planner-less controller is
// the paper's "Storm" baseline (plain consistent hashing). step()
// returns the shared IntervalReport; its timing fields are virtual time.
//
// Determinism: all inputs are interval count vectors and the model is
// closed-form per interval, with one wall-clock input.
// charge_generation_time (on by default) lands each plan
// ⌊generation_micros / interval_micros⌋ intervals late, and
// generation_micros is the planner's measured wall time. So a run
// reproduces bit for bit on any host only while every plan computes in
// well under one virtual interval, which makes that delay 0. A run whose
// plans take close to a whole interval (exact statistics over 1M keys,
// say) reproduces only on a host of the same speed: a slower host lands
// a plan an interval later, and the trajectory diverges from there. With
// charge_generation_time off, every run reproduces.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "baselines/router.h"
#include "common/types.h"
#include "core/controller.h"
#include "engine/interval.h"
#include "engine/sim_operator.h"
#include "engine/workload_source.h"

namespace skewless {

enum class RoutingMode {
  kKeyed,    // the controller's F (planner-less: the "Storm" baseline)
  kShuffle,  // key-oblivious round robin ("Ideal" bound)
  kPkg,      // Partial Key Grouping with merge stage
};

struct SimConfig {
  Micros interval_micros = 1'000'000;  // T_i length (1 virtual second)
  /// Extra CPU fraction PKG pays downstream for partial-result merging.
  double pkg_merge_overhead = 0.10;
  /// Latency added by PKG's merge period p (the paper used p = 10 ms).
  Micros pkg_merge_latency_us = 10'000;
  /// State migration bandwidth between instances.
  double migration_bytes_per_sec = 200.0 * 1024 * 1024;
  /// Pause/resume signalling cost per migration (steps 3-7 of Fig. 5).
  Micros migration_rtt_us = 2'000;
  /// Whether plan-generation time delays plan installation: while the
  /// controller computes (Fig. 5 step 2), tuples keep flowing under the
  /// old assignment, so a slow planner (Readj's multi-second searches)
  /// leaves the system imbalanced for ⌈generation/interval⌉ intervals.
  bool charge_generation_time = true;
  /// Utilization cap in the latency formula (avoids the 1/(1−ρ) pole).
  double rho_cap = 0.98;
};

class SimEngine {
 public:
  /// `controller` keeps the statistics (window, exact or sketch storage)
  /// and sets the instance count in every mode. kKeyed routes by its
  /// assignment; kShuffle and kPkg take a planner-less controller and
  /// only record into it.
  SimEngine(SimConfig config, std::unique_ptr<SimOperator> op,
            std::unique_ptr<WorkloadSource> source,
            std::unique_ptr<Controller> controller,
            RoutingMode mode = RoutingMode::kKeyed);

  /// Advances one interval and returns its report: emitted = offered
  /// tuples, processed = admitted tuples, wall_ms = the virtual interval
  /// length, instance_load = work (micros) per instance, max_theta = the
  /// realized imbalance of that work.
  IntervalReport step();

  /// Runs `intervals` steps, returning all reports.
  std::vector<IntervalReport> run(int intervals);

  /// Scale-out: adds one downstream instance (takes effect next interval).
  void add_instance();

  [[nodiscard]] Controller* controller() { return controller_.get(); }
  [[nodiscard]] const SimConfig& config() const { return config_; }
  [[nodiscard]] InstanceId num_instances() const {
    return controller_->num_instances();
  }

 private:
  /// Pause/migrate/resume (Fig. 5): every instance a move touches owes
  /// `pause` of capacity, and the moved keys' tuples wait it out.
  void charge_pause(const std::vector<KeyMove>& moves, Micros pause);

  SimConfig config_;
  std::unique_ptr<SimOperator> op_;
  std::unique_ptr<WorkloadSource> source_;
  std::unique_ptr<Controller> controller_;
  RoutingMode mode_;
  std::optional<PkgRouter> pkg_router_;

  // Pause bookkeeping: capacity debt (micros) per instance from the most
  // recent migration, consumed over subsequent intervals.
  std::vector<Micros> pause_debt_;
  // Keys currently affected by an in-flight migration (their tuples see
  // added latency while the pause drains).
  std::vector<bool> key_paused_;

  // Generation-delay bookkeeping: while a plan is being "computed", the
  // engine routes with the frozen pre-plan assignment and the controller
  // does not re-plan. The frozen assignment differs from the (already
  // installed) live one only on the plan's moved keys, so a sparse
  // key -> pre-plan-destination map suffices — no dense O(|K|) copy.
  std::unordered_map<KeyId, InstanceId> route_override_;
  int override_remaining_ = 0;
  Micros pending_pause_ = 0;
  std::vector<KeyMove> pending_moves_;

  IntervalId interval_ = 0;
};

}  // namespace skewless
