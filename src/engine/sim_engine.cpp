#include "engine/sim_engine.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "core/snapshot.h"

namespace skewless {

SimEngine::SimEngine(SimConfig config, std::unique_ptr<SimOperator> op,
                     std::unique_ptr<WorkloadSource> source,
                     std::unique_ptr<Controller> controller, RoutingMode mode)
    : config_(config),
      op_(std::move(op)),
      source_(std::move(source)),
      controller_(std::move(controller)),
      mode_(mode) {
  SKW_EXPECTS(op_ && source_ && controller_);
  SKW_EXPECTS(mode == RoutingMode::kKeyed || !controller_->has_planner());
  if (mode == RoutingMode::kPkg) pkg_router_.emplace(num_instances());
  pause_debt_.assign(static_cast<std::size_t>(num_instances()), 0);
  key_paused_.assign(source_->num_keys(), false);
}

void SimEngine::add_instance() {
  controller_->add_instance();
  pause_debt_.push_back(0);
  if (pkg_router_) pkg_router_->add_instance();
}

void SimEngine::charge_pause(const std::vector<KeyMove>& moves,
                             Micros pause) {
  std::vector<bool> involved(pause_debt_.size(), false);
  for (const KeyMove& mv : moves) {
    involved[static_cast<std::size_t>(mv.from)] = true;
    involved[static_cast<std::size_t>(mv.to)] = true;
    key_paused_[static_cast<std::size_t>(mv.key)] = true;
  }
  for (std::size_t d = 0; d < involved.size(); ++d) {
    if (involved[d]) pause_debt_[d] += pause;
  }
}

IntervalReport SimEngine::step() {
  const IntervalWorkload load = source_->next_interval();
  StatsProvider& stats = controller_->stats();
  SKW_EXPECTS(load.counts.size() == stats.num_keys());
  const std::size_t num_keys = load.counts.size();
  const auto nd = static_cast<std::size_t>(num_instances());

  IntervalReport r;
  r.interval = interval_;
  std::vector<double>& work = r.instance_load;
  work.assign(nd, 0.0);
  std::vector<double> tuples(nd, 0.0);
  std::vector<double> paused_tuples_on(nd, 0.0);

  double total_tuples = 0.0;

  if (mode_ == RoutingMode::kShuffle) {
    // Key-oblivious spreading: work divides perfectly across instances.
    double total_work = 0.0;
    for (std::size_t k = 0; k < num_keys; ++k) {
      const auto n = load.counts[k];
      if (n == 0) continue;
      total_tuples += static_cast<double>(n);
      total_work += op_->batch_cost(
          static_cast<KeyId>(k), n,
          stats.windowed_state_of(static_cast<KeyId>(k)));
      stats.record(static_cast<KeyId>(k), 0.0,
                   op_->state_delta(static_cast<KeyId>(k), n));
    }
    for (std::size_t d = 0; d < nd; ++d) {
      work[d] = total_work / static_cast<double>(nd);
      tuples[d] = total_tuples / static_cast<double>(nd);
    }
  } else if (mode_ == RoutingMode::kPkg) {
    // Two-choice split per key, in chunks, against the router's running
    // load estimates; merge stage adds CPU overhead.
    for (std::size_t k = 0; k < num_keys; ++k) {
      const auto n = load.counts[k];
      if (n == 0) continue;
      total_tuples += static_cast<double>(n);
      const Cost batch = op_->batch_cost(
          static_cast<KeyId>(k), n,
          stats.windowed_state_of(static_cast<KeyId>(k)));
      const Cost per_tuple = batch / static_cast<double>(n);
      std::uint64_t remaining = n;
      const std::uint64_t chunk = std::max<std::uint64_t>(1, n / 8);
      while (remaining > 0) {
        const std::uint64_t take = std::min(chunk, remaining);
        const InstanceId d = pkg_router_->route(
            static_cast<KeyId>(k), per_tuple * static_cast<double>(take));
        work[static_cast<std::size_t>(d)] +=
            per_tuple * static_cast<double>(take) *
            (1.0 + config_.pkg_merge_overhead);
        tuples[static_cast<std::size_t>(d)] += static_cast<double>(take);
        remaining -= take;
      }
      stats.record(static_cast<KeyId>(k), batch,
                   op_->state_delta(static_cast<KeyId>(k), n));
    }
    pkg_router_->on_interval();
  } else {
    // Keyed routing by the controller's F.
    for (std::size_t k = 0; k < num_keys; ++k) {
      const auto n = load.counts[k];
      if (n == 0) continue;
      total_tuples += static_cast<double>(n);
      const auto key = static_cast<KeyId>(k);
      // While a plan is "being generated", tuples still route under the
      // frozen pre-plan assignment: the live assignment already has the
      // plan installed, so moved keys take their pre-plan destination
      // from the sparse override map.
      InstanceId d = controller_->assignment()(key);
      if (override_remaining_ > 0) {
        if (const auto it = route_override_.find(key);
            it != route_override_.end()) {
          d = it->second;
        }
      }
      const auto di = static_cast<std::size_t>(d);
      const Cost batch = op_->batch_cost(key, n, stats.windowed_state_of(key));
      work[di] += batch;
      tuples[di] += static_cast<double>(n);
      if (key_paused_[k]) paused_tuples_on[di] += static_cast<double>(n);
      stats.record(key, batch, op_->state_delta(key, n), d);
    }
  }

  // ---- Capacity after migration-pause debt.
  const auto interval_us = static_cast<double>(config_.interval_micros);
  std::vector<double> capacity(nd, interval_us);
  double max_consumed = 0.0;
  for (std::size_t d = 0; d < nd; ++d) {
    const auto consume =
        std::min<Micros>(pause_debt_[d], config_.interval_micros);
    pause_debt_[d] -= consume;
    capacity[d] -= static_cast<double>(consume);
    // Never let capacity hit zero — the instance still drains its queue
    // between protocol steps.
    capacity[d] = std::max(capacity[d], 0.02 * interval_us);
    max_consumed = std::max(max_consumed, static_cast<double>(consume));
  }

  // ---- Fluid queueing model.
  double rho_max = 0.0;
  for (std::size_t d = 0; d < nd; ++d) {
    rho_max = std::max(rho_max, work[d] / capacity[d]);
  }
  const double alpha = rho_max > 1.0 ? 1.0 / rho_max : 1.0;
  const double interval_sec = interval_us / 1e6;
  r.emitted = static_cast<std::uint64_t>(total_tuples);
  r.processed = static_cast<std::uint64_t>(std::llround(alpha * total_tuples));
  r.wall_ms = interval_us / 1000.0;
  r.throughput_tps = alpha * total_tuples / interval_sec;

  double weighted_latency_us = 0.0;
  double latency_weight = 0.0;
  for (std::size_t d = 0; d < nd; ++d) {
    if (tuples[d] <= 0.0) continue;
    const double service = work[d] / tuples[d];
    const double rho = std::min(alpha * work[d] / capacity[d], config_.rho_cap);
    const double lat = service * (1.0 + rho / (2.0 * (1.0 - rho)));
    weighted_latency_us += tuples[d] * lat;
    latency_weight += tuples[d];
    // Tuples of keys under migration wait out (on average half) the pause.
    if (paused_tuples_on[d] > 0.0) {
      weighted_latency_us += paused_tuples_on[d] * 0.5 * max_consumed;
    }
  }
  double avg_latency_us =
      latency_weight > 0.0 ? weighted_latency_us / latency_weight : 0.0;
  if (rho_max > 1.0) {
    // Saturated: the backlog grows through the interval; average extra
    // wait is half of the unprocessed work time.
    avg_latency_us += 0.5 * (rho_max - 1.0) * interval_us;
  }
  if (mode_ == RoutingMode::kPkg) {
    avg_latency_us += static_cast<double>(config_.pkg_merge_latency_us);
  }
  r.avg_latency_ms = avg_latency_us / 1000.0;
  // The realized imbalance of the work distribution.
  r.max_theta = PartitionSnapshot::max_theta(work);

  // Pause latency is charged exactly once per migration.
  std::fill(key_paused_.begin(), key_paused_.end(), false);

  // ---- Interval boundary: the statistics roll exactly once.
  if (override_remaining_ > 0) {
    // Plan still "being generated": keep the stats cadence, no re-plan.
    stats.roll();
    if (--override_remaining_ == 0) {
      // The plan lands now: execute the pause/migrate/resume protocol.
      charge_pause(pending_moves_, pending_pause_);
      pending_moves_.clear();
      pending_pause_ = 0;
      route_override_.clear();
    }
  } else if (auto plan = controller_->end_interval()) {
    note_plan(*plan, stats, r);
    const Micros pause =
        config_.migration_rtt_us +
        static_cast<Micros>(plan->migration_bytes /
                            config_.migration_bytes_per_sec * 1e6);
    const int delay_intervals =
        config_.charge_generation_time
            ? static_cast<int>(plan->generation_micros /
                               config_.interval_micros)
            : 0;
    if (delay_intervals > 0) {
      // Routing stays on the pre-plan assignment until generation
      // "completes"; the migration pause is charged at landing time.
      // Only the moved keys differ from the installed assignment, so
      // the override is a sparse key -> old-destination map.
      route_override_.clear();
      for (const KeyMove& mv : plan->moves) {
        route_override_.emplace(mv.key, mv.from);
      }
      override_remaining_ = delay_intervals;
      pending_pause_ = pause;
      pending_moves_ = std::move(plan->moves);
    } else {
      charge_pause(plan->moves, pause);
    }
  }

  ++interval_;
  return r;
}

std::vector<IntervalReport> SimEngine::run(int intervals) {
  std::vector<IntervalReport> out;
  out.reserve(static_cast<std::size_t>(intervals));
  for (int i = 0; i < intervals; ++i) out.push_back(step());
  return out;
}

}  // namespace skewless
