#include "sketch/sketch_stats_window.h"

#include <algorithm>
#include <cstddef>
#include <memory>

#include "common/assert.h"
#include "sketch/worker_sketch_slab.h"

namespace skewless {

namespace {

/// A candidate displaces a full heavy tier's weakest incumbent only when
/// its guaranteed decayed weight clears the incumbent's by this factor —
/// hysteresis against flapping between near-equal keys.
constexpr Cost kDisplaceMargin = 2.0;

}  // namespace

CountMinSketch::Params SketchStatsWindow::family_params(
    const SketchStatsConfig& config, std::uint64_t salt) {
  CountMinSketch::Params p;
  p.epsilon = config.epsilon;
  p.delta = config.delta;
  p.seed = config.seed + salt * 0x9e3779b97f4a7c15ULL;
  return p;
}

CountMinSketch::Params SketchStatsWindow::cms_params(
    std::uint64_t salt) const {
  return family_params(config_, salt);
}

SketchStatsWindow::SketchStatsWindow(std::size_t num_keys, int window,
                                     SketchStatsConfig config)
    : config_(config),
      window_(window),
      num_keys_(num_keys),
      candidates_(config.heavy_capacity),
      decayed_(config.heavy_capacity),
      // One shared family across quantities — see kSharedFamilySalt.
      cost_cur_(cms_params(kSharedFamilySalt)),
      cost_last_(cms_params(kSharedFamilySalt)),
      state_cur_(cms_params(kSharedFamilySalt)),
      state_window_(cms_params(kSharedFamilySalt)) {
  SKW_EXPECTS(window >= 1);
  SKW_EXPECTS(config.heavy_capacity >= 1);
  SKW_EXPECTS(!config.decay ||
              (config.decay_beta > 0.0 && config.decay_beta < 1.0));
  SKW_EXPECTS(config.demote_fraction >= 0.0 && config.demote_fraction < 1.0);
  heavy_.reserve(config.heavy_capacity);
}

void SketchStatsWindow::grow_dest(std::size_t slot) {
  if (slot >= cold_cost_cur_d_.size()) {
    cold_cost_cur_d_.resize(slot + 1, 0.0);
    cold_cost_last_d_.resize(slot + 1, 0.0);
    cold_state_cur_d_.resize(slot + 1, 0.0);
    cold_state_window_d_.resize(slot + 1, 0.0);
  }
}

void SketchStatsWindow::record(KeyId key, Cost cost, Bytes state_bytes,
                               InstanceId dest) {
  SKW_EXPECTS(cost >= 0.0 && state_bytes >= 0.0);
  SKW_EXPECTS(dest >= kNilInstance);
  // The sketch allocates nothing per key, so the domain auto-grows
  // (StatsWindow asserts here instead — see its header).
  if (key >= num_keys_) num_keys_ = static_cast<std::size_t>(key) + 1;

  if (const auto it = heavy_.find(key); it != heavy_.end()) {
    it->second.cur_cost += cost;
    it->second.cur_state += state_bytes;
    // A key routes to one instance per interval, so "last seen" is also
    // "current" — kept fresh so a later demotion credits the right
    // per-instance cold aggregate.
    if (dest != kNilInstance) it->second.dest = dest;
    return;
  }
  // The two sketches share one hash family, so one probe serves both
  // updates — hashed once, with the state sketch's rows prefetched while
  // the cost sketch's misses are outstanding.
  const auto probe = CountMinSketch::make_probe(key, cost_cur_.seed());
  state_cur_.prefetch(probe);
  cost_cur_.add(cost, probe);
  state_cur_.add(state_bytes, probe);
  candidates_.add(key, cost, dest);
  cold_cost_cur_ += cost;
  cold_state_cur_ += state_bytes;
  const std::size_t slot = dest_slot(dest);
  grow_dest(slot);
  cold_cost_cur_d_[slot] += cost;
  cold_state_cur_d_[slot] += state_bytes;
}

void SketchStatsWindow::absorb(const WorkerSketchSlab& slab, InstanceId dest) {
  if (slab.key_bound() > num_keys_) num_keys_ = slab.key_bound();
  // Hot tier: exact accumulation. Iteration order over the slab's map is
  // irrelevant because each key only touches its own heavy entry (and
  // scalar += is commutative over disjoint keys). record() re-checks
  // membership, so a stale hot entry (demoted since the slab's snapshot)
  // degrades gracefully to the cold path.
  for (const auto& [key, agg] : slab.hot()) {
    record(key, agg.cost, agg.state_bytes, dest);
  }
  // Cold tier: unpack the slab's fused (cost, state) cells into the
  // per-quantity sketches cell-wise, both in one pass over the cells.
  // Exact merge — slab and window both write classic updates, under
  // which a Count-Min array is a linear function of its stream — legal
  // because every sketch here shares the slab's hash family
  // (kSharedFamilySalt).
  static_assert(sizeof(WorkerSketchSlab::FusedCell) == 2 * sizeof(double) &&
                offsetof(WorkerSketchSlab::FusedCell, cost) == 0 &&
                offsetof(WorkerSketchSlab::FusedCell, state) == sizeof(double));
  CountMinSketch::add_fused(cost_cur_, state_cur_, &slab.cells().data()->cost,
                            slab.width(), slab.depth(), slab.cold_cost(),
                            slab.cold_state());
  // The slab's whole cold stream was processed on its owning worker:
  // stamp that destination onto the merged candidates and credit the
  // per-instance cold aggregates wholesale. Unsorted summary: the union
  // accumulates per key, so entry order is unobservable — and skipping
  // the O(n log n) sort is the dominant saving on the boundary-merge
  // path (the promotion pass sorts the merged tracker once instead).
  std::vector<MisraGries::Entry> entries = slab.candidates().entries_unsorted();
  if (dest != kNilInstance) {
    for (auto& e : entries) e.dest = dest;
  }
  candidates_.merge(entries, slab.candidates().total_weight());
  cold_cost_cur_ += slab.cold_cost();
  cold_state_cur_ += slab.cold_state();
  const std::size_t slot = dest_slot(dest);
  grow_dest(slot);
  cold_cost_cur_d_[slot] += slab.cold_cost();
  cold_state_cur_d_[slot] += slab.cold_state();
}

std::vector<KeyId> SketchStatsWindow::heavy_keys() const {
  std::vector<KeyId> keys;
  keys.reserve(heavy_.size());
  for (const auto& [key, e] : heavy_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

void SketchStatsWindow::close_cold_interval() {
  std::swap(cost_last_, cost_cur_);
  cost_cur_.clear();

  state_window_.add_sketch(state_cur_);
  state_ring_.push_back(std::move(state_cur_));
  if (state_ring_.size() > static_cast<std::size_t>(window_)) {
    state_window_.subtract_sketch(state_ring_.front());
    // Recycle the expired interval's sketch as the new open one —
    // no churn of multi-hundred-KB allocations at interval cadence.
    state_cur_ = std::move(state_ring_.front());
    state_ring_.pop_front();
    state_cur_.clear();
  } else {
    state_cur_ = CountMinSketch(cms_params(kSharedFamilySalt));
  }

  cold_cost_last_ = cold_cost_cur_;
  cold_cost_cur_ = 0.0;
  cold_state_window_ += cold_state_cur_;
  cold_state_ring_.push_back(cold_state_cur_);
  cold_state_cur_ = 0.0;
  if (cold_state_ring_.size() > static_cast<std::size_t>(window_)) {
    cold_state_window_ =
        std::max(0.0, cold_state_window_ - cold_state_ring_.front());
    cold_state_ring_.pop_front();
  }

  // Per-destination aggregates roll in lockstep (vectors may have grown
  // mid-interval, so older ring entries can be shorter — iterate the
  // common prefix when expiring).
  cold_cost_last_d_ = cold_cost_cur_d_;
  std::fill(cold_cost_cur_d_.begin(), cold_cost_cur_d_.end(), 0.0);
  for (std::size_t i = 0; i < cold_state_cur_d_.size(); ++i) {
    cold_state_window_d_[i] += cold_state_cur_d_[i];
  }
  cold_state_ring_d_.push_back(cold_state_cur_d_);
  std::fill(cold_state_cur_d_.begin(), cold_state_cur_d_.end(), 0.0);
  if (cold_state_ring_d_.size() > static_cast<std::size_t>(window_)) {
    const auto& oldest = cold_state_ring_d_.front();
    for (std::size_t i = 0; i < oldest.size(); ++i) {
      cold_state_window_d_[i] =
          std::max(0.0, cold_state_window_d_[i] - oldest[i]);
    }
    cold_state_ring_d_.pop_front();
  }
}

void SketchStatsWindow::StateRing::reset(int window, Bytes amount) {
  slots_ = std::make_unique<Bytes[]>(static_cast<std::size_t>(window));
  slots_[0] = amount;
  oldest_ = 0;
  size_ = 1;
}

bool SketchStatsWindow::StateRing::push(int window, Bytes amount,
                                        Bytes& expired) {
  const auto w = static_cast<std::uint32_t>(window);
  if (size_ < w) {
    slots_[(oldest_ + size_) % w] = amount;
    ++size_;
    return false;
  }
  expired = slots_[oldest_];
  slots_[oldest_] = amount;
  oldest_ = (oldest_ + 1) % w;
  return true;
}

Bytes SketchStatsWindow::StateRing::newest(int window,
                                           std::size_t age) const {
  SKW_EXPECTS(age < size_);
  const auto w = static_cast<std::size_t>(window);
  return slots_[(oldest_ + size_ - 1 - age) % w];
}

void SketchStatsWindow::roll_heavy_entries(Cost& heavy_cost_closed) {
  heavy_cost_closed = 0.0;
  for (auto it = heavy_.begin(); it != heavy_.end();) {
    HeavyEntry& e = it->second;
    e.last_cost = e.cur_cost;
    heavy_cost_closed += e.last_cost;
    e.window_state += e.cur_state;
    if (Bytes expired = 0.0; e.ring.push(window_, e.cur_state, expired)) {
      e.window_state = std::max(0.0, e.window_state - expired);
    }
    e.idle_intervals =
        (e.cur_cost == 0.0 && e.cur_state == 0.0) ? e.idle_intervals + 1 : 0;
    e.decayed_cost = config_.decay_beta * e.decayed_cost + e.cur_cost;
    e.cur_cost = 0.0;
    e.cur_state = 0.0;
    // Without decay, demote keys that have added neither cost nor state
    // for a full window and hold no windowed state: their stats are
    // all-zero, so nothing is lost and the slot frees up for a new heavy
    // hitter. With decay
    // enabled demotion is handled by demote_decayed() instead — the
    // decayed criterion keeps a rotating hot key's slot warm across its
    // idle phase, which is exactly what the idle rule would thrash.
    if (!config_.decay && e.idle_intervals >= std::max(window_, 2) &&
        e.window_state <= 0.0) {
      ++last_demotions_;
      ++total_demotions_;
      it = heavy_.erase(it);
    } else {
      ++it;
    }
  }
}

void SketchStatsWindow::debit_backfill(const HeavyEntry& e) {
  cold_cost_last_ = std::max(0.0, cold_cost_last_ - e.last_cost);
  {
    // Per-destination mirror of the debit. The entry's destination is
    // where all of its cold mass accrued (a key routes to one instance
    // per interval), so the whole backfill leaves that instance's
    // aggregates.
    const std::size_t slot = dest_slot(e.dest);
    grow_dest(slot);
    cold_cost_last_d_[slot] =
        std::max(0.0, cold_cost_last_d_[slot] - e.last_cost);
    Bytes remaining_d = e.window_state;
    for (auto rit = cold_state_ring_d_.rbegin();
         rit != cold_state_ring_d_.rend() && remaining_d > 0.0; ++rit) {
      if (slot >= rit->size()) continue;
      const Bytes take = std::min((*rit)[slot], remaining_d);
      (*rit)[slot] -= take;
      remaining_d -= take;
    }
    cold_state_window_d_[slot] = std::max(
        0.0, cold_state_window_d_[slot] - (e.window_state - remaining_d));
  }
  // Debit the backfilled window state from the ring entries (newest
  // first) as well as the running window: the expired entries would
  // otherwise re-subtract mass that already moved to the hot tier,
  // leaving a permanent deficit in the cold aggregate.
  Bytes remaining = e.window_state;
  for (auto rit = cold_state_ring_.rbegin();
       rit != cold_state_ring_.rend() && remaining > 0.0; ++rit) {
    const Bytes take = std::min(*rit, remaining);
    *rit -= take;
    remaining -= take;
  }
  cold_state_window_ =
      std::max(0.0, cold_state_window_ - (e.window_state - remaining));
}

void SketchStatsWindow::promote_candidates(Cost interval_total_cost) {
  const Cost threshold = config_.promote_fraction * interval_total_cost;
  // Filter to the promotion threshold BEFORE sorting: the sorted scan
  // below would stop at the first below-threshold candidate anyway, so
  // the promoted set is identical — but after non-truncating worker-slab
  // unions the tracker can hold tens of thousands of entries, and
  // sorting only the eligible few keeps this pass (on the boundary-merge
  // critical path) proportional to what can actually promote.
  for (const MisraGries::Entry& cand :
       candidates_.entries_by_count_at_least(threshold)) {
    if (heavy_.size() >= config_.heavy_capacity) break;
    // Sorted descending, so the first miss ends the scan. Zero-cost
    // candidates never promote (threshold is 0 in cost-free streams,
    // e.g. shuffle mode, and promoting them would pin arbitrary keys in
    // the bounded hot tier forever).
    if (cand.count <= 0.0) break;
    if (heavy_.find(cand.key) != heavy_.end()) continue;
    HeavyEntry e;
    // Backfill the closed interval from the cold-tier estimates (upper
    // bounds); the matching mass leaves the cold aggregates so the dense
    // synthesis does not count it twice.
    e.last_cost = cand.count;
    e.window_state = state_window_.estimate(cand.key);
    // The backfill lands in a single ring slot for the just-closed
    // interval: a key is usually promoted right after its first active
    // interval, where that is the exact expiry schedule.
    e.ring.reset(window_, e.window_state);
    e.decayed_cost = cand.count;
    e.dest = cand.dest;
    debit_backfill(e);
    ++last_promotions_;
    ++total_promotions_;
    heavy_.emplace(cand.key, std::move(e));
  }
  candidates_.clear();
}

void SketchStatsWindow::decay_candidates(Cost interval_total_cost) {
  decayed_total_ = config_.decay_beta * decayed_total_ + interval_total_cost;
  // Rebuild the decayed union: β-scale the previous history, truncate it
  // back to capacity (the history list is sorted, so the drop is a
  // deterministic suffix), filter keys promoted since, then merge the
  // just-closed interval's candidates in. Rebuilding — instead of
  // scaling in place — is what keeps the tracker bounded even though
  // a union never truncates.
  std::vector<MisraGries::Entry> history = decayed_.entries_by_count();
  std::vector<MisraGries::Entry> kept;
  kept.reserve(std::min(history.size(), config_.heavy_capacity));
  double kept_weight = 0.0;
  for (const MisraGries::Entry& e : history) {
    if (kept.size() >= config_.heavy_capacity) break;
    if (e.count <= 0.0) break;  // sorted descending
    if (heavy_.find(e.key) != heavy_.end()) continue;
    MisraGries::Entry scaled = e;
    scaled.count *= config_.decay_beta;
    scaled.error *= config_.decay_beta;
    kept.push_back(scaled);
    kept_weight += scaled.count;
  }
  decayed_ = MisraGries(config_.heavy_capacity);
  decayed_.merge(kept, kept_weight);
  decayed_.merge(candidates_);
}

void SketchStatsWindow::truncate_decayed() {
  // Between rolls the decayed union is only ever read again through the
  // next decay_candidates() rebuild, which keeps the top heavy_capacity
  // NON-heavy entries and filters the rest (a stale entry for a heavy
  // key is unreadable in between: demotion can only hit a key whose
  // stale entry the rebuild already filtered out). Dropping everything
  // else now is therefore byte-equivalent — and necessary, because the
  // candidates union merged in at the roll is non-truncating and in
  // threaded runs holds many times capacity; without this the tracker
  // would carry that whole union until the next boundary.
  // Selecting the set needs no sort: filter, and partition the top
  // heavy_capacity entries to the front — the same entries as the prefix
  // of a full sort, because count_order is a total order. Their order is
  // unobservable: the next rebuild reads the tracker back sorted by
  // count_order, a union adds per key, and the one order-dependent sum,
  // the kept weight, only reaches decayed_.total_weight(), which nothing
  // reads.
  const std::size_t capacity = config_.heavy_capacity;
  if (decayed_.size() <= capacity) return;
  std::vector<MisraGries::Entry> kept = decayed_.entries_unsorted();
  std::erase_if(kept, [&](const MisraGries::Entry& e) {
    return e.count <= 0.0 || heavy_.find(e.key) != heavy_.end();
  });
  if (kept.size() > capacity) {
    const auto cut = kept.begin() + static_cast<std::ptrdiff_t>(capacity);
    std::nth_element(kept.begin(), cut, kept.end(), MisraGries::count_order);
    kept.erase(cut, kept.end());
  }
  double kept_weight = 0.0;
  for (const MisraGries::Entry& e : kept) kept_weight += e.count;
  decayed_ = MisraGries(capacity);
  decayed_.merge(kept, kept_weight);
}

void SketchStatsWindow::demote_entry(KeyId key) {
  const auto it = heavy_.find(key);
  SKW_EXPECTS(it != heavy_.end());
  HeavyEntry& e = it->second;
  // The entry's residual mass returns to the cold tier EXACTLY: the
  // scalar aggregates, the per-instance aggregates and the subtractable
  // state ring all receive what the hot tier was carrying, so every
  // total the planners consume is unchanged by the demotion itself and a
  // later window expiry subtracts the credited slots on the schedule the
  // mass originally accrued on.
  const auto probe = CountMinSketch::make_probe(key, cost_last_.seed());
  if (e.last_cost > 0.0) cost_last_.add(e.last_cost, probe);
  cold_cost_last_ += e.last_cost;
  const std::size_t slot = dest_slot(e.dest);
  grow_dest(slot);
  cold_cost_last_d_[slot] += e.last_cost;
  cold_state_window_ += e.window_state;
  cold_state_window_d_[slot] += e.window_state;
  // Ring credit, newest first on both sides. The entry ring is never
  // longer than the cold rings (both grow one slot per roll, and the
  // entry started at one slot when the cold rings already had one), so
  // every slot of entry state lands in a matching cold slot. The
  // windowed-sum sketch receives the identical per-slot adds so it stays
  // cell-wise equal to the sum of the ring sketches.
  auto ring_it = state_ring_.rbegin();
  auto cold_ring_it = cold_state_ring_.rbegin();
  auto cold_ring_d_it = cold_state_ring_d_.rbegin();
  for (std::size_t age = 0; age < e.ring.size(); ++age) {
    const Bytes amount = e.ring.newest(window_, age);
    if (amount > 0.0) {
      if (ring_it != state_ring_.rend()) ring_it->add(amount, probe);
      state_window_.add(amount, probe);
      if (cold_ring_it != cold_state_ring_.rend()) *cold_ring_it += amount;
      if (cold_ring_d_it != cold_state_ring_d_.rend()) {
        if (slot >= cold_ring_d_it->size()) {
          cold_ring_d_it->resize(slot + 1, 0.0);
        }
        (*cold_ring_d_it)[slot] += amount;
      }
    }
    if (ring_it != state_ring_.rend()) ++ring_it;
    if (cold_ring_it != cold_state_ring_.rend()) ++cold_ring_it;
    if (cold_ring_d_it != cold_state_ring_d_.rend()) ++cold_ring_d_it;
  }
  // Hand the key's decayed standing back to the candidate pool: a
  // returning key re-promotes from real history instead of from scratch,
  // and a key demoted in error climbs back quickly. count == count −
  // error here is a true lower bound (it is a decayed sum of exactly
  // tracked costs).
  if (e.decayed_cost > 0.0) {
    MisraGries::Entry back;
    back.key = key;
    back.count = e.decayed_cost;
    back.error = 0.0;
    back.dest = e.dest;
    decayed_.merge_entry(back, 0.0);
  }
  heavy_.erase(it);
}

void SketchStatsWindow::demote_decayed() {
  // Hysteresis: a heavy key is demoted once its decayed cost falls below
  // demote_fraction of the promotion bar — well under what would promote
  // it, so a key oscillating near the threshold does not flap. Both
  // sides decay at β per interval, so the comparison is
  // timescale-consistent.
  const Cost threshold =
      config_.demote_fraction * config_.promote_fraction * decayed_total_;
  if (threshold <= 0.0) return;
  std::vector<KeyId> victims;
  for (const auto& [key, e] : heavy_) {
    if (e.decayed_cost < threshold) victims.push_back(key);
  }
  // The credits below do floating-point updates on shared aggregates:
  // a sorted victim order keeps rolls byte-identical regardless of hash
  // map iteration order.
  std::sort(victims.begin(), victims.end());
  for (const KeyId key : victims) demote_entry(key);
  last_demotions_ += victims.size();
  total_demotions_ += victims.size();
}

void SketchStatsWindow::promote_decayed() {
  const Cost threshold = config_.promote_fraction * decayed_total_;
  // Weakest-first view of the incumbents for displacement, ordered by
  // (decayed_cost, key) so eviction order is deterministic. Without
  // displacement a full heavy tier would freeze on its first occupants
  // and every later hot set would be stranded in the cold tier, where
  // the planner cannot move individual keys — a rotating workload would
  // then run permanently imbalanced.
  std::vector<std::pair<Cost, KeyId>> weakest;
  weakest.reserve(heavy_.size());
  for (const auto& [key, e] : heavy_) {
    weakest.emplace_back(e.decayed_cost, key);
  }
  std::sort(weakest.begin(), weakest.end());
  std::size_t weak_idx = 0;
  for (const MisraGries::Entry& cand :
       decayed_.entries_by_count_at_least(threshold)) {
    if (cand.count <= 0.0) break;
    if (heavy_.find(cand.key) != heavy_.end()) continue;
    if (heavy_.size() >= config_.heavy_capacity) {
      if (weak_idx >= weakest.size()) break;
      // Displace only when the candidate's GUARANTEED decayed weight
      // (count − error: what it provably carried) clears the incumbent's
      // exactly-tracked decayed cost by kDisplaceMargin — the same
      // hysteresis idea as demotion, so two statistically
      // indistinguishable keys never flap across the boundary. Guaranteed
      // weight is not monotone in the candidate order (error varies), so
      // a failed test skips this candidate rather than ending the scan.
      const Cost guaranteed = std::max(0.0, cand.count - cand.error);
      if (guaranteed <= kDisplaceMargin * weakest[weak_idx].first) continue;
      demote_entry(weakest[weak_idx].second);
      ++weak_idx;
      ++last_demotions_;
      ++total_demotions_;
    }
    HeavyEntry e;
    // Backfill the just-closed interval from the GUARANTEED portion of
    // its real observation (count − error ≤ the key's recorded cold
    // mass), not the upper bound: the debit below can then never remove
    // more than the key actually contributed, closing the over-debit
    // caveat the no-decay path documents. A key promoted purely on
    // standing (no observation this interval) backfills zero cost and
    // turns exact from the next interval on.
    const MisraGries::Entry* obs = candidates_.find(cand.key);
    const Cost observed = obs ? std::max(0.0, obs->count - obs->error) : 0.0;
    e.last_cost = observed;
    e.window_state = state_window_.estimate(cand.key);
    e.ring.reset(window_, e.window_state);
    e.decayed_cost = cand.count;
    e.dest = (obs && obs->dest != kNilInstance) ? obs->dest : cand.dest;
    debit_backfill(e);
    ++last_promotions_;
    ++total_promotions_;
    heavy_.emplace(cand.key, std::move(e));
  }
}

void SketchStatsWindow::roll() {
  close_cold_interval();
  Cost heavy_cost_closed = 0.0;
  last_promotions_ = 0;
  last_demotions_ = 0;
  roll_heavy_entries(heavy_cost_closed);
  if (config_.decay) {
    // Decayed tracking: fold the closed interval's candidates into the
    // β-decayed union, demote heavy keys whose decayed standing has
    // collapsed (freeing capacity first), then promote against the
    // decayed threshold. candidates_ stays alive through promotion so
    // the backfill can read the closed interval's real observations.
    decay_candidates(cold_cost_last_ + heavy_cost_closed);
    demote_decayed();
    promote_decayed();
    candidates_.clear();
    truncate_decayed();
  } else {
    promote_candidates(cold_cost_last_ + heavy_cost_closed);
  }
  ++closed_;
}

Cost SketchStatsWindow::last_cost_of(KeyId key) const {
  if (const auto it = heavy_.find(key); it != heavy_.end()) {
    return it->second.last_cost;
  }
  return cost_last_.estimate(key);
}

Bytes SketchStatsWindow::windowed_state_of(KeyId key) const {
  if (const auto it = heavy_.find(key); it != heavy_.end()) {
    return it->second.window_state;
  }
  return state_window_.estimate(key);
}

Bytes SketchStatsWindow::total_windowed_state() const {
  Bytes total = cold_state_window_;
  for (const auto& [key, e] : heavy_) total += e.window_state;
  return total;
}

void SketchStatsWindow::synthesize_dense(std::vector<Cost>& cost,
                                         std::vector<Bytes>& state) const {
  cost.assign(num_keys_, 0.0);
  state.assign(num_keys_, 0.0);

  std::vector<char> is_heavy_key(num_keys_, 0);
  for (const auto& [key, e] : heavy_) {
    if (key < num_keys_) is_heavy_key[static_cast<std::size_t>(key)] = 1;
  }

  // Pass 1: raw upper-bound estimates for the cold tail.
  double raw_cost_sum = 0.0;
  double raw_state_sum = 0.0;
  for (std::size_t k = 0; k < num_keys_; ++k) {
    if (is_heavy_key[k]) continue;
    const auto key = static_cast<KeyId>(k);
    cost[k] = cost_last_.estimate(key);
    state[k] = state_window_.estimate(key);
    raw_cost_sum += cost[k];
    raw_state_sum += state[k];
  }

  // Pass 2: normalize the cold tail so its mass equals the exactly-known
  // cold aggregate (collision noise inflates the raw sum; scaling keeps
  // the planner's view of total load and total state truthful).
  const double cost_scale =
      raw_cost_sum > 0.0 ? cold_cost_last_ / raw_cost_sum : 0.0;
  const double state_scale =
      raw_state_sum > 0.0 ? cold_state_window_ / raw_state_sum : 0.0;
  for (std::size_t k = 0; k < num_keys_; ++k) {
    if (is_heavy_key[k]) continue;
    cost[k] *= cost_scale;
    state[k] *= state_scale;
  }

  // Pass 3: exact values for the hot tier.
  for (const auto& [key, e] : heavy_) {
    if (key >= num_keys_) continue;
    cost[static_cast<std::size_t>(key)] = e.last_cost;
    state[static_cast<std::size_t>(key)] = e.window_state;
  }
}

void SketchStatsWindow::synthesize_compact(InstanceId num_instances,
                                           std::vector<KeyId>& keys,
                                           std::vector<Cost>& cost,
                                           std::vector<Bytes>& state,
                                           std::vector<Cost>& cold_cost,
                                           std::vector<Bytes>& cold_state) const {
  SKW_EXPECTS(num_instances > 0);
  keys = heavy_keys();
  cost.resize(keys.size());
  state.resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const HeavyEntry& e = heavy_.find(keys[i])->second;
    cost[i] = e.last_cost;
    state[i] = e.window_state;
  }

  const auto nd = static_cast<std::size_t>(num_instances);
  cold_cost.assign(nd, 0.0);
  cold_state.assign(nd, 0.0);
  for (std::size_t slot = 1; slot < cold_cost_last_d_.size(); ++slot) {
    const std::size_t d = slot - 1;
    SKW_EXPECTS(d < nd);
    cold_cost[d] = cold_cost_last_d_[slot];
    cold_state[d] = cold_state_window_d_[slot];
  }
  // Mass recorded without a destination (slot 0) cannot be attributed to
  // one instance; spread it evenly so the totals — and with them L̄ and
  // Lmax — stay exact. Production record paths always attribute, so this
  // is normally a no-op.
  if (!cold_cost_last_d_.empty()) {
    const Cost c_share = cold_cost_last_d_[0] / static_cast<Cost>(nd);
    const Bytes s_share = cold_state_window_d_[0] / static_cast<Bytes>(nd);
    if (c_share > 0.0 || s_share > 0.0) {
      for (std::size_t d = 0; d < nd; ++d) {
        cold_cost[d] += c_share;
        cold_state[d] += s_share;
      }
    }
  }
}

std::size_t SketchStatsWindow::memory_bytes() const {
  constexpr std::size_t kNodeOverhead = 2 * sizeof(void*);
  // Per heavy key: its map node and its ring's one w-slot allocation.
  std::size_t heavy_bytes =
      heavy_.size() *
          (sizeof(std::pair<const KeyId, HeavyEntry>) + kNodeOverhead +
           static_cast<std::size_t>(window_) * sizeof(Bytes)) +
      heavy_.bucket_count() * sizeof(void*);
  std::size_t sketch_bytes = cost_cur_.memory_bytes() +
                             cost_last_.memory_bytes() +
                             state_cur_.memory_bytes() +
                             state_window_.memory_bytes();
  for (const auto& s : state_ring_) sketch_bytes += s.memory_bytes();
  std::size_t cold_dest_bytes =
      (cold_cost_cur_d_.capacity() + cold_cost_last_d_.capacity()) *
          sizeof(Cost) +
      (cold_state_cur_d_.capacity() + cold_state_window_d_.capacity()) *
          sizeof(Bytes);
  for (const auto& v : cold_state_ring_d_) {
    cold_dest_bytes += sizeof(v) + v.capacity() * sizeof(Bytes);
  }
  return sizeof(*this) + heavy_bytes + sketch_bytes +
         candidates_.memory_bytes() + decayed_.memory_bytes() +
         cold_state_ring_.size() * sizeof(Bytes) + cold_dest_bytes;
}

}  // namespace skewless
