#include "engine/threaded_engine.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"
#include "common/clock.h"
#include "common/cpu_topology.h"
#include "common/log.h"
#include "common/rng.h"
#include "sketch/sketch_stats_window.h"

#if defined(__linux__) && defined(_GNU_SOURCE)
#include <pthread.h>
#include <sched.h>
#define SKEWLESS_HAS_THREAD_AFFINITY 1
#endif

namespace skewless {
namespace {

/// Batches a worker queue holds before the driver blocks (backpressure);
/// the header's "Queue bound" note gives the reason for 8.
constexpr std::size_t kQueueBatches = 8;

/// Worker-side collector: counts emissions (downstream wiring is handled
/// by pipelines at a higher level; the single-operator engine sinks them).
class CountingCollector final : public Collector {
 public:
  explicit CountingCollector(std::atomic<std::uint64_t>& counter)
      : counter_(counter) {}
  void emit(const Tuple& /*tuple*/) override {
    counter_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t>& counter_;
};

/// Pins `thread` to the `slot`-th CPU of the topology-aware pin order:
/// one CPU per distinct physical core first, SMT siblings only after
/// every core already carries a worker — two workers sharing a core's
/// execution ports is strictly worse than one per core while cores
/// remain free. Returns whether the pin took effect.
bool pin_thread_to_slot(std::thread& thread, unsigned slot) {
#if defined(SKEWLESS_HAS_THREAD_AFFINITY)
  const std::vector<int>& order = cpu_topology().pin_order;
  if (order.empty()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(order[slot % order.size()]), &set);
  return pthread_setaffinity_np(thread.native_handle(), sizeof(set), &set) ==
         0;
#else
  (void)thread;
  (void)slot;
  return false;
#endif
}

}  // namespace

ThreadedEngine::ThreadedEngine(ThreadedConfig config,
                               std::shared_ptr<OperatorLogic> logic,
                               std::unique_ptr<Controller> controller)
    : config_(config),
      logic_(std::move(logic)),
      controller_(std::move(controller)),
      num_workers_(controller_->num_instances()),
      migration_mailbox_(1 << 20) {
  SKW_EXPECTS(logic_ != nullptr);
  sketch_stats_ = controller_->slab_sink();
  start_workers();
}

ThreadedEngine::~ThreadedEngine() { shutdown(); }

void ThreadedEngine::start_workers() {
  SKW_EXPECTS(num_workers_ > 0);
  engine_epoch_us_ = steady_now_us();
  const auto n = static_cast<std::size_t>(num_workers_);
  queues_.reserve(n);
  stores_.reserve(n);
  stats_.reserve(n);
  pending_batches_.resize(n);
  drain_scratch_.resize(n);
  pushed_msgs_.resize(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    queues_.push_back(
        std::make_unique<BoundedMpmcQueue<WorkerMsg>>(kQueueBatches));
    stores_.push_back(std::make_unique<StateStore>());
    stats_.push_back(std::make_unique<WorkerStats>());
    stats_.back()->per_key.reserve(256);
    drain_scratch_[i].reserve(256);
  }
  if (sketch_stats_ != nullptr) {
    // Sketch mode: thread-local slabs per worker, built against the
    // provider's own config so the Count-Min families match cell-for-cell.
    // The second buffer of each pair exists only under the asynchronous
    // merge — the inline path never seals, so it never swaps.
    slabs_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto pair = std::make_unique<SlabPair>();
      pair->bufs[0] =
          std::make_unique<WorkerSketchSlab>(sketch_stats_->config());
      if (config_.async_merge) {
        pair->bufs[1] =
            std::make_unique<WorkerSketchSlab>(sketch_stats_->config());
      }
      slabs_.push_back(std::move(pair));
    }
  }
#if defined(SKEWLESS_HAS_THREAD_AFFINITY)
  // Where the driver runs now — the merge thread binds its allocations
  // near this CPU's NUMA node, since the window it merges into was
  // allocated by the driver.
  driver_cpu_ = sched_getcpu();
#endif
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back(
        [this, i] { worker_loop(static_cast<InstanceId>(i)); });
    if (config_.pin_workers &&
        pin_thread_to_slot(workers_.back(), static_cast<unsigned>(i))) {
      ++pinned_workers_;
    }
  }
  if (async_merge_on()) {
    merge_thread_ = std::thread([this] { merge_loop(); });
    if (config_.pin_workers) {
      // The slot after the workers: the next free physical core, or the
      // first SMT sibling once the cores are full.
      pin_thread_to_slot(merge_thread_, static_cast<unsigned>(n));
    }
  }
}

void ThreadedEngine::worker_loop(InstanceId id) {
  const auto idx = static_cast<std::size_t>(id);
  StateStore& store = *stores_[idx];
  WorkerStats& stats = *stats_[idx];
  // Sketch mode: the worker starts on buffer 0 of its pair and (async
  // merge only) alternates at every seal.
  WorkerSketchSlab* slab =
      slabs_.empty() ? nullptr : slabs_[idx]->bufs[0].get();
  // First-touch NUMA placement: the slab buffers were mapped (untouched)
  // on the driver thread; this worker commits each buffer's pages the
  // first time it is about to write it, so they land on the worker's
  // node. Done INSIDE message processing — never at loop top — so the
  // done_msgs release/acquire protocol orders the prefault writes before
  // any driver/merge read of the cells.
  bool prefaulted[2] = {false, false};
  std::size_t active_buf = 0;
  CountingCollector collector(total_outputs_);
  BatchFold fold;

  while (true) {
    auto msg = queues_[idx]->pop();
    if (!msg.has_value()) return;  // queue closed
    // Publish completion only after every effect of the message is done
    // — the release pairs with the driver's acquire in its quiescence
    // wait, ordering all slab/state writes before any driver read.
    struct DoneGuard {
      std::atomic<std::uint64_t>& counter;
      ~DoneGuard() { counter.fetch_add(1, std::memory_order_release); }
    } done_guard{stats.done_msgs};

    if (auto* batch = std::get_if<BatchMsg>(&*msg)) {
      fold.run(batch->tuples, steady_now_us() - engine_epoch_us_, store,
               *logic_, collector);
      total_processed_.fetch_add(batch->tuples.size(),
                                 std::memory_order_relaxed);
      if (slab != nullptr) {
        // Sketch mode: fold the batch into this worker's thread-local
        // slab — no lock anywhere, scalars included (they ride the slab
        // and are published by the seal / quiescence protocol). The
        // batched fold vector-hashes all cold probes in one call and
        // prefetches a few entries ahead (see add_batch).
        if (!prefaulted[active_buf]) {
          slab->prefault();
          prefaulted[active_buf] = true;
        }
        fold.add_to(*slab);
      } else {
        // Exact mode — one lock per batch: the merge and every counter
        // update share a single critical section.
        std::lock_guard lock(stats.mu);
        for (const auto& [key, cb] : fold.per_key()) {
          auto& entry = stats.per_key[key];
          entry.cost += cb.cost;
          entry.state_bytes += cb.state_bytes;
          entry.frequency += cb.frequency;
        }
        fold.add_scalars(stats.scalars);
      }
    } else if (auto* extract = std::get_if<ExtractMsg>(&*msg)) {
      for (const KeyId key : extract->keys) {
        ExtractedState out;
        out.key = key;
        out.from = id;
        out.state = store.extract(key);
        const bool pushed = migration_mailbox_.push(std::move(out));
        SKW_ASSERT(pushed);
      }
    } else if (auto* install = std::get_if<InstallMsg>(&*msg)) {
      for (auto& [key, state] : install->states) {
        store.install(key, std::move(state));
      }
    } else if (auto* expire = std::get_if<ExpireMsg>(&*msg)) {
      store.expire_before(expire->watermark);
    } else if (auto* seal = std::get_if<SealMsg>(&*msg)) {
      // Epoch boundary (async merge): stamp + release-publish the active
      // buffer, swap onto the peer (cleared by the merge path before the
      // previous epoch's heavy set was published, which we waited for),
      // and install the closing epoch's post-roll heavy set before any
      // next-epoch batch — the acquire on heavy_epoch_ pairs with the
      // publisher's release, ordering the merge path's writes (peer
      // clear, heavy_published_) before ours.
      SKW_ASSERT(slab != nullptr);
      SlabPair& pair = *slabs_[idx];
      slab->set_epoch(seal->epoch);
      pair.sealed_epoch.store(seal->epoch, std::memory_order_release);
      {
        // Pair the store with the merge thread's wait: the empty
        // critical section makes the notify visible to a waiter that
        // checked the predicate just before the store.
        std::lock_guard lock(seal_mu_);
      }
      seal_cv_.notify_all();
      active_buf = static_cast<std::size_t>(seal->epoch & 1);
      slab = pair.bufs[active_buf].get();
      if (heavy_epoch_.load(std::memory_order_acquire) < seal->epoch) {
        // Sleep (never spin — the merge path needs the cycles) until the
        // closing epoch's roll publishes the new heavy set.
        std::unique_lock lock(heavy_mu_);
        heavy_cv_.wait(lock, [&] {
          return heavy_epoch_.load(std::memory_order_acquire) >=
                     seal->epoch ||
                 stopping_.load(std::memory_order_acquire);
        });
      }
      if (heavy_epoch_.load(std::memory_order_acquire) >= seal->epoch) {
        slab->set_heavy_keys(heavy_published_);
      }
    } else {
      SKW_ASSERT(std::holds_alternative<StopMsg>(*msg));
      return;
    }
  }
}

void ThreadedEngine::route_chunk(const Tuple* tuples, std::size_t n) {
  // One batched F(k) evaluation per chunk: the routing-table lookups run
  // tight, and the table misses' ring hashes go through the vectorized
  // hash kernel in a single pass (AssignmentFunction::route_batch /
  // ConsistentHashRing::owner_batch) instead of one scalar mix64 per
  // tuple on the expand loop's critical path.
  route_keys_.resize(n);
  route_dests_.resize(n);
  for (std::size_t j = 0; j < n; ++j) route_keys_[j] = tuples[j].key;
  controller_->assignment().route_batch(route_keys_.data(), n,
                                        route_dests_.data());
  for (std::size_t j = 0; j < n; ++j) {
    const InstanceId d = route_dests_[j];
    auto& batch = pending_batches_[static_cast<std::size_t>(d)];
    batch.push_back(tuples[j]);
    batch.back().emit_micros = steady_now_us() - engine_epoch_us_;
    if (batch.size() >= config_.batch_size) flush_batch(d);
  }
}

void ThreadedEngine::flush_batch(InstanceId d) {
  auto& batch = pending_batches_[static_cast<std::size_t>(d)];
  if (batch.empty()) return;
  BatchMsg msg;
  msg.tuples = std::move(batch);
  batch.clear();
  push_counted(d, std::move(msg));
}

void ThreadedEngine::push_counted(InstanceId d, WorkerMsg msg) {
  const auto di = static_cast<std::size_t>(d);
  // A dropped-but-counted message would deadlock the quiescence wait;
  // push only fails after close(), which cannot happen while running.
  const bool ok = queues_[di]->push(std::move(msg));
  SKW_ASSERT(ok);
  ++pushed_msgs_[di];
}

void ThreadedEngine::flush_batches() {
  for (InstanceId d = 0; d < num_workers_; ++d) flush_batch(d);
}

void ThreadedEngine::drain_worker_stats(SlabTally& tally) {
  for (std::size_t w = 0; w < stats_.size(); ++w) {
    WorkerStats& ws = *stats_[w];
    if (sketch_stats_ != nullptr) {
      // The quiescence wait in finish_boundary ordered all slab writes
      // before this read; no lock is needed (the scalars ride the slab).
      WorkerSketchSlab& slab = *slabs_[w]->bufs[0];
      tally.absorb(*sketch_stats_, slab, w);
      slab.clear();
      continue;
    }
    auto& drained = drain_scratch_[w];
    {
      // Single short critical section per worker: grab every scalar
      // counter and swap out the per-key map, handing back last
      // interval's cleared, pre-bucketed map.
      std::lock_guard lock(ws.mu);
      drained.swap(ws.per_key);
      tally.add(ws.scalars);
      ws.scalars = {};
    }
    // Exact mode: account the worker-side map at its fullest (nodes are
    // freed by the clear below), then replay it into the provider.
    constexpr std::size_t kNodeOverhead = 2 * sizeof(void*);
    tally.memory_bytes +=
        drained.size() * (sizeof(KeyAggMap::value_type) + kNodeOverhead) +
        (drained.bucket_count() + ws.per_key.bucket_count()) * sizeof(void*);
    StatsProvider& provider = controller_->stats();
    WallTimer merge_timer;
    for (const auto& [key, cb] : drained) {
      tally.worker_cost[w] += cb.cost;
      provider.record(key, cb.cost, cb.state_bytes, cb.frequency,
                      static_cast<InstanceId>(w));
    }
    tally.merge_ms += merge_timer.elapsed_millis();
    // clear() keeps the bucket array; the next swap hands it back to the
    // worker so steady-state intervals do no hash-table allocation.
    drained.clear();
  }
}

void ThreadedEngine::merge_sealed_slabs(std::uint64_t epoch,
                                        SlabTally& tally) {
  for (std::size_t w = 0; w < slabs_.size(); ++w) {
    SlabPair& pair = *slabs_[w];
    // The seal is the last message of the epoch in worker w's FIFO, so
    // sealed_epoch reaching `epoch` (acquire, pairing with the worker's
    // release) is per-worker quiescence: every batch of the epoch is
    // folded into the sealed buffer before this read. Sleep on the seal
    // signal rather than spinning — on a busy machine the spin would
    // steal exactly the cycles the straggler worker needs to drain.
    if (pair.sealed_epoch.load(std::memory_order_acquire) < epoch) {
      std::unique_lock lock(seal_mu_);
      seal_cv_.wait(lock, [&] {
        return pair.sealed_epoch.load(std::memory_order_acquire) >= epoch ||
               stopping_.load(std::memory_order_acquire);
      });
    }
    if (pair.sealed_epoch.load(std::memory_order_acquire) < epoch) return;
    WorkerSketchSlab& slab = *pair.bufs[(epoch - 1) & 1];
    SKW_ASSERT(slab.epoch() == epoch);
    tally.absorb(*sketch_stats_, slab, w);
    slab.clear();
    // The worker's active peer cannot be measured while it accumulates;
    // the just-cleared buffer stands in for it so the double-buffer
    // footprint is still accounted. A cleared slab keeps its cells and
    // hot maps but not its candidate tracker's table, so the stand-in
    // counts the peer's fixed footprint, not its candidates.
    tally.memory_bytes += slab.memory_bytes();
  }
}

void ThreadedEngine::merge_loop() {
  // Prefer allocations near the driver's NUMA node: the window this
  // thread absorbs into (and everything it grows) was allocated by the
  // driver, so keeping the merge path's memory on that node avoids
  // remote-node traffic on every absorb. Graceful no-op without libnuma
  // or on single-node hosts.
  bind_current_thread_to_node_of_cpu(driver_cpu_);
  std::uint64_t epoch = 1;
  while (true) {
    IntervalReport* report = nullptr;
    {
      std::unique_lock lock(merge_mu_);
      merge_cv_.wait(lock,
                     [&] { return merge_requested_ >= epoch || merge_stop_; });
      if (merge_requested_ < epoch) return;  // stopping, nothing pending
      report = merge_report_;
    }
    SlabTally tally(slabs_.size());
    merge_sealed_slabs(epoch, tally);
    if (stopping_.load(std::memory_order_acquire)) return;
    // The whole statistics close runs here, off the driver's path: roll
    // and plan over the fully-merged epoch, then publish the heavy set,
    // which resumes the sealed workers before the driver pushes any
    // migration message they must reach.
    std::optional<RebalancePlan> plan =
        close_statistics(*controller_, tally, *report);
    publish_heavy_set(epoch);
    {
      std::lock_guard lock(merge_mu_);
      boundary_plan_ = std::move(plan);
      merge_completed_ = epoch;
    }
    merge_cv_.notify_all();
    ++epoch;
  }
}

void ThreadedEngine::refresh_worker_heavy_sets() {
  if (sketch_stats_ == nullptr) return;
  const std::vector<KeyId> keys = sketch_stats_->heavy_keys();
  for (auto& pair : slabs_) pair->bufs[0]->set_heavy_keys(keys);
}

void ThreadedEngine::publish_heavy_set(std::uint64_t epoch) {
  heavy_published_ = sketch_stats_->heavy_keys();
  heavy_epoch_.store(epoch, std::memory_order_release);
  {
    std::lock_guard lock(heavy_mu_);
  }
  heavy_cv_.notify_all();
}

void ThreadedEngine::execute_migration(const RebalancePlan& plan) {
  // Group the moves by source worker and extract.
  std::vector<std::vector<KeyId>> by_source(
      static_cast<std::size_t>(num_workers_));
  for (const KeyMove& mv : plan.moves) {
    by_source[static_cast<std::size_t>(mv.from)].push_back(mv.key);
  }
  std::size_t expected = 0;
  for (InstanceId d = 0; d < num_workers_; ++d) {
    auto& keys = by_source[static_cast<std::size_t>(d)];
    if (keys.empty()) continue;
    expected += keys.size();
    push_counted(d, ExtractMsg{std::move(keys)});
  }

  // Collect the extracted states (workers reach the Extract message after
  // finishing every tuple routed before the migration — FIFO ordering).
  std::unordered_map<KeyId, InstanceId> dest_of;
  dest_of.reserve(plan.moves.size());
  for (const KeyMove& mv : plan.moves) dest_of.emplace(mv.key, mv.to);

  std::vector<std::vector<std::pair<KeyId, std::unique_ptr<KeyState>>>>
      by_dest(static_cast<std::size_t>(num_workers_));
  for (std::size_t i = 0; i < expected; ++i) {
    auto extracted = migration_mailbox_.pop();
    SKW_ASSERT(extracted.has_value());
    if (extracted->state == nullptr) continue;  // key had no state yet
    const InstanceId to = dest_of.at(extracted->key);
    by_dest[static_cast<std::size_t>(to)].emplace_back(
        extracted->key, std::move(extracted->state));
  }

  // Install at the destinations; tuples routed after this call sit behind
  // the Install message in the destination queue.
  for (InstanceId d = 0; d < num_workers_; ++d) {
    auto& states = by_dest[static_cast<std::size_t>(d)];
    if (states.empty()) continue;
    push_counted(d, InstallMsg{std::move(states)});
  }
}

IntervalReport ThreadedEngine::ingest(const std::vector<Tuple>& tuples) {
  SKW_EXPECTS(!stopped_);
  SKW_EXPECTS(open_boundary_epoch_ == 0);  // previous boundary finished
  IntervalReport report;
  report.interval = interval_;
  WallTimer timer;
  constexpr std::size_t kRouteChunk = 1024;
  for (std::size_t base = 0; base < tuples.size(); base += kRouteChunk) {
    route_chunk(tuples.data() + base,
                std::min(kRouteChunk, tuples.size() - base));
  }
  report.emitted = tuples.size();
  flush_batches();
  total_emitted_ += report.emitted;
  report.wall_ms = timer.elapsed_millis();
  return report;
}

void ThreadedEngine::begin_boundary(IntervalReport& report) {
  WallTimer timer;
  if (async_merge_on()) {
    // Seal the epoch: one lightweight message per worker (FIFO puts it
    // behind every batch of the closing interval), then hand the epoch
    // and the open report to the merge thread. Ingestion is free to
    // continue immediately — next-interval batches queue behind the
    // seals and land in the workers' swapped-in buffers.
    const auto epoch = static_cast<std::uint64_t>(interval_) + 1;
    open_boundary_epoch_ = epoch;
    for (InstanceId d = 0; d < num_workers_; ++d) {
      const auto di = static_cast<std::size_t>(d);
      // force_push: the seal is a control message — blocking behind a
      // full data queue here would BE the boundary stall this protocol
      // removes (the driver runs ahead of the workers, so the queues are
      // routinely at capacity when the interval closes).
      const bool ok = queues_[di]->force_push(WorkerMsg(SealMsg{epoch}));
      SKW_ASSERT(ok);
      ++pushed_msgs_[di];
    }
    {
      std::lock_guard lock(merge_mu_);
      merge_requested_ = epoch;
      merge_report_ = &report;
    }
    merge_cv_.notify_all();
  }
  open_boundary_stall_ms_ = timer.elapsed_millis();
}

void ThreadedEngine::finish_boundary(IntervalReport& report) {
  WallTimer timer;
  if (async_merge_on()) {
    // The merge thread closed the statistics into `report` and published
    // the heavy set; only the migration it planned is left.
    std::optional<RebalancePlan> plan;
    {
      std::unique_lock lock(merge_mu_);
      merge_cv_.wait(lock,
                     [&] { return merge_completed_ >= open_boundary_epoch_; });
      plan = std::exchange(boundary_plan_, std::nullopt);
    }
    if (plan) execute_migration(*plan);
  } else {
    // Inline boundary: wait for every pushed message to be fully
    // processed so the interval's statistics are complete before
    // planning. Counting completions instead of polling queue emptiness
    // is what makes this gap-free: a message a worker has popped but not
    // finished keeps done_msgs behind pushed_msgs_.
    for (InstanceId d = 0; d < num_workers_; ++d) {
      const auto di = static_cast<std::size_t>(d);
      while (stats_[di]->done_msgs.load(std::memory_order_acquire) !=
             pushed_msgs_[di]) {
        std::this_thread::yield();
      }
    }
    SlabTally tally(stats_.size());
    drain_worker_stats(tally);
    if (const auto plan = close_statistics(*controller_, tally, report)) {
      execute_migration(*plan);
    }
    // The roll just promoted/demoted: re-broadcast the heavy set so next
    // interval's hot keys accumulate exactly in the worker slabs.
    // Workers only read the heavy set while processing a Batch message,
    // and the next batch is pushed (queue-synchronized) after this
    // write.
    refresh_worker_heavy_sets();
  }
  if (config_.expire_lag_intervals > 0) {
    const Micros watermark =
        (interval_ + 1 - config_.expire_lag_intervals) * 1'000'000;
    for (InstanceId d = 0; d < num_workers_; ++d) {
      push_counted(d, ExpireMsg{watermark});
    }
  }
  close_interval(report, report.wall_ms,
                 open_boundary_stall_ms_ + timer.elapsed_millis(),
                 *controller_);
  open_boundary_epoch_ = 0;
  open_boundary_stall_ms_ = 0.0;
  ++interval_;
}

IntervalReport ThreadedEngine::run_interval(const std::vector<Tuple>& tuples) {
  IntervalReport report = ingest(tuples);
  begin_boundary(report);
  finish_boundary(report);
  return report;
}

std::vector<IntervalReport> ThreadedEngine::run(WorkloadSource& source,
                                                int intervals,
                                                std::uint64_t seed) {
  std::vector<IntervalReport> reports;
  reports.reserve(static_cast<std::size_t>(intervals));
  Xoshiro256 rng(seed);
  std::vector<Tuple> tuples;
  std::vector<Tuple> next;
  if (intervals > 0) expand_interval(source, rng, tuples);
  for (int i = 0; i < intervals; ++i) {
    IntervalReport report = ingest(tuples);
    begin_boundary(report);
    // Overlap window: generate (expand + shuffle) the NEXT interval's
    // tuples while the merge thread absorbs, rolls and plans this
    // interval's sealed slabs. The tuple source keeps flowing through
    // the boundary — the wall/stall accounting in begin/finish
    // deliberately excludes this segment, because the driver is doing
    // next-interval source work, not waiting. Without the async merge
    // this is a plain sequential expansion (begin_boundary was a no-op).
    if (i + 1 < intervals) expand_interval(source, rng, next);
    finish_boundary(report);
    reports.push_back(report);
    std::swap(tuples, next);
    next.clear();
  }
  return reports;
}

void ThreadedEngine::shutdown() {
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);
  // Wake any worker parked at the heavy-set barrier (a worker that
  // checks the predicate later sees stopping_ already set).
  {
    std::lock_guard lock(heavy_mu_);
  }
  heavy_cv_.notify_all();
  flush_batches();
  for (auto& q : queues_) q->push(WorkerMsg(StopMsg{}));
  for (auto& q : queues_) q->close();
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
  if (merge_thread_.joinable()) {
    // Workers are gone; release the merge thread from any seal wait and
    // from its epoch wait.
    {
      std::lock_guard lock(seal_mu_);
    }
    seal_cv_.notify_all();
    {
      std::lock_guard lock(merge_mu_);
      merge_stop_ = true;
    }
    merge_cv_.notify_all();
    merge_thread_.join();
  }
}

std::uint64_t ThreadedEngine::state_checksum() const {
  SKW_EXPECTS(stopped_);
  std::uint64_t acc = 0;
  for (const auto& store : stores_) acc += store->checksum();
  return acc;
}

std::size_t ThreadedEngine::total_state_entries() const {
  SKW_EXPECTS(stopped_);
  std::size_t n = 0;
  for (const auto& store : stores_) n += store->size();
  return n;
}

}  // namespace skewless
