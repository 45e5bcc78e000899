#include "engine/threaded_engine.h"

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
  slabs_.reserve(n);
  pending_batches_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    queues_.push_back(
        std::make_unique<BoundedMpmcQueue<WorkerMsg>>(kQueueBatches));
    stores_.push_back(std::make_unique<StateStore>());
    auto pair = std::make_unique<SlabPair>();
    for (EpochBuffer& buf : pair->bufs) {
      if (sketch_stats_ != nullptr) {
        // Built against the provider's own config so the Count-Min
        // families match cell-for-cell.
        buf.slab = std::make_unique<WorkerSketchSlab>(sketch_stats_->config());
      } else {
        // The replay walks each map in its iteration order, which
        // depends on its bucket history, and sums the realized
        // per-worker cost in that order. clear() keeps the buckets, so
        // steady state allocates nothing.
        buf.per_key.reserve(256);
      }
    }
    slabs_.push_back(std::move(pair));
  }
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back(
        [this, i] { worker_loop(static_cast<InstanceId>(i)); });
    if (config_.pin_workers &&
        pin_thread_to_slot(workers_.back(), static_cast<unsigned>(i))) {
      ++pinned_workers_;
    }
  }
  merge_thread_ = std::thread([this] { merge_loop(); });
  if (config_.pin_workers) {
    // The slot after the workers: the next free physical core, or the
    // first SMT sibling once the cores are full.
    pin_thread_to_slot(merge_thread_, static_cast<unsigned>(n));
  }
}

void ThreadedEngine::worker_loop(InstanceId id) {
  const auto idx = static_cast<std::size_t>(id);
  StateStore& store = *stores_[idx];
  SlabPair& pair = *slabs_[idx];
  // The worker starts on buffer 0 of its pair and alternates at every
  // seal, clearing each buffer as it switches into it. For a slab that
  // zeroing is the cells' first touch: they were mapped untouched on the
  // driver thread, so their pages commit near this worker, and its seal's
  // release orders the writes before any merge-thread read.
  EpochBuffer* buf = &pair.bufs[0];
  buf->clear();
  CountingCollector collector(total_outputs_);
  BatchFold fold;

  while (true) {
    auto msg = queues_[idx]->pop();
    if (!msg.has_value()) return;  // queue closed

    if (auto* batch = std::get_if<BatchMsg>(&*msg)) {
      fold.run(batch->tuples, steady_now_us() - engine_epoch_us_, store,
               *logic_, collector);
      total_processed_.fetch_add(batch->tuples.size(),
                                 std::memory_order_relaxed);
      // Fold the batch into the active buffer — no lock anywhere, scalars
      // included: the seal publishes the whole buffer.
      if (buf->slab != nullptr) {
        // The batched fold prefetches the cold cells a few entries ahead
        // (see add_batch).
        fold.add_to(*buf->slab);
      } else {
        for (const auto& [key, cb] : fold.per_key()) {
          auto& entry = buf->per_key[key];
          entry.cost += cb.cost;
          entry.state_bytes += cb.state_bytes;
        }
        fold.add_scalars(buf->scalars);
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
    } else if (auto* seal = std::get_if<SealMsg>(&*msg)) {
      // Epoch boundary: stamp (sketch mode) + release-publish the active
      // buffer, swap onto the peer and clear it, and install the closing
      // epoch's post-roll heavy set before any next-epoch batch — the
      // acquire on heavy_epoch_ pairs with the publisher's release,
      // ordering the merge path's heavy_published_ write before ours.
      if (buf->slab != nullptr) buf->slab->set_epoch(seal->epoch);
      pair.sealed_epoch.store(seal->epoch, std::memory_order_release);
      {
        // Pair the store with the merge thread's wait: the empty
        // critical section makes the notify visible to a waiter that
        // checked the predicate just before the store.
        std::lock_guard lock(seal_mu_);
      }
      seal_cv_.notify_all();
      buf = &pair.bufs[seal->epoch & 1];
      // The peer was sealed at the previous epoch. The merge thread last
      // read it in that boundary's collect, which came before the publish
      // this worker acquired at its previous seal (and before the merge
      // completion the driver waited for ahead of pushing this seal), so
      // clearing it here races with no reader. Clearing on this side
      // keeps the chore off the merge thread's boundary path.
      buf->clear();
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
      if (buf->slab != nullptr &&
          heavy_epoch_.load(std::memory_order_acquire) >= seal->epoch) {
        buf->slab->set_heavy_keys(heavy_published_);
      }
    } else {
      SKW_ASSERT(std::holds_alternative<StopMsg>(*msg));
      return;
    }
  }
}

void ThreadedEngine::route_tuple(const Tuple& tuple) {
  const InstanceId d = controller_->assignment()(tuple.key);
  auto& batch = pending_batches_[static_cast<std::size_t>(d)];
  batch.push_back(tuple);
  batch.back().emit_micros = steady_now_us() - engine_epoch_us_;
  if (batch.size() >= config_.batch_size) flush_batch(d);
}

void ThreadedEngine::flush_batch(InstanceId d) {
  auto& batch = pending_batches_[static_cast<std::size_t>(d)];
  if (batch.empty()) return;
  BatchMsg msg;
  msg.tuples = std::move(batch);
  batch.clear();
  push(d, std::move(msg));
}

void ThreadedEngine::push(InstanceId d, WorkerMsg msg) {
  const bool ok = queues_[static_cast<std::size_t>(d)]->push(std::move(msg));
  SKW_ASSERT(ok);
}

void ThreadedEngine::flush_batches() {
  for (InstanceId d = 0; d < num_workers_; ++d) flush_batch(d);
}

bool ThreadedEngine::collect(std::uint64_t epoch, SlabTally& tally) {
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
    if (pair.sealed_epoch.load(std::memory_order_acquire) < epoch) {
      return false;
    }
    const EpochBuffer& buf = pair.bufs[(epoch - 1) & 1];
    // The worker's active peer cannot be measured while it accumulates;
    // the sealed buffer as its worker will clear it stands in for the
    // peer, so the double-buffer footprint is still accounted. The worker
    // clears it at its next seal; the merge thread only reads it.
    if (buf.slab != nullptr) {
      const WorkerSketchSlab& slab = *buf.slab;
      SKW_ASSERT(slab.epoch() == epoch);
      tally.absorb(*sketch_stats_, slab, w);
      // A cleared slab keeps its cells and hot maps but not its
      // candidate tracker's table, so the stand-in counts the peer's
      // fixed footprint, not its candidates.
      tally.memory_bytes += slab.cleared_memory_bytes();
    } else {
      tally.replay(controller_->stats(), buf.per_key, buf.scalars, w);
      // clear() keeps the bucket array, which stands in for the peer's.
      tally.memory_bytes += buf.per_key.bucket_count() * sizeof(void*);
    }
  }
  return true;
}

void ThreadedEngine::merge_loop() {
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
    // The whole boundary runs here, off the driver's path: the roll and
    // plan see the fully-merged epoch, and the publish resumes the sealed
    // workers before the migration pushes any message they must reach.
    if (!close_boundary(*controller_, *this, epoch, *report)) return;
    {
      std::lock_guard lock(merge_mu_);
      merge_completed_ = epoch;
    }
    merge_cv_.notify_all();
    ++epoch;
  }
}

bool ThreadedEngine::publish(std::uint64_t epoch, std::vector<KeyId> heavy) {
  heavy_published_ = std::move(heavy);
  heavy_epoch_.store(epoch, std::memory_order_release);
  {
    std::lock_guard lock(heavy_mu_);
  }
  heavy_cv_.notify_all();
  return true;
}

bool ThreadedEngine::migrate(const RebalancePlan& plan,
                             IntervalReport& /*report*/) {
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
    push(d, ExtractMsg{std::move(keys)});
  }

  // Collect the extracted states (workers reach the Extract message after
  // finishing every tuple routed before the migration — FIFO ordering),
  // grouped by the post-plan assignment: a key's new owner.
  std::vector<std::vector<std::pair<KeyId, std::unique_ptr<KeyState>>>>
      by_dest(static_cast<std::size_t>(num_workers_));
  for (std::size_t i = 0; i < expected; ++i) {
    auto extracted = migration_mailbox_.pop();
    SKW_ASSERT(extracted.has_value());
    if (extracted->state == nullptr) continue;  // key had no state yet
    const InstanceId to = controller_->assignment()(extracted->key);
    by_dest[static_cast<std::size_t>(to)].emplace_back(
        extracted->key, std::move(extracted->state));
  }

  // Install at the destinations; tuples routed after the boundary sit
  // behind the Install message in the destination queue.
  for (InstanceId d = 0; d < num_workers_; ++d) {
    auto& states = by_dest[static_cast<std::size_t>(d)];
    if (states.empty()) continue;
    push(d, InstallMsg{std::move(states)});
  }
  return true;
}

IntervalReport ThreadedEngine::ingest(const std::vector<Tuple>& tuples) {
  SKW_EXPECTS(!stopped_);
  SKW_EXPECTS(open_boundary_epoch_ == 0);  // previous boundary finished
  IntervalReport report;
  report.interval = interval_;
  WallTimer timer;
  for (const Tuple& t : tuples) route_tuple(t);
  report.emitted = tuples.size();
  flush_batches();
  total_emitted_ += report.emitted;
  report.wall_ms = timer.elapsed_millis();
  return report;
}

void ThreadedEngine::begin_boundary(IntervalReport& report) {
  WallTimer timer;
  // Seal the epoch: one lightweight message per worker (FIFO puts it
  // behind every batch of the closing interval), then hand the epoch and
  // the open report to the merge thread. Ingestion is free to continue
  // immediately — next-interval batches queue behind the seals and land
  // in the workers' swapped-in buffers.
  const auto epoch = static_cast<std::uint64_t>(interval_) + 1;
  open_boundary_epoch_ = epoch;
  for (auto& queue : queues_) {
    // force_push: the seal is a control message — blocking behind a full
    // data queue here would BE the boundary stall this protocol removes
    // (the driver runs ahead of the workers, so the queues are routinely
    // at capacity when the interval closes).
    const bool ok = queue->force_push(WorkerMsg(SealMsg{epoch}));
    SKW_ASSERT(ok);
  }
  {
    std::lock_guard lock(merge_mu_);
    merge_requested_ = epoch;
    merge_report_ = &report;
  }
  merge_cv_.notify_all();
  open_boundary_stall_ms_ = timer.elapsed_millis();
}

void ThreadedEngine::finish_boundary(IntervalReport& report) {
  WallTimer timer;
  // The merge thread runs the whole boundary into `report`, migration
  // included.
  {
    std::unique_lock lock(merge_mu_);
    merge_cv_.wait(lock,
                   [&] { return merge_completed_ >= open_boundary_epoch_; });
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
    // tuples while the merge thread absorbs, rolls, plans and migrates
    // this interval's boundary. The tuple source keeps flowing through
    // the boundary — the wall/stall accounting in begin/finish
    // deliberately excludes this segment, because the driver is doing
    // next-interval source work, not waiting.
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
