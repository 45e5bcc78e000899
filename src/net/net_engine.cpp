#include "net/net_engine.h"

#include <algorithm>
#include <numeric>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/assert.h"
#include "common/clock.h"
#include "common/log.h"
#include "common/rng.h"
#include "net/worker_main.h"
#include "sketch/sketch_stats_window.h"

namespace skewless {
namespace {

/// Base respawn backoff: recovery attempt i sleeps kRespawnBackoffMs << i
/// milliseconds.
constexpr int kRespawnBackoffMs = 2;
/// Byte budget of each worker's replay buffer (the open epoch's routed
/// batches). Overflow makes a crash in that epoch fatal rather than
/// silently unreplayable.
constexpr std::size_t kReplayMaxBytes = 256u << 20;

std::vector<std::size_t> every_worker(std::size_t n) {
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  return all;
}

}  // namespace

NetEngine::NetEngine(NetConfig config, std::shared_ptr<OperatorLogic> logic,
                     std::unique_ptr<Controller> controller)
    : config_(config),
      logic_(std::move(logic)),
      controller_(std::move(controller)) {
  SKW_EXPECTS(logic_ != nullptr);
  SKW_EXPECTS(controller_ != nullptr);
  sketch_stats_ = controller_->slab_sink();
  // The boundary summary IS the serialized sketch slab; there is no
  // exact-mode wire format (it would be O(|K|) per worker per interval).
  SKW_EXPECTS(sketch_stats_ != nullptr);
  num_workers_ = controller_->num_instances();
  SKW_EXPECTS(num_workers_ > 0);
  engine_epoch_us_ = steady_now_us();
  const auto n = static_cast<std::size_t>(num_workers_);
  pending_batches_.resize(n);
  checkpoints_.resize(n);
  replay_.assign(n, ReplayBuffer(kReplayMaxBytes));
  pending_installs_.resize(n);
  migrated_away_.resize(n);
  owed_install_acks_.assign(n, 0);
  fault_fired_.assign(config_.fault.events.size(), false);
  scratch_slab_ = std::make_unique<WorkerSketchSlab>(sketch_stats_->config());
  spawn_workers();
  if (ok() && !handshake()) {
    SKW_ASSERT(!ok());  // handshake failure went through fail()
  }
}

NetEngine::~NetEngine() { shutdown(); }

bool NetEngine::spawn_one(std::size_t w, std::string& err) {
  int data_fds[2];
  int ctrl_fds[2];
  if (!make_socket_pair(data_fds, err)) return false;
  if (!make_socket_pair(ctrl_fds, err)) {
    ::close(data_fds[0]);
    ::close(data_fds[1]);
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(data_fds[0]);
    ::close(data_fds[1]);
    ::close(ctrl_fds[0]);
    ::close(ctrl_fds[1]);
    err = "fork failed";
    return false;
  }
  if (pid == 0) {
    // Child: keep only this worker's child-side fds. The parent-side fds
    // of every live worker (close() is a no-op on fd -1) were inherited
    // by the fork and must go — a held write end would keep a dead
    // driver's sockets half-open.
    for (Worker& p : workers_) {
      p.data.close();
      p.ctrl.close();
    }
    ::close(data_fds[0]);
    ::close(ctrl_fds[0]);
    NetWorkerOptions options;
    options.worker_id = static_cast<std::uint32_t>(w);
    options.num_workers = static_cast<std::uint32_t>(num_workers_);
    options.fault = config_.fault;
    options.incarnation = workers_[w].incarnation;
    options.heartbeat_interval_ms = config_.heartbeat_interval_ms;
    options.sketch = sketch_stats_->config();
    options.engine_epoch_us = engine_epoch_us_;
    const int rc = run_net_worker(data_fds[1], ctrl_fds[1], options, *logic_);
    // _Exit: the child shares the parent's heap image; running static
    // destructors or flushing duplicated stdio here would corrupt the
    // driver's observable behavior.
    std::_Exit(rc);
  }
  ::close(data_fds[1]);
  ::close(ctrl_fds[1]);
  workers_[w].data = FrameChannel(data_fds[0]);
  workers_[w].ctrl = FrameChannel(ctrl_fds[0]);
  workers_[w].pid = pid;
  workers_[w].credits.reset();  // fresh sockets, fresh counts
  // Crash detection needs every channel operation to be bounded: a send
  // into a dead worker's full buffer must fail, not hang.
  workers_[w].data.set_io_timeout_ms(config_.ctrl_timeout_ms);
  workers_[w].ctrl.set_io_timeout_ms(config_.ctrl_timeout_ms);
  return true;
}

void NetEngine::spawn_workers() {
  const auto n = static_cast<std::size_t>(num_workers_);
  workers_.resize(n);
#if defined(__GLIBC__)
  // Each worker starts as a copy of this process, with every resident
  // page of the heap mapped — free chunks the allocator kept from
  // earlier work included. Hand those back to the OS first so they are
  // not part of every worker's resident set.
  ::malloc_trim(0);
#endif
  for (std::size_t w = 0; w < n; ++w) {
    std::string err;
    if (!spawn_one(w, err)) {
      fail("spawn: " + err);
      return;
    }
  }
}

bool NetEngine::handshake() {
  // Hello round-trip on every ctrl channel: proves each worker is alive
  // and speaks this build's wire version before any data flows. A
  // version-mismatched peer is rejected by the frame decoder on either
  // side with a clear error.
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    std::string err;
    if (!handshake_one(w, err)) {
      fail("handshake with worker " + std::to_string(w) + ": " + err);
      return false;
    }
  }
  return true;
}

bool NetEngine::handshake_one(std::size_t w, std::string& err) {
  HelloPayload hello;
  hello.worker_id = static_cast<std::uint32_t>(w);
  hello.num_workers = static_cast<std::uint32_t>(num_workers_);
  frame_scratch_.clear();
  encode_hello(frame_scratch_, hello);
  if (!workers_[w].ctrl.send(FrameType::kHello, 0, frame_scratch_)) {
    err = "Hello send failed: " + workers_[w].ctrl.last_error();
    return false;
  }
  FrameHeader header;
  const CtrlRecv rc = recv_ctrl_any(w, header, recv_scratch_);
  if (rc != CtrlRecv::kFrame) {
    err = ctrl_failure_reason(w, rc);
    return false;
  }
  ByteReader in(recv_scratch_, ByteReader::Untrusted{});
  HelloPayload echo;
  if (header.type != FrameType::kHello || !decode_hello(in, echo) ||
      echo.worker_id != static_cast<std::uint32_t>(w)) {
    err = std::string("bad Hello echo (") + frame_type_name(header.type) +
          " frame)";
    return false;
  }
  return true;
}

void NetEngine::fail(const std::string& what) {
  if (!error_.empty()) return;  // keep the first cause
  error_ = what;
  SKW_LOG_INFO("net engine failure: %s", error_.c_str());
  for (Worker& worker : workers_) {
    worker.data.close();
    worker.ctrl.close();
    if (worker.pid > 0) {
      ::kill(worker.pid, SIGKILL);
      int status = 0;
      ::waitpid(worker.pid, &status, 0);
      worker.pid = -1;
    }
  }
}

void NetEngine::reap_worker(std::size_t w, const char* why) {
  Worker& wk = workers_[w];
  wire_retired_data_ += wk.data.bytes_sent() + wk.data.bytes_received();
  wire_retired_ctrl_ += wk.ctrl.bytes_sent() + wk.ctrl.bytes_received();
  wk.data.close();
  wk.ctrl.close();
  if (wk.pid > 0) {
    ::kill(wk.pid, SIGKILL);
    int status = 0;
    ::waitpid(wk.pid, &status, 0);
    SKW_LOG_INFO("net worker %zu reaped (%s): %s", w, why,
                 describe_worker_exit(status).c_str());
    wk.pid = -1;
  }
}

bool NetEngine::recover_worker(std::size_t w, const std::string& why) {
  if (!ok()) return false;
  SKW_LOG_INFO("net worker %zu failed (%s): recovering", w, why.c_str());
  WallTimer timer;
  reap_worker(w, why.c_str());
  if (replay_[w].overflowed()) {
    // The open epoch outgrew the replay budget: there is a hole in what
    // we could re-send, and replaying a hole would silently drop mass.
    fail("worker " + std::to_string(w) +
         ": crash with overflowed replay buffer (" + why + ")");
    return false;
  }
  Worker& wk = workers_[w];
  while (true) {
    if (wk.recover_attempts >= config_.respawn_max_attempts) {
      degrade_worker(w);
      return false;
    }
    const int backoff_ms = kRespawnBackoffMs << wk.recover_attempts;
    ++wk.recover_attempts;
    if (backoff_ms > 0) {
      ::usleep(static_cast<useconds_t>(backoff_ms) * 1000);
    }
    ++wk.incarnation;  // one-shot fault events stay disarmed
    std::string err;
    if (!spawn_one(w, err)) continue;
    if (!handshake_one(w, err)) {
      reap_worker(w, "respawn handshake failed");
      continue;
    }
    if (!restore_worker(w)) {
      reap_worker(w, "checkpoint restore failed");
      continue;
    }
    owed_install_acks_[w] = 0;  // the restore re-delivered any pendings
    ++recoveries_;
    total_recovery_ms_ += timer.elapsed_millis();
    SKW_LOG_INFO("net worker %zu recovered (incarnation %u, attempt %d)", w,
                 wk.incarnation, wk.recover_attempts);
    return true;
  }
}

CheckpointPayload NetEngine::effective_checkpoint(std::size_t w) const {
  CheckpointPayload eff;
  if (!checkpoints_[w].payload.empty()) {
    // check_checkpoint accepted these bytes on receipt, so the trusted
    // (aborting) reader can only succeed.
    ByteReader in(checkpoints_[w].payload);
    const bool decoded = decode_checkpoint(in, eff);
    SKW_ASSERT(decoded && in.exhausted());
  }
  if (!migrated_away_[w].empty()) {
    std::erase_if(eff.states, [&](const WireKeyState& s) {
      return migrated_away_[w].count(s.key) > 0;
    });
  }
  for (const PendingInstall& p : pending_installs_[w]) {
    eff.states.push_back(p.state);
  }
  return eff;
}

bool NetEngine::restore_worker(std::size_t w) {
  Worker& wk = workers_[w];
  const CheckpointPayload eff = effective_checkpoint(w);
  frame_scratch_.clear();
  encode_checkpoint(frame_scratch_, eff);
  if (!wk.ctrl.send(FrameType::kRestore, eff.epoch, frame_scratch_)) {
    return false;
  }
  FrameHeader header;
  if (recv_ctrl_any(w, header, recv_scratch_) != CtrlRecv::kFrame) {
    return false;
  }
  if (header.type != FrameType::kRestoreAck) return false;
  // Re-deliver the control context the checkpoint predates: the expiry
  // watermark and heavy set in force when the open epoch began. Expire
  // is idempotent and the checkpointed blobs predate any expiry the
  // original worker applied after its seal, so re-applying it restores
  // the original post-install window content.
  if (expire_sent_) {
    frame_scratch_.clear();
    encode_expire(frame_scratch_, last_expire_watermark_);
    if (!wk.ctrl.send(FrameType::kExpire, 0, frame_scratch_)) return false;
  }
  if (heavy_broadcast_done_) {
    frame_scratch_.clear();
    encode_key_list(frame_scratch_, last_heavy_keys_);
    if (!wk.ctrl.send(FrameType::kHeavySet, 0, frame_scratch_)) return false;
  }
  // Verbatim replay of the open epoch's recorded batches: the same bytes
  // in the same order, so the restored worker's fold — local-map rehash
  // trajectory included — is bit-identical to the lost worker's. The
  // replay goes through the credit window like any batch, so the new
  // worker's credits never pile up unread; a failure here is the retry
  // loop's to handle.
  for (const ReplayBuffer::RecordedBatch& batch : replay_[w].batches()) {
    const std::string why =
        send_batch(w, batch.epoch, batch.payload.data(), batch.payload.size());
    if (!why.empty()) {
      SKW_LOG_INFO("net worker %zu replay failed: %s", w, why.c_str());
      return false;
    }
  }
  if (wk.seal_sent) {
    // The crash happened between the seal broadcast and this worker's
    // summary: re-arm the seal so the replayed epoch closes again.
    frame_scratch_.clear();
    encode_seal(frame_scratch_, SealPayload{wk.batches_sent});
    if (!wk.ctrl.send(FrameType::kSeal,
                      static_cast<std::uint64_t>(interval_) + 1,
                      frame_scratch_)) {
      return false;
    }
  }
  return true;
}

void NetEngine::degrade_worker(std::size_t w) {
  Worker& wk = workers_[w];
  wk.dead = true;
  wk.seal_sent = false;
  wk.batches_sent = 0;
  degraded_ = true;
  const std::size_t live = live_workers();
  if (live == 0) {
    fail("worker " + std::to_string(w) +
         ": retry budget exhausted with no surviving workers");
    return;
  }
  SKW_LOG_INFO(
      "net worker %zu retired after %d failed recoveries; degrading onto "
      "%zu survivors",
      w, wk.recover_attempts, live);
  CheckpointPayload eff = effective_checkpoint(w);
  // No Fin will ever come from this worker: fold the outputs its last
  // checkpoint vouches for here. The open epoch's tuples are re-routed
  // below and re-counted when the survivors seal them.
  total_outputs_ += eff.outputs;
  if (stopped_) {
    // Shutdown-time degrade: there is no next interval to re-home into,
    // so the checkpointed states fold straight into the final tallies
    // (any post-checkpoint tuples are unsealed trailing work, which the
    // interval reports never counted — same as a healthy shutdown).
    for (const WireKeyState& wire : eff.states) {
      ByteReader blob(wire.blob, ByteReader::Untrusted{});
      std::unique_ptr<KeyState> state = logic_->deserialize_state(blob);
      if (state == nullptr || !blob.ok() || !blob.exhausted()) continue;
      final_checksum_ +=
          mix64(static_cast<std::uint64_t>(wire.key) ^ state->checksum());
      ++final_state_entries_;
    }
    replay_[w].clear();
    checkpoints_[w] = Checkpoint{};
    pending_installs_[w].clear();
    migrated_away_[w].clear();
    pending_batches_[w].clear();
    return;
  }
  // Retire the instance from the assignment: F(k) never returns it
  // again, its keys re-home deterministically onto the survivors, and
  // future plans skip it.
  controller_->retire_instance(static_cast<InstanceId>(w));
  const auto n = workers_.size();
  const auto epoch = static_cast<std::uint64_t>(interval_) + 1;
  // Re-home the checkpointed states through the normal install path,
  // grouped by the post-retirement assignment. Barrier-free: the ack is
  // consumed transparently later (owed_install_acks_), and the worker's
  // install replaces a racing fresh state.
  std::vector<std::vector<WireKeyState>> by_dest(n);
  for (WireKeyState& wire : eff.states) {
    const auto d =
        static_cast<std::size_t>(controller_->assignment()(wire.key));
    by_dest[d].push_back(std::move(wire));
  }
  for (std::size_t d = 0; d < n; ++d) {
    // A dead destination can't happen post-resolve; belt.
    if (by_dest[d].empty() || workers_[d].dead) continue;
    for (const WireKeyState& s : by_dest[d]) {
      pending_installs_[d].push_back({epoch, s});
    }
    frame_scratch_.clear();
    encode_key_states(frame_scratch_, by_dest[d]);
    // The pending record above makes a restore deliver these states, so
    // a failed (or degraded) destination loses nothing.
    if (send_ctrl(d, FrameType::kInstall, epoch)) {
      ++owed_install_acks_[d];
    } else if (!ok()) {
      return;
    }
  }
  // Re-route the open epoch's recorded batches plus the unflushed batch
  // onto the survivors. They are NOT flushed here: they ride the next
  // interval and are counted exactly once when it seals.
  std::vector<Tuple> tuples;
  for (const ReplayBuffer::RecordedBatch& batch : replay_[w].batches()) {
    ByteReader in(batch.payload, ByteReader::Untrusted{});
    tuples.clear();
    if (!decode_tuple_batch(in, tuples)) continue;  // our own bytes
    for (const Tuple& t : tuples) {
      pending_batches_[static_cast<std::size_t>(
                           controller_->assignment()(t.key))]
          .push_back(t);
    }
  }
  for (const Tuple& t : pending_batches_[w]) {
    pending_batches_[static_cast<std::size_t>(
                         controller_->assignment()(t.key))]
        .push_back(t);
  }
  pending_batches_[w].clear();
  replay_[w].clear();
  checkpoints_[w] = Checkpoint{};
  pending_installs_[w].clear();
  migrated_away_[w].clear();
}

void NetEngine::inject_kills(std::uint64_t epoch) {
  for (std::size_t i = 0; i < config_.fault.events.size(); ++i) {
    const FaultEvent& ev = config_.fault.events[i];
    if (ev.kind != FaultKind::kKill || fault_fired_[i]) continue;
    if (static_cast<std::uint64_t>(ev.epoch) != epoch) continue;
    const auto w = static_cast<std::size_t>(ev.worker);
    if (w >= workers_.size() || workers_[w].dead || workers_[w].pid <= 0) {
      continue;
    }
    if (!ev.sticky) fault_fired_[i] = true;
    SKW_LOG_INFO("fault injection: SIGKILL worker %zu at epoch %llu", w,
                 static_cast<unsigned long long>(epoch));
    ::kill(workers_[w].pid, SIGKILL);
  }
}

std::string NetEngine::ctrl_failure_reason(std::size_t w, CtrlRecv rc) const {
  switch (rc) {
    case CtrlRecv::kTimeout:
      return "worker " + std::to_string(w) +
             " missed the control deadline (wedged?)";
    case CtrlRecv::kClosed:
      return "worker " + std::to_string(w) + " closed its channel (crashed)";
    case CtrlRecv::kBadFrame:
      return "worker " + std::to_string(w) +
             " sent a rejected frame: " + workers_[w].ctrl.last_error();
    case CtrlRecv::kFrame:
      break;
  }
  return "worker " + std::to_string(w) + " sent an unexpected frame";
}

NetEngine::CtrlRecv NetEngine::recv_ctrl_any(
    std::size_t w, FrameHeader& header, std::vector<std::uint8_t>& payload) {
  Worker& wk = workers_[w];
  const int timeout = std::max(1, config_.ctrl_timeout_ms);
  while (true) {
    const int r = wk.ctrl.wait_readable(timeout);
    if (r == 0) return CtrlRecv::kTimeout;
    if (r < 0) return CtrlRecv::kClosed;
    if (!wk.ctrl.recv(header, payload)) {
      if (wk.ctrl.eof()) return CtrlRecv::kClosed;
      if (wk.ctrl.timed_out()) return CtrlRecv::kTimeout;
      return CtrlRecv::kBadFrame;
    }
    if (header.type == FrameType::kHeartbeat) {
      // Liveness beat: restarts the deadline (by looping), never resets
      // the retry budget — only a completed epoch's checkpoint proves
      // forward progress.
      continue;
    }
    if (header.type == FrameType::kInstallAck && owed_install_acks_[w] > 0) {
      // Barrier-free degrade install: the ack drains here so it never
      // surfaces as "unexpected frame" in whatever wait comes next.
      --owed_install_acks_[w];
      continue;
    }
    return CtrlRecv::kFrame;
  }
}

void NetEngine::route_tuple(const Tuple& tuple) {
  const InstanceId d = controller_->assignment()(tuple.key);
  auto& batch = pending_batches_[static_cast<std::size_t>(d)];
  batch.push_back(tuple);
  if (batch.size() >= config_.batch_size) flush_batch(d);
}

std::string NetEngine::send_batch(std::size_t w, std::uint64_t epoch,
                                  const std::uint8_t* payload,
                                  std::size_t size) {
  Worker& wk = workers_[w];
  // Every send first takes the credits already readable, so at most about
  // 2 x kQueueBatches of them ever wait unread: a worker blocked on
  // writing a credit would stop reading batches, and then miss a summary
  // deadline while perfectly healthy.
  const std::string why = wk.credits.acquire(wk.data, config_.ctrl_timeout_ms);
  if (!why.empty()) return "worker " + std::to_string(w) + " " + why;
  if (!wk.data.send(FrameType::kBatch, epoch, payload, size)) {
    return "data send failed: " + wk.data.last_error();
  }
  wk.credits.sent();
  return {};
}

void NetEngine::flush_batch(InstanceId d) {
  const auto di = static_cast<std::size_t>(d);
  auto& batch = pending_batches_[di];
  if (batch.empty() || !ok() || workers_[di].dead) return;
  frame_scratch_.clear();
  encode_tuple_batch(frame_scratch_, batch);
  batch.clear();
  const auto epoch = static_cast<std::uint64_t>(interval_) + 1;
  // Recorded BEFORE the send and counted regardless of its outcome: a
  // failed send triggers a recovery whose replay delivers exactly this
  // frame, so the seal's batch count must include it either way.
  (void)replay_[di].record(epoch, frame_scratch_.bytes().data(),
                           frame_scratch_.size());
  ++workers_[di].batches_sent;
  const std::string why = send_batch(di, epoch, frame_scratch_.bytes().data(),
                                     frame_scratch_.size());
  // A false return means degraded (the recorded batch was re-routed) or
  // failed (ok() is off); either way there is nothing left to do here.
  if (!why.empty()) (void)recover_worker(di, why);
}

void NetEngine::flush_batches() {
  for (InstanceId d = 0; d < num_workers_; ++d) flush_batch(d);
}

std::uint64_t NetEngine::wire_bytes_data() const {
  std::uint64_t total = wire_retired_data_;
  for (const Worker& w : workers_) {
    total += w.data.bytes_sent() + w.data.bytes_received();
  }
  return total;
}

std::uint64_t NetEngine::wire_bytes_ctrl() const {
  std::uint64_t total = wire_retired_ctrl_;
  for (const Worker& w : workers_) {
    total += w.ctrl.bytes_sent() + w.ctrl.bytes_received();
  }
  return total;
}

std::size_t NetEngine::live_workers() const {
  std::size_t live = 0;
  for (const Worker& w : workers_) {
    if (!w.dead) ++live;
  }
  return live;
}

IntervalReport NetEngine::ingest(const std::vector<Tuple>& tuples) {
  IntervalReport report;
  report.interval = interval_;
  if (!ok() || stopped_) return report;
  if (!interval_open_) {
    interval_open_ = true;
    open_interval_wall_ms_ = 0.0;
    wire_mark_data_ = wire_bytes_data();
    wire_mark_ctrl_ = wire_bytes_ctrl();
  }
  WallTimer timer;
  for (Tuple t : tuples) {
    t.emit_micros = steady_now_us() - engine_epoch_us_;
    route_tuple(t);
    if (!ok()) return report;
    ++report.emitted;
  }
  total_emitted_ += report.emitted;
  open_interval_wall_ms_ += timer.elapsed_millis();
  report.wall_ms = open_interval_wall_ms_;
  return report;
}

bool NetEngine::absorb_summaries(std::uint64_t epoch, SlabTally& tally) {
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (workers_[w].dead) continue;
    // The summary is only a CANDIDATE until the same epoch's checkpoint
    // lands: a worker that dies between the two is replayed from its
    // previous checkpoint, and absorbing its summary early would count
    // the epoch twice. The buffered summary is absorbed the moment the
    // checkpoint confirms the epoch completed durably.
    bool have_summary = false;
    bool have_checkpoint = false;
    while (!(have_summary && have_checkpoint)) {
      if (!ok()) return false;
      if (workers_[w].dead) break;  // degraded while waiting
      // The summary lands in summary_buf_, what follows it (the
      // checkpoint) in checkpoint_buf_: each buffer keeps the capacity
      // of one payload kind, so no copy and no reallocation per frame.
      std::vector<std::uint8_t>& buf =
          have_summary ? checkpoint_buf_ : summary_buf_;
      FrameHeader header;
      const CtrlRecv rc = recv_ctrl_any(w, header, buf);
      std::string why;
      if (rc != CtrlRecv::kFrame) {
        why = ctrl_failure_reason(w, rc);
      } else if (header.type == FrameType::kSummary) {
        if (header.epoch == epoch) {
          // A repeated summary replaces the first.
          if (have_summary) summary_buf_.swap(checkpoint_buf_);
          have_summary = true;
        } else {
          why = "Summary for epoch " + std::to_string(header.epoch) +
                ", expected " + std::to_string(epoch);
        }
      } else if (header.type == FrameType::kCheckpoint) {
        ByteReader in(buf, ByteReader::Untrusted{});
        std::uint64_t cp_epoch = 0;
        if (have_summary && check_checkpoint(in, cp_epoch) &&
            in.exhausted() && cp_epoch == epoch) {
          // Kept as the validated bytes; the previous checkpoint's
          // buffer receives the next one.
          checkpoints_[w].epoch = epoch;
          checkpoints_[w].payload.swap(checkpoint_buf_);
          // The epoch is durable: its batches are reflected in the
          // checkpoint, migration bookkeeping older than it is stale, and
          // the worker proved forward progress (retry budget refills).
          replay_[w].clear();
          migrated_away_[w].clear();
          std::erase_if(pending_installs_[w], [&](const PendingInstall& p) {
            return p.epoch < epoch;
          });
          workers_[w].seal_sent = false;
          workers_[w].batches_sent = 0;
          workers_[w].recover_attempts = 0;
          have_checkpoint = true;
        } else {
          why = "bad Checkpoint at epoch " + std::to_string(epoch);
        }
      } else {
        why = std::string("unexpected ") + frame_type_name(header.type) +
              " while awaiting the boundary summary";
      }
      if (why.empty()) continue;
      have_summary = false;  // a recovered worker re-seals from scratch
      if (!recover_worker(w, why)) {
        if (!ok()) return false;
        break;  // degraded
      }
    }
    if (workers_[w].dead || !have_summary) continue;  // degraded mid-epoch
    ByteReader in(summary_buf_, ByteReader::Untrusted{});
    if (!scratch_slab_->deserialize_from(in) || !in.exhausted() ||
        scratch_slab_->epoch() != epoch) {
      // A post-seal worker produced this; not a crash we can replay.
      fail("corrupt boundary summary from worker " + std::to_string(w));
      return false;
    }
    tally.absorb(*sketch_stats_, *scratch_slab_, w);
  }
  return true;
}

bool NetEngine::send_ctrl(std::size_t w, FrameType type,
                          std::uint64_t epoch) {
  if (workers_[w].ctrl.send(type, epoch, frame_scratch_)) return true;
  (void)recover_worker(w, std::string(frame_type_name(type)) +
                              " send failed: " + workers_[w].ctrl.last_error());
  return false;
}

bool NetEngine::broadcast(FrameType type, std::uint64_t epoch,
                          const EncodeFn& encode) {
  for (std::size_t w = 0; w < workers_.size() && ok(); ++w) {
    if (workers_[w].dead) continue;
    // Re-encoded per worker: a recovery clobbers frame_scratch_.
    frame_scratch_.clear();
    encode(w);
    (void)send_ctrl(w, type, epoch);
  }
  return ok();
}

bool NetEngine::round_trip(const std::vector<std::size_t>& targets,
                           FrameType request, std::uint64_t epoch,
                           const EncodeFn& encode, FrameType reply,
                           bool resend, const AcceptFn& accept) {
  const auto send = [&](std::size_t w) -> std::string {
    frame_scratch_.clear();
    encode(w);
    if (workers_[w].ctrl.send(request, epoch, frame_scratch_)) return {};
    return std::string(frame_type_name(request)) +
           " send failed: " + workers_[w].ctrl.last_error();
  };
  // Every request goes out before any reply is read, so the workers
  // serve it in parallel. A failed send is recovered below, in order.
  std::vector<std::string> send_failure(workers_.size());
  for (const std::size_t w : targets) {
    if (!workers_[w].dead) send_failure[w] = send(w);
  }
  for (const std::size_t w : targets) {
    std::string why = std::move(send_failure[w]);
    while (ok() && !workers_[w].dead) {
      if (why.empty()) {
        FrameHeader header;
        const CtrlRecv rc = recv_ctrl_any(w, header, recv_scratch_);
        if (rc != CtrlRecv::kFrame) {
          why = ctrl_failure_reason(w, rc);
        } else if (header.type != reply) {
          why = std::string("unexpected ") + frame_type_name(header.type) +
                " while awaiting " + frame_type_name(reply);
        } else {
          ByteReader in(recv_scratch_, ByteReader::Untrusted{});
          const Reply verdict = accept(w, in);
          if (verdict == Reply::kAccept) break;
          if (verdict == Reply::kFail) {
            SKW_ASSERT(!ok());  // accept recorded the breach
            return false;
          }
          why = std::string("rejected ") + frame_type_name(reply) + " payload";
        }
      }
      // Degraded (the loop ends) or failed (ok() is off).
      if (!recover_worker(w, why) || !resend) break;
      why = send(w);
    }
    if (!ok()) return false;
  }
  return true;
}

bool NetEngine::execute_migration(const RebalancePlan& plan,
                                  IntervalReport& report) {
  const auto n = static_cast<std::size_t>(num_workers_);
  std::vector<std::vector<KeyId>> by_source(n);
  std::unordered_set<KeyId> planned;
  planned.reserve(plan.moves.size());
  for (const KeyMove& mv : plan.moves) {
    by_source[static_cast<std::size_t>(mv.from)].push_back(mv.key);
    planned.insert(mv.key);
  }
  std::vector<std::size_t> sources;
  for (std::size_t w = 0; w < n; ++w) {
    if (!by_source[w].empty()) sources.push_back(w);
  }

  // Extract round. A recovered source is asked again: its restored
  // checkpoint still owns the keys, because migrated_away_ is only
  // recorded for an accepted kMigrated; a degraded source's keys were
  // re-homed from its checkpoint. The blobs stay opaque bytes end to
  // end: the driver routes state, it never materializes it.
  std::vector<WireKeyState> extracted;
  std::vector<WireKeyState> reply_states;
  const bool all_extracted = round_trip(
      sources, FrameType::kExtract, 0,
      [&](std::size_t w) { encode_key_list(frame_scratch_, by_source[w]); },
      FrameType::kMigrated, /*resend=*/true,
      [&](std::size_t w, ByteReader& in) {
        reply_states.clear();
        if (!decode_key_states(in, reply_states) || !in.exhausted()) {
          return Reply::kRecover;
        }
        for (WireKeyState& wire : reply_states) {
          if (planned.count(wire.key) == 0) {
            fail("Migrated key not in the plan from worker " +
                 std::to_string(w));
            return Reply::kFail;
          }
          // The source's checkpoint predates this extraction: a restore
          // of the source must not resurrect the key.
          migrated_away_[w].insert(wire.key);
          report.migration_wire_bytes += static_cast<Bytes>(wire.blob.size());
          extracted.push_back(std::move(wire));
        }
        return Reply::kAccept;
      });
  if (!all_extracted) return false;

  // Grouped only now, by the live assignment: a key's new owner is the
  // plan destination unless that worker degraded during the round, and
  // then its re-homed survivor.
  const auto epoch = static_cast<std::uint64_t>(interval_) + 1;
  std::vector<std::vector<WireKeyState>> by_dest(n);
  for (WireKeyState& wire : extracted) {
    by_dest[static_cast<std::size_t>(controller_->assignment()(wire.key))]
        .push_back(std::move(wire));
  }
  std::vector<std::size_t> dests;
  for (std::size_t w = 0; w < n; ++w) {
    if (by_dest[w].empty()) continue;
    dests.push_back(w);
    // Recorded before the send: until the NEXT checkpoint proves these
    // states durable, a restore of this destination re-delivers them.
    for (const WireKeyState& s : by_dest[w]) {
      pending_installs_[w].push_back({epoch, s});
    }
  }
  // The install barrier: no next-interval tuple is routed anywhere until
  // every destination acknowledged. Without it a tuple for a moved key
  // could reach its new owner ahead of the state and grow a fresh state
  // the install would then collide with. A recovered destination is not
  // asked again: its restore re-delivered the pending installs, which
  // doubles as the barrier.
  return round_trip(
      dests, FrameType::kInstall, epoch,
      [&](std::size_t w) { encode_key_states(frame_scratch_, by_dest[w]); },
      FrameType::kInstallAck, /*resend=*/false,
      [](std::size_t, ByteReader&) { return Reply::kAccept; });
}

void NetEngine::finish_interval(IntervalReport& report) {
  if (!ok() || stopped_) return;
  if (!interval_open_) {
    // finish without ingest: an empty interval still seals and rolls.
    wire_mark_data_ = wire_bytes_data();
    wire_mark_ctrl_ = wire_bytes_ctrl();
  }
  WallTimer timer;
  // Scheduled driver-side kills fire at the boundary's entry — the
  // hardest point in the protocol to lose a worker, since the epoch's
  // batches are in flight and its summary is owed.
  inject_kills(static_cast<std::uint64_t>(interval_) + 1);
  flush_batches();
  if (!ok()) return;
  const auto epoch = static_cast<std::uint64_t>(interval_) + 1;
  // Seal on CTRL: even with the data sockets full to the brim, the seal
  // is written to an empty buffer and read with priority — control never
  // waits behind data.
  const bool sealed = broadcast(FrameType::kSeal, epoch, [&](std::size_t w) {
    // Marked before the send: if the send (or anything after it) kills
    // the worker, the restore re-arms the seal. Never re-sent here — a
    // double seal would arm a stale batch target.
    workers_[w].seal_sent = true;
    encode_seal(frame_scratch_, SealPayload{workers_[w].batches_sent});
  });
  SlabTally tally(workers_.size());
  if (!sealed || !absorb_summaries(epoch, tally)) return;
  if (const auto plan = close_statistics(*controller_, tally, report)) {
    if (!execute_migration(*plan, report)) return;
  }
  // The roll just promoted/demoted: broadcast the post-roll heavy set so
  // the next interval's hot keys accumulate exactly in the worker slabs.
  // Written before any next-interval batch, drained by the workers
  // before any next-interval batch (ctrl priority). A worker recovered
  // here gets both from its restore.
  last_heavy_keys_ = sketch_stats_->heavy_keys();
  heavy_broadcast_done_ = true;
  if (!broadcast(FrameType::kHeavySet, 0, [&](std::size_t) {
        encode_key_list(frame_scratch_, last_heavy_keys_);
      })) {
    return;
  }
  if (config_.expire_lag_intervals > 0) {
    last_expire_watermark_ =
        (interval_ + 1 - config_.expire_lag_intervals) * 1'000'000;
    expire_sent_ = true;
    if (!broadcast(FrameType::kExpire, 0, [&](std::size_t) {
          encode_expire(frame_scratch_, last_expire_watermark_);
        })) {
      return;
    }
  }
  report.recoveries = recoveries_;
  report.degraded = degraded_;
  close_interval(report, open_interval_wall_ms_, timer.elapsed_millis(),
                 *controller_);
  const std::uint64_t data_now = wire_bytes_data();
  const std::uint64_t ctrl_now = wire_bytes_ctrl();
  report.data_wire_bytes =
      data_now >= wire_mark_data_ ? data_now - wire_mark_data_ : 0;
  report.ctrl_wire_bytes =
      ctrl_now >= wire_mark_ctrl_ ? ctrl_now - wire_mark_ctrl_ : 0;
  total_processed_ += report.processed;
  interval_open_ = false;
  open_interval_wall_ms_ = 0.0;
  ++interval_;
}

IntervalReport NetEngine::run_interval(const std::vector<Tuple>& tuples) {
  IntervalReport report = ingest(tuples);
  finish_interval(report);
  return report;
}

std::vector<IntervalReport> NetEngine::run(WorkloadSource& source,
                                           int intervals, std::uint64_t seed) {
  std::vector<IntervalReport> reports;
  reports.reserve(static_cast<std::size_t>(intervals));
  Xoshiro256 rng(seed);
  std::vector<Tuple> tuples;
  for (int i = 0; i < intervals && ok(); ++i) {
    expand_interval(source, rng, tuples);
    reports.push_back(run_interval(tuples));
  }
  return reports;
}

double NetEngine::broadcast_plan(const RebalancePlan& plan,
                                 std::uint64_t seq) {
  if (!ok() || stopped_) return -1.0;
  PlanPayload payload;
  payload.seq = seq;
  payload.moves = plan.moves;
  WallTimer timer;
  const bool acked = round_trip(
      every_worker(workers_.size()), FrameType::kPlan, seq,
      [&](std::size_t) { encode_plan(frame_scratch_, payload); },
      FrameType::kPlanAck, /*resend=*/true,
      [&](std::size_t, ByteReader& in) {
        AckPayload ack;
        return decode_ack(in, ack) && ack.seq == seq ? Reply::kAccept
                                                     : Reply::kRecover;
      });
  return acked ? timer.elapsed_millis() : -1.0;
}

void NetEngine::shutdown() {
  if (stopped_) return;
  if (ok() && degraded_) {
    // Degraded runs may hold re-routed replay tuples that were never
    // sealed; close them through full boundaries so every tuple is
    // counted exactly once. Bounded: each pass drains what it finds, and
    // a fresh degrade mid-pass can re-fill at most a few times.
    for (int guard = 0; guard < 8 && ok(); ++guard) {
      bool pending = false;
      for (const auto& b : pending_batches_) pending |= !b.empty();
      if (!pending) break;
      IntervalReport tail;
      finish_interval(tail);
    }
  }
  stopped_ = true;
  if (ok()) {
    flush_batches();
    // A crash this late is still recoverable: the restored worker replays
    // its open epoch, then gets a fresh Stop. A degraded worker's
    // checkpoint was folded into the finals by degrade_worker.
    (void)round_trip(
        every_worker(workers_.size()), FrameType::kStop, 0,
        [](std::size_t) {}, FrameType::kFin, /*resend=*/true,
        [&](std::size_t w, ByteReader& in) {
          FinPayload fin;
          if (!decode_fin(in, fin)) {
            fail("corrupt Fin from worker " + std::to_string(w));
            return Reply::kFail;
          }
          final_checksum_ += fin.state_checksum;
          final_state_entries_ += fin.state_entries;
          total_outputs_ += fin.outputs;
          return Reply::kAccept;
        });
  }
  // Whether the stop handshake succeeded or fail() already killed the
  // children, every pid must be reaped exactly once.
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    Worker& worker = workers_[w];
    worker.data.close();
    worker.ctrl.close();
    if (worker.pid > 0) {
      int status = 0;
      ::waitpid(worker.pid, &status, 0);
      if (!WIFEXITED(status) || WEXITSTATUS(status) != kWorkerExitOk) {
        SKW_LOG_INFO("net worker %zu final reap: %s", w,
                     describe_worker_exit(status).c_str());
        if (error_.empty()) error_ = "worker exited abnormally";
      }
      worker.pid = -1;
    }
  }
}

std::uint64_t NetEngine::state_checksum() const {
  SKW_EXPECTS(stopped_);
  return final_checksum_;
}

std::size_t NetEngine::total_state_entries() const {
  SKW_EXPECTS(stopped_);
  return final_state_entries_;
}

}  // namespace skewless
