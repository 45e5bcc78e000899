#include "net/net_engine.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/assert.h"
#include "common/clock.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/sharded_controller.h"
#include "net/worker_main.h"

namespace skewless {

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
  checkpoints_.assign(n, CheckpointRing(config_.checkpoint_ring_capacity));
  replay_.assign(n, ReplayBuffer(config_.replay_max_bytes));
  pending_installs_.resize(n);
  migrated_away_.resize(n);
  owed_install_acks_.assign(n, 0);
  fault_fired_.assign(config_.fault.events.size(), false);
  scratch_slab_ = std::make_unique<ShardedWorkerSlab>(
      sketch_stats_->slab_config(), sketch_stats_->slab_shards());
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
  if (config_.data_sndbuf_bytes > 0) {
    // Best-effort: the kernel clamps unprivileged requests to wmem_max.
    const int v = config_.data_sndbuf_bytes;
    (void)::setsockopt(data_fds[0], SOL_SOCKET, SO_SNDBUF, &v, sizeof(v));
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
    options.recovery = config_.recovery_enabled;
    options.heartbeat_interval_ms = config_.heartbeat_interval_ms;
    options.sketch = sketch_stats_->slab_config();
    options.shards = static_cast<std::uint32_t>(sketch_stats_->slab_shards());
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
  if (config_.recovery_enabled) {
    // Crash detection needs every channel operation to be bounded: a
    // send into a dead worker's full buffer must fail, not hang.
    workers_[w].data.set_io_timeout_ms(config_.ctrl_timeout_ms);
    workers_[w].ctrl.set_io_timeout_ms(config_.ctrl_timeout_ms);
  }
  return true;
}

void NetEngine::spawn_workers() {
  const auto n = static_cast<std::size_t>(num_workers_);
  workers_.resize(n);
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
    HelloPayload hello;
    hello.worker_id = static_cast<std::uint32_t>(w);
    hello.num_workers = static_cast<std::uint32_t>(num_workers_);
    frame_scratch_.clear();
    encode_hello(frame_scratch_, hello);
    if (!workers_[w].ctrl.send(FrameType::kHello, 0, frame_scratch_)) {
      fail("handshake send to worker " + std::to_string(w) + ": " +
           workers_[w].ctrl.last_error());
      return false;
    }
  }
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    FrameHeader header;
    if (!recv_ctrl(w, FrameType::kHello, header, recv_scratch_)) return false;
    ByteReader in(recv_scratch_, ByteReader::Untrusted{});
    HelloPayload echo;
    if (!decode_hello(in, echo) ||
        echo.worker_id != static_cast<std::uint32_t>(w)) {
      fail("handshake: bad Hello echo from worker " + std::to_string(w));
      return false;
    }
  }
  return true;
}

bool NetEngine::handshake_one(std::size_t w) {
  HelloPayload hello;
  hello.worker_id = static_cast<std::uint32_t>(w);
  hello.num_workers = static_cast<std::uint32_t>(num_workers_);
  frame_scratch_.clear();
  encode_hello(frame_scratch_, hello);
  if (!workers_[w].ctrl.send(FrameType::kHello, 0, frame_scratch_)) {
    return false;
  }
  FrameHeader header;
  if (recv_ctrl_any(w, header, recv_scratch_) != CtrlRecv::kFrame) {
    return false;
  }
  if (header.type != FrameType::kHello) return false;
  ByteReader in(recv_scratch_, ByteReader::Untrusted{});
  HelloPayload echo;
  return decode_hello(in, echo) &&
         echo.worker_id == static_cast<std::uint32_t>(w);
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
  if (!config_.recovery_enabled) {
    fail("worker " + std::to_string(w) + ": " + why);
    return false;
  }
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
    const int backoff_ms = config_.respawn_backoff_ms << wk.recover_attempts;
    ++wk.recover_attempts;
    if (backoff_ms > 0) {
      ::usleep(static_cast<useconds_t>(backoff_ms) * 1000);
    }
    ++wk.incarnation;  // one-shot fault events stay disarmed
    std::string err;
    if (!spawn_one(w, err)) continue;
    if (!handshake_one(w)) {
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
  if (const CheckpointPayload* cp = checkpoints_[w].latest()) eff = *cp;
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
  // trajectory included — is bit-identical to the lost worker's.
  for (const ReplayBuffer::RecordedBatch& batch : replay_[w].batches()) {
    if (!wk.data.send(FrameType::kBatch, batch.epoch, batch.payload.data(),
                      batch.payload.size())) {
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
    checkpoints_[w].clear();
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
  // recovery-mode install tolerates a racing fresh state.
  std::vector<std::vector<WireKeyState>> by_dest(n);
  for (WireKeyState& wire : eff.states) {
    const auto d =
        static_cast<std::size_t>(controller_->assignment()(wire.key));
    by_dest[d].push_back(std::move(wire));
  }
  for (std::size_t d = 0; d < n; ++d) {
    if (by_dest[d].empty()) continue;
    if (workers_[d].dead) continue;  // can't happen post-resolve; belt
    for (const WireKeyState& s : by_dest[d]) {
      pending_installs_[d].push_back({epoch, s});
    }
    frame_scratch_.clear();
    encode_key_states(frame_scratch_, by_dest[d]);
    if (!workers_[d].ctrl.send(FrameType::kInstall, epoch, frame_scratch_)) {
      // The pending record above makes the restore deliver these states,
      // so a failed (or degraded) destination loses nothing.
      if (!recover_worker(d, "degrade re-home Install send: " +
                                 workers_[d].ctrl.last_error())) {
        if (!ok()) return;
      }
      continue;
    }
    ++owed_install_acks_[d];
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
  checkpoints_[w].clear();
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
  const int timeout =
      config_.recovery_enabled ? std::max(1, config_.ctrl_timeout_ms) : -1;
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

bool NetEngine::recv_ctrl(std::size_t w, FrameType type, FrameHeader& header,
                          std::vector<std::uint8_t>& payload) {
  const CtrlRecv rc = recv_ctrl_any(w, header, payload);
  if (rc != CtrlRecv::kFrame) {
    fail("ctrl recv from worker " + std::to_string(w) + ": " +
         ctrl_failure_reason(w, rc));
    return false;
  }
  if (header.type != type) {
    fail(std::string("protocol: expected ") + frame_type_name(type) +
         " from worker " + std::to_string(w) + ", got " +
         frame_type_name(header.type));
    return false;
  }
  return true;
}

void NetEngine::route_tuple(const Tuple& tuple) {
  const InstanceId d = controller_->assignment()(tuple.key);
  auto& batch = pending_batches_[static_cast<std::size_t>(d)];
  batch.push_back(tuple);
  if (batch.size() >= config_.batch_size) flush_batch(d);
}

void NetEngine::flush_batch(InstanceId d) {
  const auto di = static_cast<std::size_t>(d);
  auto& batch = pending_batches_[di];
  if (batch.empty() || !ok() || workers_[di].dead) return;
  frame_scratch_.clear();
  encode_tuple_batch(frame_scratch_, batch);
  batch.clear();
  const auto epoch = static_cast<std::uint64_t>(interval_) + 1;
  if (config_.recovery_enabled) {
    // Recorded BEFORE the send and counted regardless of its outcome: a
    // failed send triggers a recovery whose replay delivers exactly this
    // frame, so the seal's batch count must include it either way.
    (void)replay_[di].record(epoch, frame_scratch_.bytes().data(),
                             frame_scratch_.size());
  }
  ++workers_[di].batches_sent;
  if (!workers_[di].data.send(FrameType::kBatch, epoch, frame_scratch_)) {
    if (!recover_worker(di, "data send failed: " +
                                workers_[di].data.last_error())) {
      // Degraded: the recorded batch was re-routed. Failed: ok() is off.
      return;
    }
  }
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

bool NetEngine::absorb_summaries(std::uint64_t epoch,
                                 IntervalReport& report) {
  SlabTally tally(workers_.size());
  std::vector<std::uint8_t> summary_buf;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (workers_[w].dead) continue;
    // With recovery on, the summary is only a CANDIDATE until the same
    // epoch's checkpoint lands: a worker that dies between the two is
    // replayed from its previous checkpoint, and absorbing its summary
    // early would count the epoch twice. The buffered copy is absorbed
    // the moment the checkpoint confirms the epoch completed durably.
    bool have_summary = false;
    bool have_checkpoint = !config_.recovery_enabled;
    while (!(have_summary && have_checkpoint)) {
      if (!ok()) return false;
      if (workers_[w].dead) break;  // degraded while waiting
      FrameHeader header;
      const CtrlRecv rc = recv_ctrl_any(w, header, recv_scratch_);
      if (rc != CtrlRecv::kFrame) {
        have_summary = false;  // a recovered worker re-seals from scratch
        if (!recover_worker(w, ctrl_failure_reason(w, rc))) {
          if (!ok()) return false;
          break;  // degraded
        }
        continue;
      }
      if (header.type == FrameType::kSummary) {
        if (header.epoch != epoch) {
          have_summary = false;
          if (!recover_worker(w, "Summary for epoch " +
                                     std::to_string(header.epoch) +
                                     ", expected " + std::to_string(epoch))) {
            if (!ok()) return false;
            break;
          }
          continue;
        }
        summary_buf = recv_scratch_;  // overwrite a pre-crash duplicate
        have_summary = true;
      } else if (header.type == FrameType::kCheckpoint) {
        ByteReader in(recv_scratch_, ByteReader::Untrusted{});
        CheckpointPayload cp;
        if (!have_summary || !decode_checkpoint(in, cp) || !in.exhausted() ||
            cp.epoch != epoch) {
          have_summary = false;
          if (!recover_worker(w, "bad Checkpoint at epoch " +
                                     std::to_string(epoch))) {
            if (!ok()) return false;
            break;
          }
          continue;
        }
        checkpoints_[w].push(std::move(cp));
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
        have_summary = false;
        if (!recover_worker(w, std::string("unexpected ") +
                                   frame_type_name(header.type) +
                                   " while awaiting the boundary summary")) {
          if (!ok()) return false;
          break;
        }
        continue;
      }
    }
    if (workers_[w].dead || !have_summary) continue;  // degraded mid-epoch
    ByteReader in(summary_buf.empty() ? recv_scratch_ : summary_buf,
                  ByteReader::Untrusted{});
    if (!scratch_slab_->deserialize_from(in) || !in.exhausted() ||
        scratch_slab_->epoch() != epoch) {
      // A post-seal worker produced this; not a crash we can replay.
      fail("corrupt boundary summary from worker " + std::to_string(w));
      return false;
    }
    tally.absorb(*sketch_stats_, *scratch_slab_, w);
    summary_buf.clear();
  }
  tally.add_to(report);
  return true;
}

bool NetEngine::execute_migration(const RebalancePlan& plan,
                                  IntervalReport& report) {
  const auto n = static_cast<std::size_t>(num_workers_);
  std::vector<std::vector<KeyId>> by_source(n);
  for (const KeyMove& mv : plan.moves) {
    by_source[static_cast<std::size_t>(mv.from)].push_back(mv.key);
  }
  std::unordered_map<KeyId, InstanceId> dest_of;
  dest_of.reserve(plan.moves.size());
  for (const KeyMove& mv : plan.moves) dest_of.emplace(mv.key, mv.to);

  const auto send_extract = [&](std::size_t w) -> bool {
    frame_scratch_.clear();
    encode_key_list(frame_scratch_, by_source[w]);
    return workers_[w].ctrl.send(FrameType::kExtract, 0, frame_scratch_);
  };

  // Fan the extracts out first so the sources work in parallel; a failed
  // send recovers the worker and defers the (re-)send to its collect
  // loop below — the restored checkpoint still owns the keys, because
  // migrated_away_ is only recorded on a decoded kMigrated.
  std::vector<char> need_extract(n, 0);
  for (std::size_t w = 0; w < n; ++w) {
    if (by_source[w].empty() || workers_[w].dead) continue;
    if (!send_extract(w)) {
      if (!recover_worker(w, "Extract send failed: " +
                                 workers_[w].ctrl.last_error())) {
        if (!ok()) return false;
        continue;  // degraded: its moves are moot
      }
      need_extract[w] = 1;
    }
  }

  // Collect per source in ascending order and regroup by destination.
  // The blobs stay opaque bytes end to end: the driver routes state, it
  // never materializes it.
  std::vector<WireKeyState> extracted;
  std::vector<std::vector<WireKeyState>> by_dest(n);
  for (std::size_t w = 0; w < n; ++w) {
    if (by_source[w].empty()) continue;
    while (ok() && !workers_[w].dead) {
      if (need_extract[w] != 0) {
        if (!send_extract(w)) {
          if (!recover_worker(w, "Extract re-send failed: " +
                                     workers_[w].ctrl.last_error())) {
            if (!ok()) return false;
            break;
          }
          continue;
        }
        need_extract[w] = 0;
      }
      FrameHeader header;
      const CtrlRecv rc = recv_ctrl_any(w, header, recv_scratch_);
      bool bad = rc != CtrlRecv::kFrame;
      std::string why = bad ? ctrl_failure_reason(w, rc) : std::string();
      if (!bad && header.type != FrameType::kMigrated) {
        bad = true;
        why = std::string("unexpected ") + frame_type_name(header.type) +
              " while awaiting Migrated";
      }
      extracted.clear();
      if (!bad) {
        ByteReader in(recv_scratch_, ByteReader::Untrusted{});
        if (!decode_key_states(in, extracted) || !in.exhausted()) {
          bad = true;
          why = "corrupt Migrated payload";
        }
      }
      if (bad) {
        if (!recover_worker(w, why)) {
          if (!ok()) return false;
          break;  // degraded: effective_checkpoint re-homed its keys
        }
        need_extract[w] = 1;
        continue;
      }
      for (WireKeyState& wire : extracted) {
        const auto it = dest_of.find(wire.key);
        if (it == dest_of.end()) {
          fail("Migrated key not in the plan from worker " +
               std::to_string(w));
          return false;
        }
        if (config_.recovery_enabled) {
          // The source's checkpoint predates this extraction: a restore
          // of the source must not resurrect the key...
          migrated_away_[w].insert(wire.key);
        }
        report.migration_wire_bytes += static_cast<Bytes>(wire.blob.size());
        // ...and the key's new owner comes from the live assignment (==
        // the plan destination, unless that worker degraded meanwhile).
        by_dest[static_cast<std::size_t>(
                    controller_->assignment()(wire.key))]
            .push_back(std::move(wire));
      }
      break;
    }
    if (!ok()) return false;
  }

  const auto epoch = static_cast<std::uint64_t>(interval_) + 1;
  std::vector<char> ack_pending(n, 0);
  for (std::size_t w = 0; w < n; ++w) {
    if (by_dest[w].empty() || workers_[w].dead) continue;
    if (config_.recovery_enabled) {
      // Recorded before the send: until the NEXT checkpoint proves these
      // states durable, a restore of this destination re-delivers them.
      for (const WireKeyState& s : by_dest[w]) {
        pending_installs_[w].push_back({epoch, s});
      }
    }
    frame_scratch_.clear();
    encode_key_states(frame_scratch_, by_dest[w]);
    if (!workers_[w].ctrl.send(FrameType::kInstall, epoch, frame_scratch_)) {
      if (!recover_worker(w, "Install send failed: " +
                                 workers_[w].ctrl.last_error())) {
        if (!ok()) return false;
      }
      continue;  // the restore delivered the installs; no ack will come
    }
    ack_pending[w] = 1;
  }
  // The install barrier: no next-interval tuple is routed anywhere until
  // every destination acknowledged. Without it a tuple for a moved key
  // could reach its new owner ahead of the state and grow a fresh state
  // the install would then collide with.
  for (std::size_t w = 0; w < n; ++w) {
    if (ack_pending[w] == 0 || workers_[w].dead) continue;
    FrameHeader header;
    const CtrlRecv rc = recv_ctrl_any(w, header, recv_scratch_);
    if (rc == CtrlRecv::kFrame && header.type == FrameType::kInstallAck) {
      continue;
    }
    // Whatever went wrong, the recovery path re-delivers the pending
    // installs during the restore, which doubles as the barrier.
    if (!recover_worker(w, rc != CtrlRecv::kFrame
                               ? ctrl_failure_reason(w, rc)
                               : std::string("unexpected ") +
                                     frame_type_name(header.type) +
                                     " while awaiting InstallAck")) {
      if (!ok()) return false;
    }
  }
  return true;
}

bool NetEngine::broadcast_heavy_set() {
  last_heavy_keys_ = sketch_stats_->heavy_keys();
  heavy_broadcast_done_ = true;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (workers_[w].dead) continue;
    // Re-encoded per worker: a recovery inside this loop clobbers
    // frame_scratch_ (the restore re-sends the heavy set on its own).
    frame_scratch_.clear();
    encode_key_list(frame_scratch_, last_heavy_keys_);
    if (!workers_[w].ctrl.send(FrameType::kHeavySet, 0, frame_scratch_)) {
      if (!recover_worker(w, "HeavySet send failed: " +
                                 workers_[w].ctrl.last_error())) {
        if (!ok()) return false;
      }
    }
  }
  return true;
}

bool NetEngine::broadcast_expire() {
  last_expire_watermark_ =
      (interval_ + 1 - config_.expire_lag_intervals) * 1'000'000;
  expire_sent_ = true;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (workers_[w].dead) continue;
    frame_scratch_.clear();
    encode_expire(frame_scratch_, last_expire_watermark_);
    if (!workers_[w].ctrl.send(FrameType::kExpire, 0, frame_scratch_)) {
      if (!recover_worker(w, "Expire send failed: " +
                                 workers_[w].ctrl.last_error())) {
        if (!ok()) return false;
      }
    }
  }
  return true;
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
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (workers_[w].dead) continue;
    // Marked before the send: if the send (or anything after it) kills
    // the worker, the restore re-arms the seal. Never re-sent here — a
    // double seal would arm a stale batch target.
    workers_[w].seal_sent = true;
    frame_scratch_.clear();
    encode_seal(frame_scratch_, SealPayload{workers_[w].batches_sent});
    if (!workers_[w].ctrl.send(FrameType::kSeal, epoch, frame_scratch_)) {
      if (!recover_worker(w, "Seal send failed: " +
                                 workers_[w].ctrl.last_error())) {
        if (!ok()) return;
      }
    }
  }
  if (!absorb_summaries(epoch, report)) return;
  if (const auto plan = plan_boundary(*controller_, report)) {
    if (!execute_migration(*plan, report)) return;
  }
  report.stats_memory_bytes += controller_->stats_memory_bytes();
  // The roll just promoted/demoted: broadcast the post-roll heavy set so
  // the next interval's hot keys accumulate exactly in the worker slabs.
  // Written before any next-interval batch, drained by the workers
  // before any next-interval batch (ctrl priority).
  if (!broadcast_heavy_set()) return;
  if (config_.expire_lag_intervals > 0) {
    if (!broadcast_expire()) return;
  }
  if (!config_.recovery_enabled) {
    // With recovery on this reset happens per worker at checkpoint
    // receipt, which is the moment the count stops being replay-relevant.
    for (Worker& worker : workers_) worker.batches_sent = 0;
  }
  report.recoveries = recoveries_;
  report.degraded = degraded_;
  close_interval(report, open_interval_wall_ms_, timer.elapsed_millis(),
                 controller_.get());
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
  const auto send_plan = [&](std::size_t w) -> bool {
    frame_scratch_.clear();
    encode_plan(frame_scratch_, payload);
    return workers_[w].ctrl.send(FrameType::kPlan, seq, frame_scratch_);
  };
  std::vector<char> need_send(workers_.size(), 0);
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (workers_[w].dead) continue;
    if (!send_plan(w)) {
      if (!recover_worker(w, "Plan send failed: " +
                                 workers_[w].ctrl.last_error())) {
        if (!ok()) return -1.0;
        continue;
      }
      need_send[w] = 1;
    }
  }
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (workers_[w].dead) continue;
    while (ok() && !workers_[w].dead) {
      if (need_send[w] != 0) {
        if (!send_plan(w)) {
          if (!recover_worker(w, "Plan re-send failed")) {
            if (!ok()) return -1.0;
            break;
          }
          continue;
        }
        need_send[w] = 0;
      }
      FrameHeader header;
      const CtrlRecv rc = recv_ctrl_any(w, header, recv_scratch_);
      if (rc == CtrlRecv::kFrame && header.type == FrameType::kPlanAck) {
        ByteReader in(recv_scratch_, ByteReader::Untrusted{});
        AckPayload ack;
        if (decode_ack(in, ack) && ack.seq == seq) break;
      }
      if (!recover_worker(w, "PlanAck missing or invalid")) {
        if (!ok()) return -1.0;
        break;
      }
      need_send[w] = 1;
    }
    if (!ok()) return -1.0;
  }
  return timer.elapsed_millis();
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
    for (std::size_t w = 0; w < workers_.size() && ok(); ++w) {
      if (workers_[w].dead) continue;
      frame_scratch_.clear();
      if (!workers_[w].ctrl.send(FrameType::kStop, 0, frame_scratch_)) {
        if (!recover_worker(w, "Stop send failed: " +
                                   workers_[w].ctrl.last_error())) {
          continue;  // degraded (folded by degrade_worker) or failed
        }
        frame_scratch_.clear();
        if (!workers_[w].ctrl.send(FrameType::kStop, 0, frame_scratch_)) {
          fail("Stop re-send to worker " + std::to_string(w) + ": " +
               workers_[w].ctrl.last_error());
        }
      }
    }
    for (std::size_t w = 0; w < workers_.size() && ok(); ++w) {
      if (workers_[w].dead) continue;
      while (ok() && !workers_[w].dead) {
        FrameHeader header;
        const CtrlRecv rc = recv_ctrl_any(w, header, recv_scratch_);
        if (rc == CtrlRecv::kFrame && header.type == FrameType::kFin) {
          ByteReader in(recv_scratch_, ByteReader::Untrusted{});
          FinPayload fin;
          if (!decode_fin(in, fin)) {
            fail("corrupt Fin from worker " + std::to_string(w));
            break;
          }
          final_checksum_ += fin.state_checksum;
          final_state_entries_ += fin.state_entries;
          total_outputs_ += fin.outputs;
          break;
        }
        // A crash this late is still recoverable: the restored worker
        // replays its open epoch, then needs a fresh Stop.
        if (!recover_worker(w, rc != CtrlRecv::kFrame
                                   ? ctrl_failure_reason(w, rc)
                                   : std::string("unexpected ") +
                                         frame_type_name(header.type) +
                                         " while awaiting Fin")) {
          break;  // degraded folded its checkpoint into the finals
        }
        frame_scratch_.clear();
        if (!workers_[w].ctrl.send(FrameType::kStop, 0, frame_scratch_)) {
          fail("Stop re-send to worker " + std::to_string(w) + ": " +
               workers_[w].ctrl.last_error());
        }
      }
    }
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
