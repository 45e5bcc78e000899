// Entry point of one forked net worker process.
//
// A worker owns one StateStore and one WorkerSketchSlab and speaks the
// frame protocol over two channels inherited from the driver:
//   * data — kBatch only (the channel that backpressures);
//   * ctrl — everything else, always drained BEFORE the next data frame,
//     so control never waits behind queued tuples.
//
// Cross-channel epoch ordering is re-established by content, not by
// arrival: the kSeal payload says how many batches the epoch carried,
// and the worker defers sealing (serializing + shipping its slab as the
// boundary summary, followed by a checkpoint of its key states) until
// it has processed exactly that many. Recovery support is always on:
// every seal ships the checkpoint, the worker heartbeats on ctrl, and a
// kRestore frame reinstalls a checkpoint into a respawned worker.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "engine/operator.h"
#include "net/fault_injector.h"
#include "sketch/stats_provider.h"

namespace skewless {

struct NetWorkerOptions {
  std::uint32_t worker_id = 0;
  std::uint32_t num_workers = 0;
  /// Deterministic fault schedule (crosses the fork by value). Worker-side
  /// events (wedge/garble/drop) fire on the matching epoch's kSeal.
  FaultPlan fault = {};
  /// 0 for the first spawn, incremented by the driver on every respawn;
  /// one-shot fault events arm only for incarnation 0.
  std::uint32_t incarnation = 0;
  /// Period of the epoch-progress heartbeats the worker emits on ctrl.
  /// Must be well under the driver's ctrl receive deadline.
  int heartbeat_interval_ms = 250;
  /// Must equal the driver-side window's config: the slab replicates the
  /// window's Count-Min geometry, and the summary decode on the driver
  /// rejects a mismatch.
  SketchStatsConfig sketch = {};
  /// The driver's engine epoch (set before fork), so worker-side latency
  /// accounting shares the tuples' emit_micros time base.
  Micros engine_epoch_us = 0;
};

/// Runs the worker protocol until a kStop frame (returns kWorkerExitOk)
/// or a fatal error (returns one of the kWorkerExit* codes from
/// net/recovery.h after logging to stderr, so the driver's reap log can
/// tell a protocol error from a corrupt frame from a channel failure).
/// Takes ownership of both fds.
[[nodiscard]] int run_net_worker(int data_fd, int ctrl_fd,
                                 const NetWorkerOptions& options,
                                 const OperatorLogic& logic);

}  // namespace skewless
