// The socket engine's fault-tolerance layer: the recovery data
// structures (replay buffer, exit classification, fault plans)
// unit-tested directly, then the recovery PROTOCOL end to end —
// the headline contract being that a worker killed at ANY epoch yields a
// run byte-identical to the crash-free one (same plan-history digest,
// same θ bit patterns, same state checksums), and that a worker that
// exhausts its retry budget degrades away with every tuple still counted
// exactly once.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "core/assignment.h"
#include "core/controller.h"
#include "core/planners.h"
#include "net/fault_injector.h"
#include "net/net_engine.h"
#include "net/recovery.h"
#include "net/wire.h"
#include "net_test_util.h"
#include "workload/operators.h"
#include "workload/synthetic.h"

namespace skewless {
namespace {

using testutil::CapturedLog;
using testutil::digest_of;
using testutil::expect_byte_identical;
using testutil::keyed_intervals;
using testutil::RunDigest;
using testutil::SerializeHookLogic;
using testutil::SharedFlag;
using testutil::static_controller;
using testutil::tsan_enabled;

// Every worker the engine ever forked must be reaped by shutdown — a
// zombie left behind means an exit path skipped its waitpid.
void expect_no_children() {
  const pid_t r = ::waitpid(-1, nullptr, WNOHANG);
  EXPECT_TRUE(r == -1 && errno == ECHILD)
      << "unreaped child process (waitpid returned " << r << ")";
}

class NoZombieEnvironment : public ::testing::Environment {
 public:
  void TearDown() override { expect_no_children(); }
};

const ::testing::Environment* const kNoZombieEnv =
    ::testing::AddGlobalTestEnvironment(new NoZombieEnvironment);

// --- recovery data structures ---------------------------------------------

TEST(ReplayBuffer, RecordsVerbatimAndOverflowIsSticky) {
  ReplayBuffer buf(/*max_bytes=*/100);
  const std::vector<std::uint8_t> a(40, 0xAA);
  const std::vector<std::uint8_t> b(40, 0xBB);
  EXPECT_TRUE(buf.record(3, a.data(), a.size()));
  EXPECT_TRUE(buf.record(3, b.data(), b.size()));
  EXPECT_EQ(buf.bytes(), 80u);
  ASSERT_EQ(buf.batches().size(), 2u);
  EXPECT_EQ(buf.batches()[0].epoch, 3u);
  EXPECT_EQ(buf.batches()[0].payload, a);
  EXPECT_EQ(buf.batches()[1].payload, b);

  // Past the budget: nothing recorded, overflow latches...
  EXPECT_FALSE(buf.record(3, a.data(), a.size()));
  EXPECT_TRUE(buf.overflowed());
  EXPECT_EQ(buf.batches().size(), 2u);
  // ...even for a record that would fit on its own.
  const std::uint8_t tiny = 0;
  EXPECT_FALSE(buf.record(3, &tiny, 1));

  // clear() resets the latch (checkpoint landed — epoch is durable).
  buf.clear();
  EXPECT_FALSE(buf.overflowed());
  EXPECT_EQ(buf.bytes(), 0u);
  EXPECT_TRUE(buf.record(4, &tiny, 1));
}

// The buffer spans the open epoch and the sealed one whose checkpoint is
// streaming: a landed checkpoint drops its epoch's prefix, and a hole
// stays reported while any retained epoch has one.
TEST(ReplayBuffer, DropsLandedEpochsAndTracksHolesPerEpoch) {
  ReplayBuffer buf(/*max_bytes=*/100);
  const std::vector<std::uint8_t> a(30, 0xAA);
  EXPECT_TRUE(buf.record(1, a.data(), a.size()));
  EXPECT_TRUE(buf.record(1, a.data(), a.size()));
  EXPECT_TRUE(buf.record(2, a.data(), a.size()));
  EXPECT_EQ(buf.count(1), 2u);
  EXPECT_EQ(buf.count(2), 1u);
  // Epoch 2 overflows: a hole in epoch 2, and the rest of it is refused.
  EXPECT_FALSE(buf.record(2, a.data(), a.size()));
  EXPECT_TRUE(buf.overflowed());
  buf.drop_through(1);
  EXPECT_EQ(buf.bytes(), 30u);
  EXPECT_EQ(buf.count(1), 0u);
  EXPECT_TRUE(buf.overflowed()) << "epoch 2 still has its hole";
  const std::uint8_t tiny = 0;
  EXPECT_FALSE(buf.record(2, &tiny, 1));
  // A later epoch records again once there is room.
  EXPECT_TRUE(buf.record(3, a.data(), a.size()));
  buf.drop_through(2);
  EXPECT_FALSE(buf.overflowed());
  ASSERT_EQ(buf.batches().size(), 1u);
  EXPECT_EQ(buf.batches()[0].epoch, 3u);
  EXPECT_EQ(buf.bytes(), 30u);
}

TEST(WorkerExit, DescribesCodesAndSignals) {
  // Build real wait statuses by encoding them the way the kernel does.
  const auto exited = [](int code) { return (code & 0xff) << 8; };
  EXPECT_NE(describe_worker_exit(exited(kWorkerExitOk)).find("clean"),
            std::string::npos);
  for (const int code :
       {kWorkerExitChannel, kWorkerExitHandshake, kWorkerExitProtocol,
        kWorkerExitCorruptFrame, kWorkerExitFault}) {
    const std::string d = describe_worker_exit(exited(code));
    EXPECT_EQ(d.find("clean"), std::string::npos) << d;
    EXPECT_FALSE(d.empty());
  }
  // Distinct codes must read differently — that is the whole point.
  EXPECT_NE(describe_worker_exit(exited(kWorkerExitProtocol)),
            describe_worker_exit(exited(kWorkerExitCorruptFrame)));
  const std::string killed = describe_worker_exit(SIGKILL);  // signal 9
  EXPECT_NE(killed.find("signal"), std::string::npos) << killed;
}

// --- fault plans ----------------------------------------------------------

TEST(FaultPlanParse, AcceptsFullGrammar) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(parse_fault_plan(
      "kill:w=1,epoch=3;wedge:w=0,epoch=5,sticky;garble:w=2,epoch=1", plan,
      error))
      << error;
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kKill);
  EXPECT_EQ(plan.events[0].worker, 1u);
  EXPECT_EQ(plan.events[0].epoch, 3u);
  EXPECT_FALSE(plan.events[0].sticky);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kWedge);
  EXPECT_TRUE(plan.events[1].sticky);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kGarble);
}

TEST(FaultPlanParse, RejectsMalformedSpecs) {
  FaultPlan plan;
  std::string error;
  for (const char* bad :
       {"", "kill", "explode:w=0,epoch=1", "kill:w=0", "kill:epoch=1",
        "kill:w=x,epoch=1", "kill:w=0,epoch=0", "kill:w=0,epoch=1,bogus",
        "kill:w=0 epoch=1", "kill:w=4294967297,epoch=2",
        "kill:w=0,epoch=18446744073709551617"}) {
    error.clear();
    EXPECT_FALSE(parse_fault_plan(bad, plan, error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(FaultPlan, OneShotArmsOnlyForIncarnationZero) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(parse_fault_plan("wedge:w=1,epoch=2;drop:w=1,epoch=4,sticky",
                               plan, error))
      << error;
  EXPECT_NE(plan.match(1, 2, 0), nullptr);
  EXPECT_EQ(plan.match(1, 2, 1), nullptr);  // one-shot: respawn runs clean
  EXPECT_EQ(plan.match(0, 2, 0), nullptr);  // wrong worker
  EXPECT_EQ(plan.match(1, 3, 0), nullptr);  // wrong epoch
  EXPECT_NE(plan.match(1, 4, 0), nullptr);  // sticky: every incarnation
  EXPECT_NE(plan.match(1, 4, 7), nullptr);
}

TEST(FaultPlan, RandomizedPlanIsSeedDeterministic) {
  const FaultPlan a = randomized_fault_plan(42, 4, 6, 8);
  const FaultPlan b = randomized_fault_plan(42, 4, 6, 8);
  const FaultPlan c = randomized_fault_plan(43, 4, 6, 8);
  ASSERT_EQ(a.events.size(), 8u);
  ASSERT_EQ(b.events.size(), 8u);
  bool differs = false;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].worker, b.events[i].worker);
    EXPECT_EQ(a.events[i].epoch, b.events[i].epoch);
    EXPECT_FALSE(a.events[i].sticky);
    ASSERT_LT(a.events[i].worker, 4u);
    ASSERT_GE(a.events[i].epoch, 1u);
    ASSERT_LE(a.events[i].epoch, 6u);
    differs |= a.events[i].worker != c.events[i].worker ||
               a.events[i].epoch != c.events[i].epoch;
  }
  EXPECT_TRUE(differs);  // a different seed draws a different plan
}

// --- the recovery protocol end to end -------------------------------------

std::unique_ptr<Controller> fault_controller(InstanceId workers,
                                             std::size_t num_keys) {
  ControllerConfig ccfg;
  ccfg.planner.theta_max = 0.08;
  ccfg.stats_mode = StatsMode::kSketch;
  ccfg.sketch.heavy_capacity = 128;
  return std::make_unique<Controller>(
      AssignmentFunction(ConsistentHashRing(workers), 0),
      std::make_unique<MixedPlanner>(), ccfg, num_keys);
}

constexpr InstanceId kWorkers = 3;
constexpr int kIntervals = 3;

NetConfig fault_config(const FaultPlan& fault, int timeout_ms,
                       int max_attempts) {
  NetConfig ncfg;
  ncfg.batch_size = 64;
  ncfg.fault = fault;
  ncfg.ctrl_timeout_ms = timeout_ms;
  ncfg.heartbeat_interval_ms = 50;
  ncfg.respawn_max_attempts = max_attempts;
  return ncfg;
}

RunDigest run_with_plan(
    const FaultPlan& fault, int timeout_ms = 2'000, int max_attempts = 3,
    std::shared_ptr<OperatorLogic> logic = std::make_shared<WordCountLogic>()) {
  ZipfFluctuatingSource::Options opts;
  opts.num_keys = 1'500;
  opts.skew = 1.2;
  opts.tuples_per_interval = 8'000;
  opts.seed = 5;
  ZipfFluctuatingSource source(opts);

  NetEngine engine(fault_config(fault, timeout_ms, max_attempts),
                   std::move(logic),
                   fault_controller(kWorkers, source.num_keys()));
  const auto reports = engine.run(source, kIntervals, /*seed=*/11);
  return digest_of(engine, reports);
}

// The headline: SIGKILL one worker at EVERY epoch in turn; each recovered
// run must be byte-identical to the crash-free run.
TEST(NetRecovery, KillAtEveryEpochIsByteIdentical) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  const RunDigest clean = run_with_plan(FaultPlan{});
  ASSERT_TRUE(clean.ok) << clean.error;
  ASSERT_EQ(clean.recoveries, 0u);
  ASSERT_FALSE(clean.degraded);
  ASSERT_EQ(clean.processed, std::uint64_t(kIntervals) * 8'000u);

  for (std::uint64_t epoch = 1; epoch <= kIntervals; ++epoch) {
    FaultPlan plan;
    plan.events.push_back(
        FaultEvent{FaultKind::kKill, /*worker=*/1, epoch, /*sticky=*/false});
    const RunDigest got = run_with_plan(plan);
    expect_byte_identical(got, clean, "kill@" + std::to_string(epoch));
    EXPECT_EQ(got.recoveries, 1u) << epoch;
    EXPECT_FALSE(got.degraded) << epoch;
  }
  expect_no_children();
}

// A wedged worker (alive but silent) is only detectable by the receive
// deadline; the respawn then replays the epoch to the same bytes.
TEST(NetRecovery, WedgeDetectedByDeadlineAndRecovered) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  const RunDigest clean = run_with_plan(FaultPlan{});
  ASSERT_TRUE(clean.ok) << clean.error;

  FaultPlan plan;
  plan.events.push_back(FaultEvent{FaultKind::kWedge, 0, 2, false});
  const RunDigest got = run_with_plan(plan, /*timeout_ms=*/600);
  expect_byte_identical(got, clean, "wedge@2");
  EXPECT_EQ(got.recoveries, 1u);
  EXPECT_FALSE(got.degraded);
  expect_no_children();
}

// Garbage bytes where the boundary summary belongs: corrupt-frame
// detection recovers the worker instead of failing the engine.
TEST(NetRecovery, GarbledSummaryRecovered) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  const RunDigest clean = run_with_plan(FaultPlan{});
  ASSERT_TRUE(clean.ok) << clean.error;

  FaultPlan plan;
  plan.events.push_back(FaultEvent{FaultKind::kGarble, 2, 2, false});
  const RunDigest got = run_with_plan(plan);
  expect_byte_identical(got, clean, "garble@2");
  EXPECT_EQ(got.recoveries, 1u);
  expect_no_children();
}

// A worker that closes both channels and exits mid-epoch (clean EOF).
TEST(NetRecovery, DroppedWorkerRecovered) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  const RunDigest clean = run_with_plan(FaultPlan{});
  ASSERT_TRUE(clean.ok) << clean.error;

  FaultPlan plan;
  plan.events.push_back(FaultEvent{FaultKind::kDrop, 1, 1, false});
  const RunDigest got = run_with_plan(plan);
  expect_byte_identical(got, clean, "drop@1");
  EXPECT_EQ(got.recoveries, 1u);
  expect_no_children();
}

// Seeded random fault coordinates (the fuzz-flavored sweep): whatever the
// plan draws, the recovered run matches the clean one byte for byte.
TEST(NetRecovery, RandomizedFaultPlanStaysByteIdentical) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  const RunDigest clean = run_with_plan(FaultPlan{});
  ASSERT_TRUE(clean.ok) << clean.error;

  for (const std::uint64_t seed : {0x5eedull, 77ull}) {
    const FaultPlan plan =
        randomized_fault_plan(seed, kWorkers, kIntervals, /*count=*/2);
    ASSERT_EQ(plan.events.size(), 2u);
    const RunDigest got = run_with_plan(plan, /*timeout_ms=*/600);
    expect_byte_identical(got, clean, "seed " + std::to_string(seed));
    EXPECT_GE(got.recoveries, 1u);
  }
  expect_no_children();
}

// Retry-budget exhaustion: a STICKY wedge re-fires in every incarnation,
// so recovery can never complete the epoch; after max_attempts the worker
// is degraded away and the run still finishes with every tuple counted.
TEST(NetRecovery, StickyWedgeExhaustsBudgetAndDegrades) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  FaultPlan plan;
  plan.events.push_back(FaultEvent{FaultKind::kWedge, 1, 2, /*sticky=*/true});
  const RunDigest got =
      run_with_plan(plan, /*timeout_ms=*/400, /*max_attempts=*/2);
  ASSERT_TRUE(got.ok) << got.error;  // degradation is survival, not failure
  EXPECT_TRUE(got.degraded);
  // Mass conservation: every emitted tuple processed exactly once, the
  // dead worker's share re-homed onto the survivors.
  EXPECT_EQ(got.processed, std::uint64_t(kIntervals) * 8'000u);
  EXPECT_EQ(got.outputs, std::uint64_t(kIntervals) * 8'000u);
  EXPECT_GT(got.state_entries, 0u);
  expect_no_children();
}

// Each worker keeps exactly its latest checkpoint: after 6 intervals and
// shutdown (which awaits the checkpoint still streaming) it is epoch 6's,
// it still validates, and it is all the memory held — the bound does not
// grow with run length.
TEST(NetRecovery, CheckpointRingStaysBoundedAcrossEpochs) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  ZipfFluctuatingSource::Options opts;
  opts.num_keys = 500;
  opts.skew = 1.1;
  opts.tuples_per_interval = 2'000;
  opts.seed = 9;
  ZipfFluctuatingSource source(opts);

  NetConfig ncfg;
  ncfg.batch_size = 64;
  NetEngine engine(ncfg, std::make_shared<WordCountLogic>(),
                   fault_controller(2, source.num_keys()));
  (void)engine.run(source, /*intervals=*/6, /*seed=*/7);
  engine.shutdown();
  ASSERT_TRUE(engine.ok()) << engine.error();
  for (std::size_t w = 0; w < 2; ++w) {
    const Checkpoint& cp = engine.checkpoint_ring(w);
    EXPECT_EQ(cp.epoch, 6u) << w;
    ByteReader in(cp.payload, ByteReader::Untrusted{});
    std::uint64_t cp_epoch = 0;
    EXPECT_TRUE(check_checkpoint(in, cp_epoch) && in.exhausted()) << w;
    EXPECT_EQ(cp_epoch, 6u) << w;
    EXPECT_GT(cp.payload.size(), 0u) << w;
    EXPECT_EQ(cp.awaited, 0u) << w;
    EXPECT_EQ(cp.memory_bytes(), cp.payload.size()) << w;
  }
  expect_no_children();
}

/// WordCountLogic whose deserialize_state ends the calling worker process
/// the first time it runs while `armed` is set. The flag lives in shared
/// memory, so the first worker to deserialize disarms it for every
/// process, its respawn included. In a recovery-free run the first call
/// is a migration destination's kInstall.
class CrashOnFirstDeserialize final : public OperatorLogic {
 public:
  explicit CrashOnFirstDeserialize(std::atomic<int>* armed) : armed_(armed) {}

  [[nodiscard]] std::unique_ptr<KeyState> make_state() const override {
    return inner_.make_state();
  }
  [[nodiscard]] std::unique_ptr<KeyState> deserialize_state(
      ByteReader& in) const override {
    if (armed_->exchange(0) != 0) std::_Exit(kWorkerExitFault);
    return inner_.deserialize_state(in);
  }
  Cost process(const Tuple& tuple, KeyState& state,
               Collector& out) const override {
    return inner_.process(tuple, state, out);
  }

 private:
  WordCountLogic inner_;
  std::atomic<int>* armed_;
};

// A destination that dies while installing migrated state, before its
// InstallAck: the restore re-delivers the pending installs in place of
// the request, and the run stays byte-identical to the crash-free one.
TEST(NetRecovery, CrashDuringInstallRoundIsByteIdentical) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  const SharedFlag flag;
  std::atomic<int>* armed = flag.get();
  ASSERT_NE(armed, nullptr);
  const auto logic = std::make_shared<CrashOnFirstDeserialize>(armed);

  const RunDigest clean = run_with_plan(FaultPlan{}, 2'000, 3, logic);
  ASSERT_TRUE(clean.ok) << clean.error;
  ASSERT_EQ(clean.recoveries, 0u);
  ASSERT_GT(clean.rebalances, 0u);

  armed->store(1);
  const RunDigest got = run_with_plan(FaultPlan{}, 2'000, 3, logic);
  EXPECT_EQ(armed->load(), 0) << "no worker installed migrated state";
  expect_byte_identical(got, clean, "crash@install");
  EXPECT_EQ(got.recoveries, 1u);
  EXPECT_FALSE(got.degraded);
  EXPECT_GT(got.rebalances, 0u);
  expect_no_children();
}

/// Runs `intervals` on three workers under static_controller(), calling
/// `before_finish(i)` after interval i's tuples are ingested and before
/// its boundary. Returns the digest; `log` receives the INFO log.
RunDigest run_static(const std::vector<std::vector<Tuple>>& intervals,
                     std::shared_ptr<OperatorLogic> logic,
                     const FaultPlan& fault, int max_attempts,
                     const std::function<void(std::size_t)>& before_finish,
                     std::string& log) {
  CapturedLog capture;
  NetEngine engine(fault_config(fault, 2'000, max_attempts), std::move(logic),
                   static_controller(3));
  std::vector<IntervalReport> reports;
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    IntervalReport report = engine.ingest(intervals[i]);
    before_finish(i);
    engine.finish_interval(report);
    reports.push_back(report);
  }
  const RunDigest d = digest_of(engine, reports);
  log = capture.take();
  return d;
}

// A respawned worker that dies inside its restore is reaped with the
// cause named, then respawned again into a byte-identical run. The run
// never migrates, so the first state any worker deserializes is the
// restore's.
TEST(NetRecovery, RestoreFailureLogsItsCause) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  const SharedFlag flag;
  std::atomic<int>* armed = flag.get();
  ASSERT_NE(armed, nullptr);
  const auto logic = std::make_shared<CrashOnFirstDeserialize>(armed);
  const auto intervals = keyed_intervals(4);
  std::string log;
  const RunDigest clean =
      run_static(intervals, logic, FaultPlan{}, 3, [](std::size_t) {}, log);
  ASSERT_TRUE(clean.ok) << clean.error;

  armed->store(1);
  FaultPlan plan;
  plan.events.push_back(
      FaultEvent{FaultKind::kKill, /*worker=*/1, /*epoch=*/3, false});
  const RunDigest got =
      run_static(intervals, logic, plan, 3, [](std::size_t) {}, log);
  EXPECT_EQ(armed->load(), 0) << "no restore deserialized a state";
  expect_byte_identical(got, clean, "crash@restore");
  EXPECT_EQ(got.recoveries, 1u);
  EXPECT_NE(log.find("checkpoint restore failed: RestoreAck: worker 1 "
                     "closed its channel (crashed)"),
            std::string::npos)
      << log;
  expect_no_children();
}

/// SerializeHookLogic whose worker ends its process while serializing
/// the state of kWatchedKey, once per unit of a shared countdown: under
/// static_controller() that loses the checkpoint of an epoch whose
/// summary the driver already absorbed. The countdown lives in shared
/// memory, so it spans every incarnation. With `crashed` given, every
/// tuple costs twice as much once a worker has crashed, so a replay then
/// regenerates a different summary. With `delay_ms`, the worker stalls
/// that long before it ends. The test process itself never crashes: it
/// serializes states only when it degrades a worker.
class CrashOnCheckpoint final : public SerializeHookLogic {
 public:
  explicit CrashOnCheckpoint(std::atomic<int>* countdown,
                             std::atomic<int>* crashed = nullptr,
                             int delay_ms = 0)
      : countdown_(countdown),
        crashed_(crashed),
        delay_ms_(delay_ms),
        test_pid_(::getpid()) {}

 protected:
  void on_serialize(bool watched) const override {
    if (!watched || ::getpid() == test_pid_) return;
    int left = countdown_->load();
    while (left > 0 && !countdown_->compare_exchange_weak(left, left - 1)) {
    }
    if (left <= 0) return;
    if (crashed_ != nullptr) crashed_->store(1);
    ::usleep(static_cast<useconds_t>(delay_ms_) * 1000);
    std::_Exit(kWorkerExitFault);
  }
  [[nodiscard]] Cost cost(Cost cost) const override {
    return crashed_ != nullptr && crashed_->load() != 0 ? 2.0 * cost : cost;
  }

 private:
  std::atomic<int>* countdown_;
  std::atomic<int>* crashed_;
  int delay_ms_;
  pid_t test_pid_;
};

// A worker lost after its summary was absorbed but before its checkpoint
// landed is restored from the checkpoint before, replays the lost epoch
// and the next one, and the run stays byte-identical — whether the lost
// checkpoint is the first or a later one. A later loss is armed once the
// interval's tuples are in, by when every earlier checkpoint has landed.
TEST(NetRecovery, LossBetweenSummaryAndCheckpointReplaysTwoEpochs) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  const SharedFlag flag;
  std::atomic<int>* countdown = flag.get();
  ASSERT_NE(countdown, nullptr);
  const auto logic = std::make_shared<CrashOnCheckpoint>(countdown);
  const auto intervals = keyed_intervals(5);
  std::string log;
  const RunDigest clean =
      run_static(intervals, logic, FaultPlan{}, 3, [](std::size_t) {}, log);
  ASSERT_TRUE(clean.ok) << clean.error;
  ASSERT_EQ(clean.recoveries, 0u);

  for (const std::size_t lost : {std::size_t{0}, std::size_t{2}}) {
    const std::string epoch = std::to_string(lost + 1);
    const RunDigest got = run_static(
        intervals, logic, FaultPlan{}, 3,
        [&](std::size_t i) {
          if (i == lost) countdown->store(1);
        },
        log);
    EXPECT_EQ(countdown->load(), 0) << "no checkpoint " << epoch << " lost";
    expect_byte_identical(got, clean, "checkpoint " + epoch + " lost");
    EXPECT_EQ(got.recoveries, 1u) << epoch;
    EXPECT_FALSE(got.degraded) << epoch;
    EXPECT_NE(log.find("checkpoint " + epoch + " is lost; replaying epoch " +
                       epoch),
              std::string::npos)
        << log;
  }
  expect_no_children();
}

// The respawned worker is lost the same way while it regenerates the
// lost checkpoint, and is recovered again from the same checkpoint. The
// interval after the loss is empty and each loss stalls 200 ms first, so
// the first recovery finds no later batch to replay and returns before
// the second loss shows.
TEST(NetRecovery, SecondLossDuringTheTwoEpochReplayRecoversAgain) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  const SharedFlag flag;
  std::atomic<int>* countdown = flag.get();
  ASSERT_NE(countdown, nullptr);
  const auto logic = std::make_shared<CrashOnCheckpoint>(
      countdown, /*crashed=*/nullptr, /*delay_ms=*/200);
  auto intervals = keyed_intervals(4);
  intervals[1].clear();
  std::string log;
  const RunDigest clean =
      run_static(intervals, logic, FaultPlan{}, 3, [](std::size_t) {}, log);
  ASSERT_TRUE(clean.ok) << clean.error;

  countdown->store(2);
  const RunDigest got =
      run_static(intervals, logic, FaultPlan{}, 3, [](std::size_t) {}, log);
  EXPECT_EQ(countdown->load(), 0);
  expect_byte_identical(got, clean, "checkpoint 1 lost twice");
  EXPECT_EQ(got.recoveries, 2u);
  EXPECT_FALSE(got.degraded);
  expect_no_children();
}

// A replay that regenerates a different summary than the one absorbed
// was not deterministic: the engine fails with that reason, and every
// worker is reaped.
TEST(NetRecovery, ReplayRegeneratingADifferentSummaryFailsTheEngine) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  const SharedFlag countdown;
  const SharedFlag crashed;
  ASSERT_NE(countdown.get(), nullptr);
  ASSERT_NE(crashed.get(), nullptr);
  countdown.get()->store(1);
  std::string log;
  const RunDigest got = run_static(
      keyed_intervals(3),
      std::make_shared<CrashOnCheckpoint>(countdown.get(), crashed.get()),
      FaultPlan{}, 3, [](std::size_t) {}, log);
  EXPECT_EQ(crashed.get()->load(), 1);
  EXPECT_FALSE(got.ok);
  EXPECT_NE(got.error.find("the replay of epoch 1 regenerated a different "
                           "summary (the replay was not deterministic)"),
            std::string::npos)
      << got.error;
  expect_no_children();
}

// The same loss in every incarnation exhausts the retry budget while the
// checkpoint is outstanding. The degrade folds the lost epoch, whose
// summary was absorbed, into the states instead of re-routing it: every
// tuple is still processed and answered exactly once.
TEST(NetRecovery, StickyLossBetweenSummaryAndCheckpointDegrades) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  const SharedFlag flag;
  std::atomic<int>* countdown = flag.get();
  ASSERT_NE(countdown, nullptr);
  constexpr int kMaxAttempts = 2;
  // The first incarnation and each retry lose the checkpoint once.
  countdown->store(1 + kMaxAttempts);
  const auto intervals = keyed_intervals(4);
  std::string log;
  const RunDigest got =
      run_static(intervals, std::make_shared<CrashOnCheckpoint>(countdown),
                 FaultPlan{}, kMaxAttempts, [](std::size_t) {}, log);
  ASSERT_TRUE(got.ok) << got.error;
  EXPECT_EQ(countdown->load(), 0);
  EXPECT_TRUE(got.degraded);
  const std::uint64_t emitted = intervals.size() * intervals[0].size();
  EXPECT_EQ(got.processed, emitted);
  EXPECT_EQ(got.outputs, emitted);
  EXPECT_GT(got.state_entries, 0u);
  expect_no_children();
}

/// The value that marks the tuple a StallOnMarker worker stalls on.
constexpr std::int64_t kStallValue = 777'777;

/// WordCountLogic whose worker sleeps `stall_ms` on the first
/// kStallValue tuple it processes while `armed` is set. The flag lives in
/// shared memory, so the stall fires once per run: a killed worker's
/// respawn replays the same tuple at full speed, unless the kill landed
/// before the stall began, in which case the replay sleeps instead.
class StallOnMarker final : public OperatorLogic {
 public:
  StallOnMarker(std::atomic<int>* armed, int stall_ms)
      : armed_(armed), stall_ms_(stall_ms) {}

  [[nodiscard]] std::unique_ptr<KeyState> make_state() const override {
    return inner_.make_state();
  }
  [[nodiscard]] std::unique_ptr<KeyState> deserialize_state(
      ByteReader& in) const override {
    return inner_.deserialize_state(in);
  }
  Cost process(const Tuple& tuple, KeyState& state,
               Collector& out) const override {
    if (tuple.value == kStallValue && armed_->exchange(0) != 0) {
      ::usleep(static_cast<useconds_t>(stall_ms_) * 1000);
    }
    return inner_.process(tuple, state, out);
  }

 private:
  WordCountLogic inner_;
  std::atomic<int>* armed_;
  int stall_ms_;
};

/// Three explicit intervals for two workers. In the first, worker 1 gets
/// `w1_batches` full 64-tuple batches plus a 10-tuple partial one, and
/// the first of its tuples carries kStallValue; worker 0 gets 300 tuples.
/// The other two intervals spread 2,000 tuples over both workers' keys.
std::vector<std::vector<Tuple>> stall_intervals(std::size_t w1_batches) {
  const AssignmentFunction initial(ConsistentHashRing(2), 0);
  std::vector<KeyId> keys[2];
  for (KeyId k = 0; keys[0].size() < 40 || keys[1].size() < 40; ++k) {
    auto& bucket = keys[static_cast<std::size_t>(initial(k))];
    if (bucket.size() < 40) bucket.push_back(k);
  }
  const auto tuple = [](KeyId key, std::int64_t value) {
    Tuple t;
    t.key = key;
    t.value = value;
    return t;
  };
  std::vector<std::vector<Tuple>> intervals(3);
  const std::size_t w1_tuples = w1_batches * 64 + 10;
  for (std::size_t i = 0; i < w1_tuples; ++i) {
    intervals[0].push_back(tuple(keys[1][i % 40], i == 0 ? kStallValue : 1));
    if (i < 300) intervals[0].push_back(tuple(keys[0][i % 40], 1));
  }
  for (std::size_t n = 1; n < intervals.size(); ++n) {
    for (std::size_t i = 0; i < 2'000; ++i) {
      intervals[n].push_back(tuple(keys[i % 2][(i * 7 + n) % 40], 1));
    }
  }
  return intervals;
}

/// Runs `intervals` on two workers with StallOnMarker and returns the
/// digest plus everything the engine logged at INFO level.
RunDigest run_stall(const std::vector<std::vector<Tuple>>& intervals,
                    const FaultPlan& fault, int timeout_ms, int stall_ms,
                    std::atomic<int>* armed, std::string& log) {
  CapturedLog capture;
  NetEngine engine(fault_config(fault, timeout_ms, /*max_attempts=*/3),
                   std::make_shared<StallOnMarker>(armed, stall_ms),
                   fault_controller(2, 1'000));
  std::vector<IntervalReport> reports;
  for (const auto& tuples : intervals) {
    reports.push_back(engine.run_interval(tuples));
  }
  const RunDigest d = digest_of(engine, reports);
  log = capture.take();
  return d;
}

// A worker killed while its credit window is full is found by the
// credit wait, not by a send. Worker 1 credits its first batch and
// stalls in it (or dies before the stall begins), with kQueueBatches + 1
// full batches routed to it: the last went out on that one credit, so
// at the boundary's entry — where the kill fires — its partial batch
// waits for a credit and reads the dead worker's EOF.
TEST(NetRecovery, KillWithFullCreditWindowFoundByCreditWait) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  SharedFlag armed;
  ASSERT_NE(armed.get(), nullptr);
  const auto intervals = stall_intervals(kQueueBatches + 1);
  std::string log;
  const RunDigest clean =
      run_stall(intervals, FaultPlan{}, 2'000, 500, armed.get(), log);
  ASSERT_TRUE(clean.ok) << clean.error;
  ASSERT_EQ(clean.recoveries, 0u);

  armed.get()->store(1);
  FaultPlan plan;
  plan.events.push_back(
      FaultEvent{FaultKind::kKill, /*worker=*/1, /*epoch=*/1, false});
  const RunDigest got =
      run_stall(intervals, plan, 2'000, 500, armed.get(), log);
  EXPECT_EQ(armed.get()->load(), 0) << "worker 1 never stalled";
  expect_byte_identical(got, clean, "kill with a full window");
  EXPECT_EQ(got.recoveries, 1u);
  EXPECT_FALSE(got.degraded);
  EXPECT_NE(log.find("worker 1 closed its data channel"), std::string::npos)
      << log;
  expect_no_children();
}

// A worker that stops taking batches mid-interval is caught by the
// credit deadline while the driver still has its batches to send, then
// restored and replayed to the same bytes.
TEST(NetRecovery, MidIntervalWedgeCaughtByCreditDeadline) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  SharedFlag armed;
  ASSERT_NE(armed.get(), nullptr);
  const auto intervals = stall_intervals(3 * kQueueBatches);
  std::string log;
  const RunDigest clean =
      run_stall(intervals, FaultPlan{}, 600, 3'000, armed.get(), log);
  ASSERT_TRUE(clean.ok) << clean.error;
  ASSERT_EQ(clean.recoveries, 0u);

  armed.get()->store(1);
  const RunDigest got =
      run_stall(intervals, FaultPlan{}, 600, 3'000, armed.get(), log);
  EXPECT_EQ(armed.get()->load(), 0) << "worker 1 never stalled";
  expect_byte_identical(got, clean, "wedge mid-interval");
  EXPECT_EQ(got.recoveries, 1u);
  EXPECT_FALSE(got.degraded);
  EXPECT_NE(log.find("worker 1 missed the credit deadline"), std::string::npos)
      << log;
  expect_no_children();
}

}  // namespace
}  // namespace skewless
