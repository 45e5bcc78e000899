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
#include <memory>
#include <new>
#include <string>
#include <sys/mman.h>
#include <sys/wait.h>
#include <vector>

#include "core/controller.h"
#include "core/planners.h"
#include "net/fault_injector.h"
#include "net/net_engine.h"
#include "net/recovery.h"
#include "net/wire.h"
#include "workload/operators.h"
#include "workload/synthetic.h"

namespace skewless {
namespace {

bool tsan_enabled() {
#if defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  return true;
#endif
#endif
  return false;
}

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

/// Everything the byte-identity contract covers, harvested from one run.
struct RunDigest {
  std::uint64_t plan_digest = 0;
  std::uint64_t state_checksum = 0;
  std::size_t state_entries = 0;
  std::uint64_t processed = 0;
  std::uint64_t outputs = 0;
  std::vector<std::uint64_t> theta_bits;  // exact double bit patterns
  std::size_t rebalances = 0;
  std::uint64_t recoveries = 0;
  bool degraded = false;
  bool ok = false;
  std::string error;
};

constexpr InstanceId kWorkers = 3;
constexpr int kIntervals = 3;

RunDigest run_with_plan(
    const FaultPlan& fault, int timeout_ms = 2'000, int max_attempts = 3,
    std::shared_ptr<OperatorLogic> logic = std::make_shared<WordCountLogic>()) {
  ZipfFluctuatingSource::Options opts;
  opts.num_keys = 1'500;
  opts.skew = 1.2;
  opts.tuples_per_interval = 8'000;
  opts.seed = 5;
  ZipfFluctuatingSource source(opts);

  NetConfig ncfg;
  ncfg.batch_size = 64;
  ncfg.fault = fault;
  ncfg.ctrl_timeout_ms = timeout_ms;
  ncfg.heartbeat_interval_ms = 50;
  ncfg.respawn_max_attempts = max_attempts;
  NetEngine engine(ncfg, std::move(logic),
                   fault_controller(kWorkers, source.num_keys()));
  const auto reports = engine.run(source, kIntervals, /*seed=*/11);

  RunDigest d;
  for (const auto& r : reports) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(r.max_theta));
    std::memcpy(&bits, &r.max_theta, sizeof(bits));
    d.theta_bits.push_back(bits);
  }
  d.plan_digest = engine.controller()->plan_history_digest();
  d.rebalances = engine.controller()->rebalance_count();
  engine.shutdown();
  d.ok = engine.ok();
  d.error = engine.error();
  d.state_checksum = engine.state_checksum();
  d.state_entries = engine.total_state_entries();
  d.processed = engine.total_processed();
  d.outputs = engine.total_output_tuples();
  d.recoveries = engine.recoveries();
  d.degraded = engine.degraded();
  return d;
}

void expect_byte_identical(const RunDigest& got, const RunDigest& clean,
                           const std::string& label) {
  ASSERT_TRUE(got.ok) << label << ": " << got.error;
  EXPECT_EQ(got.plan_digest, clean.plan_digest) << label;
  EXPECT_EQ(got.state_checksum, clean.state_checksum) << label;
  EXPECT_EQ(got.state_entries, clean.state_entries) << label;
  EXPECT_EQ(got.processed, clean.processed) << label;
  EXPECT_EQ(got.outputs, clean.outputs) << label;
  ASSERT_EQ(got.theta_bits.size(), clean.theta_bits.size()) << label;
  for (std::size_t i = 0; i < clean.theta_bits.size(); ++i) {
    EXPECT_EQ(got.theta_bits[i], clean.theta_bits[i])
        << label << " θ interval " << i;
  }
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

// Each worker keeps exactly its latest checkpoint: after 6 intervals it
// is epoch 6's, it still validates, and it is all the memory held — the
// bound does not grow with run length.
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
  ASSERT_TRUE(engine.ok()) << engine.error();
  for (std::size_t w = 0; w < 2; ++w) {
    const Checkpoint& cp = engine.checkpoint_ring(w);
    EXPECT_EQ(cp.epoch, 6u) << w;
    ByteReader in(cp.payload, ByteReader::Untrusted{});
    std::uint64_t cp_epoch = 0;
    EXPECT_TRUE(check_checkpoint(in, cp_epoch) && in.exhausted()) << w;
    EXPECT_EQ(cp_epoch, 6u) << w;
    EXPECT_GT(cp.payload.size(), 0u) << w;
    EXPECT_EQ(cp.memory_bytes(), cp.payload.size()) << w;
  }
  engine.shutdown();
  ASSERT_TRUE(engine.ok()) << engine.error();
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
  static_assert(std::atomic<int>::is_always_lock_free);
  void* mem = ::mmap(nullptr, sizeof(std::atomic<int>),
                     PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(mem, MAP_FAILED);
  const std::unique_ptr<void, void (*)(void*)> unmap(
      mem, [](void* p) { ::munmap(p, sizeof(std::atomic<int>)); });
  auto* armed = new (mem) std::atomic<int>(0);
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

}  // namespace
}  // namespace skewless
