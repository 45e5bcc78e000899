// The socket engine's building blocks, bottom-up: frame headers (magic/
// version/type validation), framed channels over real socketpairs, every
// payload codec, the slab boundary-summary wire format, and finally the
// forked multi-process engine end to end. Everything that parses peer
// bytes must REJECT bad input — error returns, never aborts.
#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/serde.h"
#include "core/controller.h"
#include "core/planners.h"
#include "engine/state.h"
#include "net/channel.h"
#include "net/frame.h"
#include "net/net_engine.h"
#include "net/poller.h"
#include "net/wire.h"
#include "net_test_util.h"
#include "sketch/worker_sketch_slab.h"
#include "workload/operators.h"
#include "workload/synthetic.h"

namespace skewless {
namespace {

using testutil::keyed_intervals;
using testutil::static_controller;
using testutil::tsan_enabled;

// Every worker a NetEngine ever forked must be reaped by the time its
// shutdown returns — a zombie after the suite means an engine exit path
// skipped its waitpid.
class NoZombieEnvironment : public ::testing::Environment {
 public:
  void TearDown() override {
    const pid_t r = ::waitpid(-1, nullptr, WNOHANG);
    EXPECT_TRUE(r == -1 && errno == ECHILD)
        << "unreaped child process (waitpid returned " << r << ")";
  }
};

const ::testing::Environment* const kNoZombieEnv =
    ::testing::AddGlobalTestEnvironment(new NoZombieEnvironment);

// --- frame header ---------------------------------------------------------

TEST(FrameHeader, RoundTrip) {
  ByteWriter w;
  encode_frame_header(w, FrameType::kSummary, /*epoch=*/42,
                      /*payload_size=*/1234);
  ASSERT_EQ(w.size(), kFrameHeaderBytes);
  FrameHeader header;
  std::string error;
  ASSERT_TRUE(
      decode_frame_header(w.bytes().data(), w.size(), header, error))
      << error;
  EXPECT_EQ(header.type, FrameType::kSummary);
  EXPECT_EQ(header.epoch, 42u);
  EXPECT_EQ(header.payload_size, 1234u);
}

TEST(FrameHeader, EveryTypeRoundTrips) {
  for (std::uint8_t t = kMinFrameType; t <= kMaxFrameType; ++t) {
    ByteWriter w;
    encode_frame_header(w, static_cast<FrameType>(t), t, 0);
    FrameHeader header;
    std::string error;
    ASSERT_TRUE(
        decode_frame_header(w.bytes().data(), w.size(), header, error))
        << "type " << int(t) << ": " << error;
    EXPECT_EQ(static_cast<std::uint8_t>(header.type), t);
    EXPECT_STRNE(frame_type_name(header.type), "");
  }
}

TEST(FrameHeader, RejectsBadMagic) {
  ByteWriter w;
  encode_frame_header(w, FrameType::kBatch, 0, 0);
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes[0] ^= 0xff;
  FrameHeader header;
  std::string error;
  EXPECT_FALSE(decode_frame_header(bytes.data(), bytes.size(), header, error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(FrameHeader, RejectsVersionMismatch) {
  ByteWriter w;
  encode_frame_header(w, FrameType::kBatch, 0, 0);
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes[4] = kWireVersion + 1;  // version byte follows the u32 magic
  FrameHeader header;
  std::string error;
  EXPECT_FALSE(decode_frame_header(bytes.data(), bytes.size(), header, error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(FrameHeader, RejectsUnknownType) {
  ByteWriter w;
  encode_frame_header(w, FrameType::kBatch, 0, 0);
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes[5] = kMaxFrameType + 1;
  FrameHeader header;
  std::string error;
  EXPECT_FALSE(decode_frame_header(bytes.data(), bytes.size(), header, error));
  EXPECT_NE(error.find("type"), std::string::npos) << error;
  bytes[5] = 0;
  EXPECT_FALSE(decode_frame_header(bytes.data(), bytes.size(), header, error));
}

TEST(FrameHeader, RejectsOversizedPayload) {
  ByteWriter w;
  encode_frame_header(w, FrameType::kBatch, 0, kMaxFramePayload + 1);
  FrameHeader header;
  std::string error;
  EXPECT_FALSE(
      decode_frame_header(w.bytes().data(), w.size(), header, error));
  EXPECT_NE(error.find("payload"), std::string::npos) << error;
}

TEST(FrameHeader, RejectsTruncation) {
  ByteWriter w;
  encode_frame_header(w, FrameType::kBatch, 0, 0);
  FrameHeader header;
  std::string error;
  for (std::size_t n = 0; n < kFrameHeaderBytes; ++n) {
    EXPECT_FALSE(decode_frame_header(w.bytes().data(), n, header, error))
        << "accepted a " << n << "-byte header";
  }
}

// --- FrameChannel over a real socketpair ----------------------------------

TEST(FrameChannel, SendRecvOverSocketPair) {
  int fds[2];
  std::string error;
  ASSERT_TRUE(make_socket_pair(fds, error)) << error;
  FrameChannel a(fds[0]);
  FrameChannel b(fds[1]);

  ByteWriter payload;
  payload.u64(0x1234);
  payload.str("frame me");
  ASSERT_TRUE(a.send(FrameType::kSeal, /*epoch=*/7, payload))
      << a.last_error();

  FrameHeader header;
  std::vector<std::uint8_t> got;
  ASSERT_TRUE(b.recv(header, got)) << b.last_error();
  EXPECT_EQ(header.type, FrameType::kSeal);
  EXPECT_EQ(header.epoch, 7u);
  ASSERT_EQ(got.size(), payload.size());
  EXPECT_EQ(0, std::memcmp(got.data(), payload.bytes().data(), got.size()));
  EXPECT_EQ(a.bytes_sent(), kFrameHeaderBytes + payload.size());
  EXPECT_EQ(b.bytes_received(), a.bytes_sent());
}

TEST(FrameChannel, EmptyPayloadFrame) {
  int fds[2];
  std::string error;
  ASSERT_TRUE(make_socket_pair(fds, error)) << error;
  FrameChannel a(fds[0]);
  FrameChannel b(fds[1]);
  ASSERT_TRUE(a.send(FrameType::kStop, 0, nullptr, 0)) << a.last_error();
  FrameHeader header;
  std::vector<std::uint8_t> got;
  ASSERT_TRUE(b.recv(header, got)) << b.last_error();
  EXPECT_EQ(header.type, FrameType::kStop);
  EXPECT_TRUE(got.empty());
}

// A payload bigger than the kernel socket buffer: the sender must loop
// over partial writes while the receiver drains — exactly what a
// boundary summary does on a small SO_SNDBUF.
TEST(FrameChannel, LargePayloadCrossesSocketBufferBoundary) {
  int fds[2];
  std::string error;
  ASSERT_TRUE(make_socket_pair(fds, error)) << error;
  FrameChannel a(fds[0]);
  FrameChannel b(fds[1]);

  std::vector<std::uint8_t> big(4u << 20);  // 4 MiB >> default SO_SNDBUF
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
  }
  std::thread sender([&] {
    ASSERT_TRUE(a.send(FrameType::kSummary, 3, big.data(), big.size()))
        << a.last_error();
  });
  FrameHeader header;
  std::vector<std::uint8_t> got;
  ASSERT_TRUE(b.recv(header, got)) << b.last_error();
  sender.join();
  EXPECT_EQ(header.type, FrameType::kSummary);
  ASSERT_EQ(got.size(), big.size());
  EXPECT_EQ(0, std::memcmp(got.data(), big.data(), big.size()));
}

TEST(FrameChannel, RecvRejectsCorruptHeaderWithoutAborting) {
  int fds[2];
  std::string error;
  ASSERT_TRUE(make_socket_pair(fds, error)) << error;
  FrameChannel a(fds[0]);
  FrameChannel b(fds[1]);
  // Raw garbage bytes shaped like a header-sized chunk.
  std::vector<std::uint8_t> junk(kFrameHeaderBytes, 0xEE);
  ASSERT_TRUE(a.send(FrameType::kHello, 0, junk.data(), 0));  // header only
  // Overwrite with junk via a second raw frame is awkward through the
  // API; instead send a valid frame then corrupt expectations: write
  // junk directly through the fd.
  FrameHeader header;
  std::vector<std::uint8_t> got;
  ASSERT_TRUE(b.recv(header, got));
  ::ssize_t n = ::write(a.fd(), junk.data(), junk.size());
  ASSERT_EQ(n, static_cast<::ssize_t>(junk.size()));
  EXPECT_FALSE(b.recv(header, got));
  EXPECT_FALSE(b.last_error().empty());
}

TEST(FrameChannel, RecvReportsEof) {
  int fds[2];
  std::string error;
  ASSERT_TRUE(make_socket_pair(fds, error)) << error;
  FrameChannel b(fds[1]);
  {
    FrameChannel a(fds[0]);
  }  // destructor closes the peer
  FrameHeader header;
  std::vector<std::uint8_t> got;
  EXPECT_FALSE(b.recv(header, got));
  EXPECT_FALSE(b.last_error().empty());
}

// The window's accounting over a real socketpair: sends go out freely up
// to the limit, the next one waits out the deadline, and each credit the
// peer writes back reopens one slot. reset() starts a new peer's counts
// and keeps the high-water mark.
TEST(CreditWindow, HoldsTheLimitAndReopensOnEachCredit) {
  int fds[2];
  std::string error;
  ASSERT_TRUE(make_socket_pair(fds, error)) << error;
  FrameChannel driver(fds[0]);
  FrameChannel worker(fds[1]);
  CreditWindow window(/*limit=*/2);
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(window.acquire(driver, 1'000), "");
    window.sent();
  }
  EXPECT_EQ(window.in_flight(), 2u);
  EXPECT_NE(window.acquire(driver, 20).find("credit deadline"),
            std::string::npos);

  ASSERT_TRUE(worker.send(FrameType::kCredit, 1, nullptr, 0));
  ASSERT_EQ(window.acquire(driver, 1'000), "");
  EXPECT_EQ(window.in_flight(), 1u);
  window.sent();
  // Two credits at once (counts 2 and 3) are both taken before the send.
  ASSERT_TRUE(worker.send(FrameType::kCredit, 2, nullptr, 0));
  ASSERT_TRUE(worker.send(FrameType::kCredit, 3, nullptr, 0));
  ASSERT_EQ(window.acquire(driver, 1'000), "");
  EXPECT_EQ(window.in_flight(), 0u);
  EXPECT_EQ(window.high_water(), 2u);

  window.reset();
  EXPECT_EQ(window.in_flight(), 0u);
  EXPECT_EQ(window.high_water(), 2u);
}

TEST(Poller, ReportsReadableChannels) {
  int fds_a[2];
  int fds_b[2];
  std::string error;
  ASSERT_TRUE(make_socket_pair(fds_a, error)) << error;
  ASSERT_TRUE(make_socket_pair(fds_b, error)) << error;
  FrameChannel a0(fds_a[0]), a1(fds_a[1]);
  FrameChannel b0(fds_b[0]), b1(fds_b[1]);

  Poller poller;
  poller.add(a1.fd(), /*token=*/10);
  poller.add(b1.fd(), /*token=*/20);
  std::vector<int> ready;
  ASSERT_TRUE(poller.wait(0, ready));
  EXPECT_TRUE(ready.empty());

  ASSERT_TRUE(b0.send(FrameType::kSeal, 0, nullptr, 0));
  ASSERT_TRUE(poller.wait(1000, ready));
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], 20);

  ASSERT_TRUE(a0.send(FrameType::kSeal, 0, nullptr, 0));
  ASSERT_TRUE(poller.wait(1000, ready));
  ASSERT_EQ(ready.size(), 2u);  // registration order
  EXPECT_EQ(ready[0], 10);
  EXPECT_EQ(ready[1], 20);
}

// --- payload codecs -------------------------------------------------------

TEST(WirePayloads, TupleBatchRoundTrip) {
  std::vector<Tuple> tuples;
  for (int i = 0; i < 100; ++i) {
    Tuple t;
    t.key = static_cast<KeyId>(i * 7919);
    t.value = i - 50;
    t.emit_micros = i * 1000;
    t.stream = static_cast<std::uint32_t>(i % 3);
    tuples.push_back(t);
  }
  ByteWriter w;
  encode_tuple_batch(w, tuples);
  ByteReader r(w.bytes(), ByteReader::Untrusted{});
  std::vector<Tuple> got;
  ASSERT_TRUE(decode_tuple_batch(r, got));
  EXPECT_TRUE(r.exhausted());
  ASSERT_EQ(got.size(), tuples.size());
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    EXPECT_EQ(got[i].key, tuples[i].key);
    EXPECT_EQ(got[i].value, tuples[i].value);
    EXPECT_EQ(got[i].emit_micros, tuples[i].emit_micros);
    EXPECT_EQ(got[i].stream, tuples[i].stream);
  }
}

TEST(WirePayloads, TupleBatchRejectsImpossibleCount) {
  ByteWriter w;
  w.u32(1'000'000);  // count with no tuples behind it
  ByteReader r(w.bytes(), ByteReader::Untrusted{});
  std::vector<Tuple> got;
  EXPECT_FALSE(decode_tuple_batch(r, got));
}

TEST(WirePayloads, HelloSealExpireAckFinRoundTrip) {
  {
    ByteWriter w;
    encode_hello(w, HelloPayload{3, 8});
    ByteReader r(w.bytes(), ByteReader::Untrusted{});
    HelloPayload got;
    ASSERT_TRUE(decode_hello(r, got));
    EXPECT_EQ(got.worker_id, 3u);
    EXPECT_EQ(got.num_workers, 8u);
  }
  {
    ByteWriter w;
    encode_seal(w, SealPayload{997});
    ByteReader r(w.bytes(), ByteReader::Untrusted{});
    SealPayload got;
    ASSERT_TRUE(decode_seal(r, got));
    EXPECT_EQ(got.batches, 997u);
  }
  {
    ByteWriter w;
    encode_expire(w, Micros{123456789});
    ByteReader r(w.bytes(), ByteReader::Untrusted{});
    Micros got = 0;
    ASSERT_TRUE(decode_expire(r, got));
    EXPECT_EQ(got, 123456789);
  }
  {
    ByteWriter w;
    encode_ack(w, AckPayload{0xabcdef});
    ByteReader r(w.bytes(), ByteReader::Untrusted{});
    AckPayload got;
    ASSERT_TRUE(decode_ack(r, got));
    EXPECT_EQ(got.seq, 0xabcdefu);
  }
  {
    ByteWriter w;
    encode_fin(w, FinPayload{111, 222, 333, 444});
    ByteReader r(w.bytes(), ByteReader::Untrusted{});
    FinPayload got;
    ASSERT_TRUE(decode_fin(r, got));
    EXPECT_EQ(got.state_checksum, 111u);
    EXPECT_EQ(got.state_entries, 222u);
    EXPECT_EQ(got.processed, 333u);
    EXPECT_EQ(got.outputs, 444u);
  }
}

TEST(WirePayloads, KeyListRoundTrip) {
  const std::vector<KeyId> keys = {0, 1, 0xffffffffffffffffULL, 42, 42};
  ByteWriter w;
  encode_key_list(w, keys);
  ByteReader r(w.bytes(), ByteReader::Untrusted{});
  std::vector<KeyId> got;
  ASSERT_TRUE(decode_key_list(r, got));
  EXPECT_EQ(got, keys);
  EXPECT_TRUE(r.exhausted());
}

TEST(WirePayloads, KeyStatesRoundTripOpaqueBlobs) {
  std::vector<WireKeyState> states;
  for (int i = 0; i < 5; ++i) {
    WireKeyState s;
    s.key = static_cast<KeyId>(1000 + i);
    s.blob.assign(static_cast<std::size_t>(i * 17), std::uint8_t(i));
    states.push_back(std::move(s));
  }
  ByteWriter w;
  encode_key_states(w, states);
  ByteReader r(w.bytes(), ByteReader::Untrusted{});
  std::vector<WireKeyState> got;
  ASSERT_TRUE(decode_key_states(r, got));
  ASSERT_EQ(got.size(), states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    EXPECT_EQ(got[i].key, states[i].key);
    EXPECT_EQ(got[i].blob, states[i].blob);
  }
}

/// A WordCount state with `tuples` buffered tuples; `expire` then drops
/// them all, leaving the count but an empty window.
std::unique_ptr<WordCountState> word_count_state(std::size_t tuples,
                                                 bool expire) {
  auto state = std::make_unique<WordCountState>();
  for (std::size_t t = 0; t < tuples; ++t) {
    state->add(static_cast<Micros>(t * 1000), static_cast<std::int64_t>(t));
  }
  if (expire) state->expire_before(std::numeric_limits<Micros>::max());
  return state;
}

/// The WireKeyState form of `states`, serialized one blob per key — what
/// the workers built before writing a key-state list.
template <typename States>
std::vector<WireKeyState> to_wire(const States& states) {
  std::vector<WireKeyState> out;
  for (const auto& [key, state] : states) {
    WireKeyState wire;
    wire.key = key;
    ByteWriter blob;
    state->serialize(blob);
    wire.blob = blob.take();
    out.push_back(std::move(wire));
  }
  return out;
}

// The worker encodes its checkpoint straight from its StateStore; the
// bytes must equal encode_checkpoint of the equivalent CheckpointPayload
// — for an empty store, and for stores holding states with an empty
// window (never fed, or fully expired) — and decode back.
TEST(WirePayloads, StoreCheckpointMatchesPayloadEncoding) {
  ByteWriter blob;  // reused across encodes, as the worker reuses it
  for (const std::size_t keys : {0u, 1u, 300u}) {
    StateStore store;
    for (std::size_t i = 0; i < keys; ++i) {
      store.install(static_cast<KeyId>(i * 31 + 1),
                    word_count_state(i % 7, /*expire=*/i % 5 == 0));
    }
    CheckpointCounters counters;
    counters.epoch = 3 + keys;
    counters.processed = 1'000 * keys;
    counters.outputs = 990 * keys;
    counters.local_buckets = 256;
    counters.state_checksum = store.checksum();
    ByteWriter direct;
    encode_store_checkpoint(direct, counters, store, blob);

    CheckpointPayload cp;
    static_cast<CheckpointCounters&>(cp) = counters;
    cp.states = to_wire(store.states());
    ByteWriter via_payload;
    encode_checkpoint(via_payload, cp);
    EXPECT_EQ(direct.bytes(), via_payload.bytes()) << keys << " keys";

    ByteReader r(direct.bytes(), ByteReader::Untrusted{});
    CheckpointPayload back;
    ASSERT_TRUE(decode_checkpoint(r, back));
    EXPECT_TRUE(r.exhausted());
    EXPECT_EQ(back.epoch, counters.epoch);
    EXPECT_EQ(back.states.size(), keys);
  }
}

// The worker's kMigrated reply, written from the extracted states, must
// equal encode_key_states of their serialized blobs.
TEST(WirePayloads, ExtractedStatesMatchKeyStatesEncoding) {
  ByteWriter blob;
  for (const std::size_t keys : {0u, 6u}) {
    std::vector<std::pair<KeyId, std::unique_ptr<KeyState>>> extracted;
    for (std::size_t i = 0; i < keys; ++i) {
      extracted.emplace_back(static_cast<KeyId>(500 + i),
                             word_count_state(i * 3, /*expire=*/i == 2));
    }
    ByteWriter direct;
    encode_extracted_states(direct, extracted, blob);
    ByteWriter via_wire;
    encode_key_states(via_wire, to_wire(extracted));
    EXPECT_EQ(direct.bytes(), via_wire.bytes()) << keys << " keys";
  }
}

// A replay's regenerated summary is checked with its latency sum zeroed,
// the one field read off the wall clock: the sum must sit where
// kLatencySumOffset says.
TEST(WirePayloads, SummaryLatencySumSitsAtItsOffset) {
  SketchStatsConfig cfg;
  cfg.heavy_capacity = 8;
  WorkerSketchSlab slab(cfg);
  slab.scalars().processed = 7;
  slab.scalars().latency_sum_us = 12'345.5;
  ByteWriter w;
  slab.serialize(w);
  constexpr std::size_t kAt = WorkerSketchSlab::kLatencySumOffset;
  double sum = 0.0;
  ASSERT_GE(w.size(), kAt + sizeof(sum));
  std::memcpy(&sum, w.bytes().data() + kAt, sizeof(sum));
  EXPECT_EQ(sum, 12'345.5);
}

TEST(WirePayloads, PlanRoundTrip) {
  PlanPayload plan;
  plan.seq = 77;
  for (int i = 0; i < 12; ++i) {
    KeyMove m;
    m.key = static_cast<KeyId>(i * 31);
    m.from = i % 4;
    m.to = (i + 1) % 4;
    m.state_bytes = i * 128.0;
    plan.moves.push_back(m);
  }
  ByteWriter w;
  encode_plan(w, plan);
  ByteReader r(w.bytes(), ByteReader::Untrusted{});
  PlanPayload got;
  ASSERT_TRUE(decode_plan(r, got));
  EXPECT_EQ(got.seq, plan.seq);
  ASSERT_EQ(got.moves.size(), plan.moves.size());
  for (std::size_t i = 0; i < plan.moves.size(); ++i) {
    EXPECT_EQ(got.moves[i].key, plan.moves[i].key);
    EXPECT_EQ(got.moves[i].from, plan.moves[i].from);
    EXPECT_EQ(got.moves[i].to, plan.moves[i].to);
    EXPECT_EQ(got.moves[i].state_bytes, plan.moves[i].state_bytes);
  }
}

// --- boundary summary (slab) wire format ----------------------------------

WorkerSketchSlab make_filled_slab(const SketchStatsConfig& cfg,
                                  std::uint64_t salt) {
  WorkerSketchSlab slab(cfg);
  std::unordered_map<KeyId, WorkerSketchSlab::KeyAgg> batch;
  for (std::uint64_t i = 0; i < 500; ++i) {
    auto& agg = batch[i * 2654435761u + salt];
    agg.cost = static_cast<double>(i % 97) + 0.5;
    agg.state_bytes = static_cast<double>(i % 13) * 8.0;
    agg.frequency = 1 + i % 7;
  }
  slab.add_batch(batch);
  auto& sc = slab.scalars();
  sc.processed = 500;
  sc.latency_sum_us = 123.75;
  sc.latency_samples = 500;
  slab.set_epoch(9);
  return slab;
}

TEST(SlabWire, SerializeDeserializeReserialize) {
  SketchStatsConfig cfg;
  cfg.heavy_capacity = 64;
  const WorkerSketchSlab slab = make_filled_slab(cfg, 17);

  ByteWriter w1;
  slab.serialize(w1);
  WorkerSketchSlab restored(cfg);
  ByteReader r(w1.bytes(), ByteReader::Untrusted{});
  ASSERT_TRUE(restored.deserialize_from(r));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(restored.epoch(), slab.epoch());
  EXPECT_EQ(restored.scalars().processed, slab.scalars().processed);

  // The decisive check: the round-tripped slab re-serializes to the
  // SAME bytes — the encoding is canonical, nothing is lost.
  ByteWriter w2;
  restored.serialize(w2);
  ASSERT_EQ(w1.size(), w2.size());
  EXPECT_EQ(0,
            std::memcmp(w1.bytes().data(), w2.bytes().data(), w1.size()));
}

TEST(SlabWire, RejectsGeometryMismatch) {
  SketchStatsConfig cfg;
  cfg.heavy_capacity = 64;
  const WorkerSketchSlab slab = make_filled_slab(cfg, 17);
  ByteWriter w;
  slab.serialize(w);

  SketchStatsConfig other = cfg;
  other.epsilon = cfg.epsilon * 4;  // different Count-Min width
  WorkerSketchSlab wrong(other);
  ByteReader r(w.bytes(), ByteReader::Untrusted{});
  EXPECT_FALSE(wrong.deserialize_from(r));
  EXPECT_FALSE(r.ok());
}

TEST(SlabWire, RejectsTruncation) {
  SketchStatsConfig cfg;
  cfg.heavy_capacity = 64;
  const WorkerSketchSlab slab = make_filled_slab(cfg, 17);
  ByteWriter w;
  slab.serialize(w);
  // Chop the tail off at several depths; every prefix must be rejected
  // without aborting.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{33}, w.size() / 2,
        w.size() - 1}) {
    WorkerSketchSlab target(cfg);
    ByteReader r(w.bytes().data(), keep, ByteReader::Untrusted{});
    EXPECT_FALSE(target.deserialize_from(r)) << "prefix " << keep;
  }
}

TEST(SlabWire, RejectsDuplicateCandidateKey) {
  SketchStatsConfig cfg;
  cfg.heavy_capacity = 64;
  const WorkerSketchSlab slab = make_filled_slab(cfg, 17);
  ByteWriter w;
  slab.serialize(w);
  std::vector<std::uint8_t> bytes = w.bytes();
  // Summary layout: 96 bytes of scalars, a u32 hot count, 32 bytes per
  // hot entry, then f64 total, f64 offset and a u32 count, then 24 bytes
  // per candidate (u64 key first).
  const auto read_u32 = [&](std::size_t at) {
    std::uint32_t v = 0;
    std::memcpy(&v, bytes.data() + at, sizeof(v));
    return v;
  };
  const std::size_t hot_n = read_u32(96);
  const std::size_t count_at = 96 + 4 + 32 * hot_n + 16;
  ASSERT_GE(read_u32(count_at), 2u);
  const std::size_t first_key = count_at + 4;
  std::memcpy(bytes.data() + first_key + 24, bytes.data() + first_key,
              sizeof(KeyId));

  WorkerSketchSlab target(cfg);
  ByteReader r(bytes, ByteReader::Untrusted{});
  EXPECT_FALSE(target.deserialize_from(r));
  EXPECT_FALSE(r.ok());
}

// --- the engine end to end ------------------------------------------------

std::unique_ptr<Controller> test_controller(InstanceId workers,
                                            std::size_t num_keys) {
  ControllerConfig ccfg;
  ccfg.planner.theta_max = 0.08;
  ccfg.stats_mode = StatsMode::kSketch;
  ccfg.sketch.heavy_capacity = 128;
  return std::make_unique<Controller>(
      AssignmentFunction(ConsistentHashRing(workers), 0),
      std::make_unique<MixedPlanner>(), ccfg, num_keys);
}

/// WordCount that busy-waits `spin_us` per tuple, so the workers fall
/// behind the driver and every data channel fills its credit window.
class SpinWordCountLogic final : public OperatorLogic {
 public:
  explicit SpinWordCountLogic(double spin_us) : spin_us_(spin_us) {}

  [[nodiscard]] std::unique_ptr<KeyState> make_state() const override {
    return inner_.make_state();
  }
  [[nodiscard]] std::unique_ptr<KeyState> deserialize_state(
      ByteReader& in) const override {
    return inner_.deserialize_state(in);
  }
  Cost process(const Tuple& tuple, KeyState& state,
               Collector& out) const override {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::nanoseconds(static_cast<long long>(spin_us_ * 1000.0));
    while (std::chrono::steady_clock::now() < deadline) {
    }
    return inner_.process(tuple, state, out);
  }

 private:
  WordCountLogic inner_;
  double spin_us_;
};

// The data channel's bound is exact and used: with workers slower than
// the driver, each worker's window fills to kQueueBatches uncredited
// batches and never past it, whatever the batch's size in bytes — the
// kernel's socket buffer holds many 64-tuple frames but few 1024-tuple
// ones, and neither sets the bound.
TEST(NetEngine, CreditWindowHoldsExactlyQueueBatches) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  for (const std::size_t batch : {std::size_t{64}, std::size_t{256},
                                  std::size_t{1024}}) {
    NetConfig ncfg;
    ncfg.batch_size = batch;
    // 50 us per tuple keeps the workers well behind the driver even in
    // an unoptimized ASan build.
    NetEngine engine(ncfg, std::make_shared<SpinWordCountLogic>(50.0),
                     test_controller(2, 1'000));
    // ~16 batches per worker: the window fills several times over.
    std::vector<Tuple> tuples(32 * batch);
    for (std::size_t i = 0; i < tuples.size(); ++i) {
      tuples[i].key = static_cast<KeyId>(i % 997);
      tuples[i].value = 1;
    }
    const IntervalReport report = engine.run_interval(tuples);
    ASSERT_TRUE(engine.ok()) << engine.error();
    EXPECT_EQ(report.processed, tuples.size()) << batch;
    for (std::size_t w = 0; w < 2; ++w) {
      EXPECT_EQ(engine.data_window_high_water(w), kQueueBatches)
          << "batch " << batch << ", worker " << w;
    }
    engine.shutdown();
    ASSERT_TRUE(engine.ok()) << engine.error();
  }
}

// The boundary waits for summaries only: each worker's checkpoint of the
// epoch just sealed streams back behind the next interval's batches. The
// run never migrates, so no boundary awaits a checkpoint it just sealed.
TEST(NetEngine, CheckpointLandsDuringTheNextInterval) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  NetConfig ncfg;
  ncfg.batch_size = 64;
  NetEngine engine(ncfg, std::make_shared<WordCountLogic>(),
                   static_controller(3));
  const auto intervals = keyed_intervals(3);
  (void)engine.run_interval(intervals[0]);
  for (std::uint64_t k = 1; k < intervals.size(); ++k) {
    ASSERT_TRUE(engine.ok()) << engine.error();
    for (std::size_t w = 0; w < 3; ++w) {
      EXPECT_EQ(engine.checkpoint_ring(w).epoch, k - 1) << w;
      EXPECT_EQ(engine.checkpoint_ring(w).awaited, k) << w;
    }
    // Each worker takes well over a credit window of batches, so the
    // driver reads a credit its worker sent after the whole checkpoint.
    IntervalReport report = engine.ingest(intervals[k]);
    ASSERT_TRUE(engine.ok()) << engine.error();
    for (std::size_t w = 0; w < 3; ++w) {
      EXPECT_EQ(engine.checkpoint_ring(w).epoch, k) << w;
      EXPECT_EQ(engine.checkpoint_ring(w).awaited, 0u) << w;
    }
    engine.finish_interval(report);
  }
  engine.shutdown();
  ASSERT_TRUE(engine.ok()) << engine.error();
}

TEST(NetEngine, RunsIntervalsAndShutsDownCleanly) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  ZipfFluctuatingSource::Options opts;
  opts.num_keys = 2'000;
  opts.skew = 1.1;
  opts.tuples_per_interval = 10'000;
  opts.seed = 5;
  ZipfFluctuatingSource source(opts);

  NetConfig ncfg;
  ncfg.batch_size = 64;
  NetEngine engine(ncfg, std::make_shared<WordCountLogic>(),
                   test_controller(3, source.num_keys()));
  const auto reports = engine.run(source, 3, /*seed=*/11);
  ASSERT_TRUE(engine.ok()) << engine.error();
  ASSERT_EQ(reports.size(), 3u);
  std::uint64_t processed = 0;
  for (const auto& r : reports) {
    processed += r.processed;
    EXPECT_GT(r.data_wire_bytes, 0u);
    EXPECT_GT(r.ctrl_wire_bytes, 0u);
    EXPECT_GT(r.max_theta, 0.0);
  }
  EXPECT_EQ(processed, 30'000u);
  EXPECT_GT(engine.controller()->rebalance_count(), 0u);

  engine.shutdown();
  ASSERT_TRUE(engine.ok()) << engine.error();
  EXPECT_GT(engine.state_checksum(), 0u);
  EXPECT_GT(engine.total_state_entries(), 0u);
  EXPECT_EQ(engine.total_processed(), 30'000u);
}

TEST(NetEngine, RollTimeIsPartOfTheBoundaryStall) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  ZipfFluctuatingSource::Options opts;
  opts.num_keys = 2'000;
  opts.skew = 1.1;
  opts.tuples_per_interval = 5'000;
  opts.seed = 8;
  ZipfFluctuatingSource source(opts);

  NetConfig ncfg;
  ncfg.batch_size = 64;
  NetEngine engine(ncfg, std::make_shared<WordCountLogic>(),
                   test_controller(3, source.num_keys()));
  const auto reports = engine.run(source, 4, /*seed=*/3);
  ASSERT_TRUE(engine.ok()) << engine.error();
  ASSERT_EQ(reports.size(), 4u);
  for (const auto& r : reports) {
    EXPECT_GT(r.roll_ms, 0.0) << r.interval;
    EXPECT_LE(r.roll_ms, r.stall_ms) << r.interval;
  }
  engine.shutdown();
  ASSERT_TRUE(engine.ok()) << engine.error();
}

TEST(NetEngine, MigrationMovesStateBetweenProcesses) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  // A heavily skewed source forces the planner to move hot keys between
  // worker PROCESSES — serialized state crossing real sockets.
  ZipfFluctuatingSource::Options opts;
  opts.num_keys = 1'000;
  opts.skew = 1.4;
  opts.tuples_per_interval = 20'000;
  opts.fluctuation = 0.8;
  opts.seed = 23;
  ZipfFluctuatingSource source(opts);

  NetConfig ncfg;
  ncfg.batch_size = 64;
  NetEngine engine(ncfg, std::make_shared<WordCountLogic>(),
                   test_controller(4, source.num_keys()));
  const auto reports = engine.run(source, 4, /*seed=*/3);
  ASSERT_TRUE(engine.ok()) << engine.error();
  bool migrated = false;
  Bytes wire_bytes = 0;
  for (const auto& r : reports) {
    migrated |= r.migrated;
    wire_bytes += r.migration_wire_bytes;
  }
  EXPECT_TRUE(migrated);
  EXPECT_GT(wire_bytes, 0.0);  // serialized blobs actually crossed a socket
  engine.shutdown();
  ASSERT_TRUE(engine.ok()) << engine.error();
}

TEST(NetEngine, BroadcastPlanAcksMidInterval) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  NetConfig ncfg;
  ncfg.batch_size = 32;
  NetEngine engine(ncfg, std::make_shared<WordCountLogic>(),
                   test_controller(2, 500));

  // Open an interval by ingesting tuples WITHOUT closing it, then probe
  // the control channel while data may still be queued.
  std::vector<Tuple> tuples;
  for (int i = 0; i < 5'000; ++i) {
    Tuple t;
    t.key = static_cast<KeyId>(i % 500);
    t.value = 1;
    tuples.push_back(t);
  }
  auto report = engine.ingest(tuples);
  ASSERT_TRUE(engine.ok()) << engine.error();

  RebalancePlan plan;
  plan.assignment.assign(2, 0);
  KeyMove move;
  move.key = 7;
  move.from = 0;
  move.to = 1;
  plan.moves.push_back(move);
  const double rtt_ms = engine.broadcast_plan(plan, /*seq=*/99);
  EXPECT_GE(rtt_ms, 0.0) << engine.error();

  engine.finish_interval(report);
  ASSERT_TRUE(engine.ok()) << engine.error();
  EXPECT_EQ(report.processed, 5'000u);
  engine.shutdown();
  ASSERT_TRUE(engine.ok()) << engine.error();
}

TEST(NetEngine, ExpiryFramesPruneWindows) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  NetConfig ncfg;
  ncfg.batch_size = 32;
  ncfg.expire_lag_intervals = 1;
  NetEngine engine(ncfg, std::make_shared<WordCountLogic>(),
                   test_controller(2, 200));
  for (int interval = 0; interval < 3; ++interval) {
    std::vector<Tuple> tuples;
    for (int i = 0; i < 1'000; ++i) {
      Tuple t;
      t.key = static_cast<KeyId>(i % 200);
      t.value = 1;
      tuples.push_back(t);
    }
    engine.run_interval(tuples);
    ASSERT_TRUE(engine.ok()) << engine.error();
  }
  engine.shutdown();
  ASSERT_TRUE(engine.ok()) << engine.error();
  // WordCount state survives expiry (counts are not windowed), so the
  // assertion is just that expiry frames did not wedge the protocol.
  EXPECT_EQ(engine.total_processed(), 3'000u);
}

}  // namespace
}  // namespace skewless
