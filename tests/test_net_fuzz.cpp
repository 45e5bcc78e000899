// Randomized robustness suite for the wire layer, run under the `fuzz`
// CTest label: every decoder that parses peer bytes is fed (a) every
// truncation prefix and (b) hundreds of seeded single/multi-byte
// corruptions of valid encodings. The contract under test is uniform —
// a decoder either accepts the input or returns false with the reader's
// sticky error flag set; it NEVER aborts, over-allocates, or reads out
// of bounds (ASan enforces the last one on the CI debug-asan leg).
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "common/serde.h"
#include "net/frame.h"
#include "net/wire.h"
#include "sketch/worker_sketch_slab.h"

namespace skewless {
namespace {

/// One valid encoding of every payload kind, by index. Returning a fresh
/// copy per call keeps corruption runs independent.
std::vector<std::vector<std::uint8_t>> valid_payloads() {
  std::vector<std::vector<std::uint8_t>> out;
  {
    std::vector<Tuple> tuples;
    for (int i = 0; i < 40; ++i) {
      Tuple t;
      t.key = static_cast<KeyId>(i * 2654435761u);
      t.value = i - 20;
      t.emit_micros = i * 777;
      t.stream = static_cast<std::uint32_t>(i & 1);
      tuples.push_back(t);
    }
    ByteWriter w;
    encode_tuple_batch(w, tuples);
    out.push_back(w.bytes());
  }
  {
    ByteWriter w;
    encode_hello(w, HelloPayload{2, 6});
    out.push_back(w.bytes());
  }
  {
    ByteWriter w;
    encode_seal(w, SealPayload{314});
    out.push_back(w.bytes());
  }
  {
    ByteWriter w;
    encode_key_list(w, {1, 2, 3, 0xdeadbeefULL, 5, 6, 7});
    out.push_back(w.bytes());
  }
  {
    std::vector<WireKeyState> states;
    for (int i = 0; i < 6; ++i) {
      WireKeyState s;
      s.key = static_cast<KeyId>(i);
      s.blob.assign(static_cast<std::size_t>(3 + i * 5), std::uint8_t(0xa0 + i));
      states.push_back(std::move(s));
    }
    ByteWriter w;
    encode_key_states(w, states);
    out.push_back(w.bytes());
  }
  {
    ByteWriter w;
    encode_expire(w, Micros{987654321});
    out.push_back(w.bytes());
  }
  {
    PlanPayload plan;
    plan.seq = 55;
    for (int i = 0; i < 9; ++i) {
      KeyMove m;
      m.key = static_cast<KeyId>(i * 101);
      m.from = i % 3;
      m.to = (i + 2) % 3;
      m.state_bytes = 64.0 * i;
      plan.moves.push_back(m);
    }
    ByteWriter w;
    encode_plan(w, plan);
    out.push_back(w.bytes());
  }
  {
    ByteWriter w;
    encode_ack(w, AckPayload{12345});
    out.push_back(w.bytes());
  }
  {
    ByteWriter w;
    encode_fin(w, FinPayload{1, 2, 3, 4});
    out.push_back(w.bytes());
  }
  {
    CheckpointPayload cp;
    cp.epoch = 6;
    cp.processed = 6'000;
    cp.outputs = 5'900;
    cp.local_buckets = 512;
    cp.state_checksum = 0x1122334455667788ULL;
    for (int i = 0; i < 5; ++i) {
      WireKeyState s;
      s.key = static_cast<KeyId>(i * 31);
      s.blob.assign(static_cast<std::size_t>(4 + i * 7), std::uint8_t(0xc0 + i));
      cp.states.push_back(std::move(s));
    }
    ByteWriter w;
    encode_checkpoint(w, cp);
    out.push_back(w.bytes());
  }
  {
    ByteWriter w;
    encode_heartbeat(w, HeartbeatPayload{17});
    out.push_back(w.bytes());
  }
  return out;
}

/// Runs every payload decoder over `bytes`; the assertion is simply that
/// none of them aborts (gtest would report the crash) and the reader's
/// flag agrees with the return value.
void decode_all(const std::vector<std::uint8_t>& bytes) {
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    std::vector<Tuple> tuples;
    const bool ok = decode_tuple_batch(r, tuples);
    if (!ok) {
      EXPECT_FALSE(r.ok());
    }
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    HelloPayload hello;
    (void)decode_hello(r, hello);
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    SealPayload seal;
    (void)decode_seal(r, seal);
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    std::vector<KeyId> keys;
    const bool ok = decode_key_list(r, keys);
    if (!ok) {
      EXPECT_FALSE(r.ok());
    }
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    std::vector<WireKeyState> states;
    const bool ok = decode_key_states(r, states);
    if (!ok) {
      EXPECT_FALSE(r.ok());
    }
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    Micros watermark = 0;
    (void)decode_expire(r, watermark);
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    PlanPayload plan;
    const bool ok = decode_plan(r, plan);
    if (!ok) {
      EXPECT_FALSE(r.ok());
    }
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    AckPayload ack;
    (void)decode_ack(r, ack);
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    FinPayload fin;
    (void)decode_fin(r, fin);
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    CheckpointPayload cp;
    const bool ok = decode_checkpoint(r, cp);
    if (!ok) {
      EXPECT_FALSE(r.ok());
    }
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    HeartbeatPayload hb;
    (void)decode_heartbeat(r, hb);
  }
}

// Every truncation prefix of every valid payload, through every decoder.
// A prefix fed to the decoder that PRODUCED it must be rejected (except
// the full length); fed to any other decoder it must merely not crash.
TEST(NetFuzz, TruncationPrefixesNeverAbort) {
  const auto payloads = valid_payloads();
  for (std::size_t p = 0; p < payloads.size(); ++p) {
    const auto& full = payloads[p];
    for (std::size_t keep = 0; keep <= full.size(); ++keep) {
      decode_all(std::vector<std::uint8_t>(full.begin(),
                                           full.begin() + keep));
    }
  }
}

// Seeded random corruptions: flip 1..8 bytes of a valid payload and run
// every decoder. Accept-or-reject are both fine; crashing is not.
TEST(NetFuzz, RandomCorruptionsNeverAbort) {
  const auto payloads = valid_payloads();
  std::mt19937_64 rng(0xfeedface);
  for (int round = 0; round < 400; ++round) {
    auto bytes = payloads[round % payloads.size()];
    if (bytes.empty()) continue;
    const int flips = 1 + static_cast<int>(rng() % 8);
    for (int f = 0; f < flips; ++f) {
      bytes[rng() % bytes.size()] ^=
          static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    decode_all(bytes);
  }
}

// Random garbage (not derived from any encoder) through every decoder.
TEST(NetFuzz, PureGarbageNeverAborts) {
  std::mt19937_64 rng(0xbadc0de);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> bytes(rng() % 300);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    decode_all(bytes);
  }
}

/// Runs check_checkpoint and decode_checkpoint over the same bytes: the
/// driver's allocation-free check must give decode's verdict, stop at
/// decode's position (so the exhaustion check agrees) and, on accepted
/// input, report decode's epoch.
void expect_check_agrees_with_decode(const std::vector<std::uint8_t>& bytes) {
  ByteReader decode_in(bytes, ByteReader::Untrusted{});
  CheckpointPayload cp;
  const bool decoded = decode_checkpoint(decode_in, cp);
  ByteReader check_in(bytes, ByteReader::Untrusted{});
  std::uint64_t epoch = ~std::uint64_t{0};
  const bool checked = check_checkpoint(check_in, epoch);
  ASSERT_EQ(checked, decoded) << bytes.size() << " bytes";
  EXPECT_EQ(check_in.ok(), decode_in.ok());
  EXPECT_EQ(check_in.remaining(), decode_in.remaining());
  EXPECT_EQ(check_in.exhausted(), decode_in.exhausted());
  if (decoded) {
    EXPECT_EQ(epoch, cp.epoch);
  }
}

// check_checkpoint against decode_checkpoint on a valid checkpoint (one
// state has an empty blob), every truncation of it, trailing junk after
// it, and seeded byte flips of it — flips land in the counters, the
// state count, the blob lengths and the blobs alike.
TEST(NetFuzz, CheckpointCheckAgreesWithDecode) {
  CheckpointPayload cp;
  cp.epoch = 41;
  cp.processed = 9'000;
  cp.outputs = 8'700;
  cp.local_buckets = 1024;
  cp.state_checksum = 0x0123456789abcdefULL;
  for (int i = 0; i < 7; ++i) {
    WireKeyState s;
    s.key = static_cast<KeyId>(i * 977);
    s.blob.assign(static_cast<std::size_t>(i * 5), std::uint8_t(0x30 + i));
    cp.states.push_back(std::move(s));
  }
  ByteWriter w;
  encode_checkpoint(w, cp);
  const std::vector<std::uint8_t> valid = w.bytes();

  expect_check_agrees_with_decode(valid);
  for (std::size_t keep = 0; keep < valid.size(); ++keep) {
    expect_check_agrees_with_decode(
        std::vector<std::uint8_t>(valid.begin(), valid.begin() + keep));
  }
  for (std::size_t extra = 1; extra <= 8; ++extra) {
    std::vector<std::uint8_t> longer = valid;
    longer.resize(valid.size() + extra, 0x5a);
    expect_check_agrees_with_decode(longer);
  }
  std::mt19937_64 rng(0xc0ffee);
  for (int round = 0; round < 2'000; ++round) {
    std::vector<std::uint8_t> bytes = valid;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      bytes[rng() % bytes.size()] ^=
          static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    expect_check_agrees_with_decode(bytes);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Frame headers: every truncation and corruption of a valid header must
// decode false with a non-empty reason — never abort, never accept a
// payload size beyond the cap.
TEST(NetFuzz, FrameHeaderCorruptionsRejectCleanly) {
  std::mt19937_64 rng(0x5eed);
  for (int round = 0; round < 500; ++round) {
    ByteWriter w;
    encode_frame_header(w, static_cast<FrameType>(
                               kMinFrameType + rng() % kMaxFrameType),
                        rng(), static_cast<std::uint32_t>(rng()));
    auto bytes = w.bytes();
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      bytes[rng() % bytes.size()] ^=
          static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    FrameHeader header;
    std::string error;
    if (!decode_frame_header(bytes.data(), bytes.size(), header, error)) {
      EXPECT_FALSE(error.empty());
    } else {
      EXPECT_LE(header.payload_size, kMaxFramePayload);
    }
  }
}

// Boundary summaries: the slab decoder guards geometry, counts, value
// ranges and the raw cell block. Corrupt/truncated summaries must fail
// without aborting OR poisoning the target slab into a crash — a target
// that rejected an input must still absorb a clean one afterwards.
TEST(NetFuzz, SlabSummaryCorruptionsRejectOrRoundTrip) {
  SketchStatsConfig cfg;
  cfg.heavy_capacity = 32;
  cfg.epsilon = 0.01;

  WorkerSketchSlab source(cfg);
  std::unordered_map<KeyId, WorkerSketchSlab::KeyAgg> batch;
  for (std::uint64_t i = 0; i < 300; ++i) {
    auto& agg = batch[i * 7919];
    agg.cost = 1.0 + static_cast<double>(i % 11);
    agg.state_bytes = 8.0 * (i % 5);
    agg.frequency = 1;
  }
  source.add_batch(batch);
  source.set_epoch(4);
  ByteWriter w;
  source.serialize(w);
  const auto& valid = w.bytes();

  std::mt19937_64 rng(0xabcdef);
  WorkerSketchSlab target(cfg);
  for (int round = 0; round < 300; ++round) {
    std::vector<std::uint8_t> bytes = valid;
    if (round % 3 == 0) {
      bytes.resize(rng() % valid.size());  // truncation
    } else {
      const int flips = 1 + static_cast<int>(rng() % 6);
      for (int f = 0; f < flips; ++f) {
        bytes[rng() % bytes.size()] ^=
            static_cast<std::uint8_t>(1u << (rng() % 8));
      }
    }
    ByteReader r(bytes, ByteReader::Untrusted{});
    const bool ok = target.deserialize_from(r);
    if (!ok) {
      EXPECT_FALSE(r.ok());
    }
    // The target must remain usable either way: a clean decode succeeds.
    ByteReader clean(valid, ByteReader::Untrusted{});
    ASSERT_TRUE(target.deserialize_from(clean)) << "round " << round;
    ByteWriter again;
    target.serialize(again);
    ASSERT_EQ(again.size(), valid.size());
    EXPECT_EQ(0, std::memcmp(again.bytes().data(), valid.data(),
                             valid.size()));
  }
}

}  // namespace
}  // namespace skewless
