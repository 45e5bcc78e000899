// Randomized robustness suite for the wire layer, run under the `fuzz`
// CTest label: every decoder that parses peer bytes is fed (a) every
// truncation prefix and (b) hundreds of seeded single/multi-byte
// corruptions of valid encodings. The contract under test is uniform —
// a decoder either accepts the input or returns false with the reader's
// sticky error flag set; it NEVER aborts, over-allocates, or reads out
// of bounds (ASan enforces the last one on the CI debug-asan leg). The
// data channel's return path — credits and checkpoint chunks — is fuzzed
// the same way through a CreditWindow on a socketpair, and forged into a
// running engine, whose driver must recover the forging worker instead of
// aborting.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "common/serde.h"
#include "core/controller.h"
#include "core/planners.h"
#include "net/channel.h"
#include "net/frame.h"
#include "net/net_engine.h"
#include "net/recovery.h"
#include "net/wire.h"
#include "net_test_util.h"
#include "sketch/worker_sketch_slab.h"
#include "workload/operators.h"

namespace skewless {
namespace {

using testutil::CapturedLog;
using testutil::digest_of;
using testutil::expect_byte_identical;
using testutil::RunDigest;
using testutil::SerializeHookLogic;
using testutil::SharedFlag;
using testutil::tsan_enabled;

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
  {
    ByteWriter w;
    encode_chunk_header(w, 4'096, 1'024);
    const std::vector<std::uint8_t> piece(48, 0x3c);
    w.append(piece.data(), piece.size());
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
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    CheckpointChunk chunk;
    if (decode_chunk(r, chunk)) {
      EXPECT_TRUE(r.exhausted());
      EXPECT_EQ(chunk.size + kChunkHeaderBytes, bytes.size());
    } else {
      EXPECT_FALSE(r.ok());
    }
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

SketchStatsConfig summary_config() {
  SketchStatsConfig cfg;
  cfg.heavy_capacity = 32;
  cfg.epsilon = 0.01;
  return cfg;
}

/// A valid boundary summary of 300 cold keys.
std::vector<std::uint8_t> valid_summary() {
  WorkerSketchSlab source(summary_config());
  std::unordered_map<KeyId, WorkerSketchSlab::KeyAgg> batch;
  for (std::uint64_t i = 0; i < 300; ++i) {
    auto& agg = batch[i * 7919];
    agg.cost = 1.0 + static_cast<double>(i % 11);
    agg.state_bytes = 8.0 * (i % 5);
  }
  source.add_batch(batch);
  source.set_epoch(4);
  ByteWriter w;
  source.serialize(w);
  return w.bytes();
}

// Boundary summaries: the slab decoder guards geometry, counts and the
// value range of every field, cells included. Corrupt/truncated
// summaries must fail without aborting OR poisoning the target slab into
// a crash — a target that rejected an input must still absorb a clean
// one afterwards.
TEST(NetFuzz, SlabSummaryCorruptionsRejectOrRoundTrip) {
  const SketchStatsConfig cfg = summary_config();
  const std::vector<std::uint8_t> valid = valid_summary();

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

// A summary cell is two doubles on the wire (cost, state), each a
// magnitude the slab only ever accumulates as finite and non-negative. A
// clean summary with one cell field set to -1, NaN or +inf is corruption
// and must be rejected, never absorbed.
TEST(NetFuzz, SlabSummaryCellOutOfRangeRejected) {
  constexpr std::size_t kCellFields = 2;
  const SketchStatsConfig cfg = summary_config();
  const std::vector<std::uint8_t> valid = valid_summary();
  WorkerSketchSlab target(cfg);
  const std::size_t cells = target.width() * target.depth();
  ASSERT_GT(valid.size(), cells * kCellFields * sizeof(double));
  // The cell block ends the summary; probe the first cell and a middle one.
  const std::size_t block = valid.size() - cells * kCellFields * sizeof(double);
  for (const std::size_t cell : {std::size_t{0}, cells / 2}) {
    for (std::size_t field = 0; field < kCellFields; ++field) {
      for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()}) {
        std::vector<std::uint8_t> bytes = valid;
        std::memcpy(bytes.data() + block +
                        (cell * kCellFields + field) * sizeof(double),
                    &bad, sizeof(bad));
        ByteReader r(bytes, ByteReader::Untrusted{});
        EXPECT_FALSE(target.deserialize_from(r))
            << "cell " << cell << " field " << field << " value " << bad;
        EXPECT_FALSE(r.ok());
      }
    }
  }
  ByteReader clean(valid, ByteReader::Untrusted{});
  EXPECT_TRUE(target.deserialize_from(clean) && clean.exhausted());
}

// A peer speaking the previous wire version (whose kSummary layout this
// build would misread) is refused on its first frame: its Hello fails
// the version check before any payload byte is read, and its credit on
// a data channel is a rejected frame, not a count.
TEST(NetFuzz, PreviousVersionPeerIsRefusedAtTheHandshake) {
  constexpr std::uint8_t kPrevious = kWireVersion - 1;
  const auto write_previous = [](const FrameChannel& to, FrameType type,
                                 std::uint64_t epoch,
                                 const ByteWriter& payload) {
    ByteWriter frame;
    encode_frame_header(frame, type, epoch,
                        static_cast<std::uint32_t>(payload.size()));
    frame.append(payload.bytes().data(), payload.size());
    std::vector<std::uint8_t> bytes = frame.bytes();
    bytes[4] = kPrevious;  // the version byte follows the u32 magic
    ASSERT_EQ(::write(to.fd(), bytes.data(), bytes.size()),
              static_cast<::ssize_t>(bytes.size()));
  };
  int ctrl_fds[2];
  int data_fds[2];
  std::string error;
  ASSERT_TRUE(make_socket_pair(ctrl_fds, error)) << error;
  ASSERT_TRUE(make_socket_pair(data_fds, error)) << error;
  FrameChannel ctrl(ctrl_fds[0]);
  FrameChannel peer_ctrl(ctrl_fds[1]);
  FrameChannel data(data_fds[0]);
  FrameChannel peer_data(data_fds[1]);

  ByteWriter hello;
  encode_hello(hello, HelloPayload{0, 1});
  write_previous(peer_ctrl, FrameType::kHello, 0, hello);
  FrameHeader header;
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(ctrl.recv(header, payload));
  EXPECT_NE(ctrl.last_error().find(
                "peer speaks v" + std::to_string(kPrevious) +
                ", this build v" + std::to_string(kWireVersion)),
            std::string::npos)
      << ctrl.last_error();

  CreditWindow window(kQueueBatches);
  ASSERT_EQ(window.acquire(data, 1'000), "");
  window.sent();
  write_previous(peer_data, FrameType::kCredit, 1, ByteWriter{});
  EXPECT_NE(window.acquire(data, 1'000).find("version mismatch"),
            std::string::npos);
  EXPECT_EQ(window.in_flight(), 1u);
}

// Seeded forged return-path streams into a CreditWindow: valid counts,
// counts that stall, run backwards or pass the frames sent, checkpoint
// chunks (handed to an assembler awaiting checkpoint 1), other frame
// types, payloads and raw garbage, then EOF. The window either takes a
// frame or names the fault; it never aborts and never credits more than
// was sent.
TEST(NetFuzz, ForgedCreditStreamsNeverAbort) {
  std::mt19937_64 rng(0xc4ed17);
  for (int round = 0; round < 300; ++round) {
    int fds[2];
    std::string error;
    ASSERT_TRUE(make_socket_pair(fds, error)) << error;
    FrameChannel data(fds[0]);
    const std::uint64_t limit = 1 + rng() % kQueueBatches;
    CreditWindow window(limit);
    Checkpoint checkpoint;
    checkpoint.awaited = 1;
    const CreditWindow::ChunkFn take_chunk =
        [&checkpoint](std::uint64_t epoch,
                      const std::vector<std::uint8_t>& payload) {
          ByteReader in(payload, ByteReader::Untrusted{});
          CheckpointChunk chunk;
          if (!decode_chunk(in, chunk)) return std::string("truncated chunk");
          return checkpoint.add(epoch, chunk);
        };
    const std::uint64_t sends = rng() % (limit + 1);
    for (std::uint64_t i = 0; i < sends; ++i) {
      ASSERT_EQ(window.acquire(data, 1'000, take_chunk), "");
      window.sent();
    }
    {
      FrameChannel worker(fds[1]);
      std::uint64_t count = 0;
      const int frames = 1 + static_cast<int>(rng() % 6);
      std::uint32_t chunked = 0;
      for (int f = 0; f < frames; ++f) {
        switch (rng() % 7) {
          case 0:  // the next valid count, when one is left
          case 1:
            count = std::min(count + 1, sends);
            (void)worker.send(FrameType::kCredit, count, nullptr, 0);
            break;
          case 2:  // any count at all
            (void)worker.send(FrameType::kCredit, rng() % (sends + 3),
                              nullptr, 0);
            break;
          case 3: {  // a credit with a payload
            const std::uint8_t junk[3] = {1, 2, 3};
            (void)worker.send(FrameType::kCredit, count + 1, junk,
                              rng() % 4);
            break;
          }
          case 4:  // another frame type on the data channel
            (void)worker.send(FrameType::kBatch, count + 1, nullptr, 0);
            break;
          case 5: {  // a checkpoint chunk, mostly the next one
            ByteWriter chunk;
            const std::uint32_t total = rng() % 4 == 0 ? 32 : 64;
            const std::uint32_t offset =
                rng() % 4 == 0 ? static_cast<std::uint32_t>(rng() % 64)
                               : chunked;
            encode_chunk_header(chunk, total, offset);
            const std::vector<std::uint8_t> bytes(rng() % 24, 0x5a);
            chunk.append(bytes.data(), bytes.size());
            chunked += static_cast<std::uint32_t>(bytes.size());
            (void)worker.send(FrameType::kCheckpoint, 1 + rng() % 2 * 7,
                              chunk);
            break;
          }
          default: {  // raw bytes, possibly a torn header
            std::vector<std::uint8_t> junk(rng() % (2 * kFrameHeaderBytes));
            for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
            (void)!::write(worker.fd(), junk.data(), junk.size());
          }
        }
      }
    }  // the worker's end closes: EOF ends every stream
    std::string why;
    for (int tries = 0; tries < 16 && why.empty(); ++tries) {
      why = window.acquire(data, 1'000, take_chunk);
      if (why.empty()) window.sent();
      ASSERT_LE(window.in_flight(), limit) << "round " << round;
      ASSERT_LE(checkpoint.assembly.size(), 64u) << "round " << round;
    }
    EXPECT_FALSE(why.empty()) << "round " << round;
  }
}

/// A checkpoint of epoch 4 holding a few states.
std::vector<std::uint8_t> small_checkpoint() {
  CheckpointPayload cp;
  cp.epoch = 4;
  cp.processed = 400;
  for (int i = 0; i < 6; ++i) {
    WireKeyState s;
    s.key = static_cast<KeyId>(i * 13);
    s.blob.assign(static_cast<std::size_t>(10 + i), std::uint8_t(0x40 + i));
    cp.states.push_back(std::move(s));
  }
  ByteWriter w;
  encode_checkpoint(w, cp);
  return w.bytes();
}

/// Hands `checkpoint` the chunk of `bytes` at [offset, offset + size),
/// announcing `total`; returns the verdict.
std::string offer(Checkpoint& checkpoint, std::uint64_t epoch,
                  std::uint32_t total, const std::vector<std::uint8_t>& bytes,
                  std::size_t offset, std::size_t size) {
  CheckpointChunk chunk;
  chunk.total = total;
  chunk.offset = static_cast<std::uint32_t>(offset);
  chunk.bytes = bytes.data() + offset;
  chunk.size = size;
  return checkpoint.add(epoch, chunk);
}

// The chunk assembler lands a checkpoint streamed in pieces, and names
// every breach of the stream: a chunk with nothing awaited, of another
// epoch, at a gap or an overlap, changing or overrunning the announced
// size, or completing bytes that fail check_checkpoint.
TEST(NetFuzz, CheckpointChunkBreachesAreRejected) {
  const std::vector<std::uint8_t> valid = small_checkpoint();
  const auto total = static_cast<std::uint32_t>(valid.size());
  const auto expect_rejected = [](const std::string& why,
                                  const std::string& reason) {
    EXPECT_NE(why.find(reason), std::string::npos)
        << "got '" << why << "', expected '" << reason << "'";
  };

  Checkpoint idle;
  expect_rejected(offer(idle, 4, total, valid, 0, 8),
                  "no checkpoint outstanding");

  Checkpoint cp;
  cp.awaited = 4;
  expect_rejected(offer(cp, 5, total, valid, 0, 8),
                  "chunk of checkpoint 5 while checkpoint 4 is outstanding");
  expect_rejected(offer(cp, 4, total, valid, 3, 8), "after 0 of");
  expect_rejected(offer(cp, 4, kMaxFramePayload + 1, valid, 0, 8),
                  "announced a checkpoint of 268435457 bytes");
  expect_rejected(offer(cp, 4, 0, valid, 0, 0), "announced a checkpoint of 0");
  ASSERT_EQ(offer(cp, 4, total, valid, 0, 20), "");
  expect_rejected(offer(cp, 4, total, valid, 10, 20), "after 20 of");
  expect_rejected(offer(cp, 4, total + 1, valid, 20, 8),
                  "changed its checkpoint's size");
  expect_rejected(offer(cp, 4, total, valid, 20, 0), "after 20 of");
  expect_rejected(offer(cp, 4, total, valid, 20, valid.size()), "after 20 of");
  EXPECT_FALSE(cp.complete());

  // The rest in two pieces: complete, validated, landed.
  ASSERT_EQ(offer(cp, 4, total, valid, 20, 30), "");
  ASSERT_EQ(offer(cp, 4, total, valid, 50, valid.size() - 50), "");
  ASSERT_TRUE(cp.complete());
  cp.land();
  EXPECT_EQ(cp.epoch, 4u);
  EXPECT_EQ(cp.awaited, 0u);
  EXPECT_EQ(cp.payload, valid);
  EXPECT_EQ(cp.memory_bytes(), valid.size());
  expect_rejected(offer(cp, 4, total, valid, 0, 8),
                  "no checkpoint outstanding");

  // Bytes that complete the announced size but are no checkpoint.
  Checkpoint junk;
  junk.awaited = 5;
  const std::vector<std::uint8_t> garbage(16, 0xEE);
  expect_rejected(offer(junk, 5, 16, garbage, 0, 16),
                  "checkpoint 5 bytes that fail validation");
  // A checkpoint of another epoch fails too, even whole.
  Checkpoint stale;
  stale.awaited = 5;
  expect_rejected(offer(stale, 5, total, valid, 0, valid.size()),
                  "checkpoint 5 bytes that fail validation");
}

/// One forged frame: the header and `payload`.
std::vector<std::uint8_t> forged_frame(FrameType type, std::uint64_t epoch,
                                       const ByteWriter& payload) {
  ByteWriter frame;
  encode_frame_header(frame, type, epoch,
                      static_cast<std::uint32_t>(payload.size()));
  frame.append(payload.bytes().data(), payload.size());
  return frame.take();
}

/// A forged checkpoint chunk of `size` bytes at `offset`, announcing
/// `total`.
std::vector<std::uint8_t> forged_chunk(std::uint64_t epoch,
                                       std::uint32_t total,
                                       std::uint32_t offset,
                                       std::size_t size) {
  ByteWriter payload;
  encode_chunk_header(payload, total, offset);
  const std::vector<std::uint8_t> bytes(size, 0x5a);
  payload.append(bytes.data(), bytes.size());
  return forged_frame(FrameType::kCheckpoint, epoch, payload);
}

/// SerializeHookLogic that writes `frames` onto its worker's data channel
/// once, while `armed` is set: on the first tuple it processes, or with
/// `at_checkpoint` when it first serializes a state — while it encodes
/// its first checkpoint, after its summary went out and before any chunk
/// did. A worker's data socket is the lowest-numbered socket it holds:
/// the driver creates the data pair just before the control pair, each
/// on the lowest free descriptors, and the child keeps one end of each.
class ForgeOnce final : public SerializeHookLogic {
 public:
  ForgeOnce(std::atomic<int>* armed, std::vector<std::uint8_t> frames,
            bool at_checkpoint)
      : armed_(armed),
        frames_(std::move(frames)),
        at_checkpoint_(at_checkpoint) {}

 protected:
  void before_process(const Tuple& /*tuple*/) const override {
    if (!at_checkpoint_ && armed_->exchange(0) != 0) forge();
  }
  void on_serialize(bool /*watched*/) const override {
    if (at_checkpoint_ && armed_->exchange(0) != 0) forge();
  }

 private:
  void forge() const {
    for (int fd = 3; fd < 1024; ++fd) {
      struct stat st;
      if (::fstat(fd, &st) == 0 && S_ISSOCK(st.st_mode)) {
        (void)!::write(fd, frames_.data(), frames_.size());
        return;
      }
    }
  }

  std::atomic<int>* armed_;
  std::vector<std::uint8_t> frames_;
  bool at_checkpoint_;
};

/// Three 6,000-tuple intervals on three workers, each worker taking far
/// more than a window of 64-tuple batches per interval, so the driver
/// reads forged frames mid-interval. `log` receives the INFO log.
RunDigest run_forged(const std::shared_ptr<OperatorLogic>& logic,
                     std::string& log) {
  ControllerConfig ccfg;
  ccfg.planner.theta_max = 0.08;
  ccfg.stats_mode = StatsMode::kSketch;
  ccfg.sketch.heavy_capacity = 128;
  NetConfig ncfg;
  ncfg.batch_size = 64;
  ncfg.ctrl_timeout_ms = 2'000;
  ncfg.heartbeat_interval_ms = 50;

  CapturedLog capture;
  NetEngine engine(ncfg, logic,
                   std::make_unique<Controller>(
                       AssignmentFunction(ConsistentHashRing(3), 0),
                       std::make_unique<MixedPlanner>(), ccfg, 1'500));
  std::vector<IntervalReport> reports;
  for (int interval = 0; interval < 3; ++interval) {
    std::vector<Tuple> tuples(6'000);
    for (std::size_t i = 0; i < tuples.size(); ++i) {
      tuples[i].key = static_cast<KeyId>((i * 7 + interval) % 1'500);
      tuples[i].value = 1;
    }
    reports.push_back(engine.run_interval(tuples));
  }
  const RunDigest d = digest_of(engine, reports);
  log = capture.take();
  return d;
}

/// Forges `frames` into a run once and checks that the driver recovered
/// the forging worker, naming `reason`, into a run byte-identical to the
/// clean one.
void expect_forgery_recovered(const std::vector<std::uint8_t>& frames,
                              bool at_checkpoint, const std::string& reason) {
  const SharedFlag flag;
  std::atomic<int>* armed = flag.get();
  ASSERT_NE(armed, nullptr);
  const auto logic = std::make_shared<ForgeOnce>(armed, frames, at_checkpoint);
  std::string log;
  const RunDigest clean = run_forged(logic, log);
  ASSERT_TRUE(clean.ok) << clean.error;
  ASSERT_EQ(clean.recoveries, 0u);

  armed->store(1);
  const RunDigest got = run_forged(logic, log);
  EXPECT_EQ(armed->load(), 0) << "no worker forged a frame";
  expect_byte_identical(got, clean, reason);
  EXPECT_EQ(got.recoveries, 1u) << reason;
  EXPECT_FALSE(got.degraded) << reason;
  EXPECT_NE(log.find(reason), std::string::npos) << log;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1) << "unreaped worker";
}

/// A forged credit carrying `count`, right behind the worker's own
/// credit for the batch it forged in.
std::vector<std::uint8_t> forged_credit(std::uint64_t count) {
  return forged_frame(FrameType::kCredit, count, ByteWriter{});
}

// A credit count that runs backwards (0, behind the worker's own credit
// for the same batch) is a corrupt frame: the driver recovers the worker
// and the run ends byte-identical to a clean one.
TEST(NetFuzz, CreditCountRunningBackwardsRecoversTheWorker) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  expect_forgery_recovered(forged_credit(0), false, "sent a Credit for 0");
}

// A credit count past the batches sent is a corrupt frame too.
TEST(NetFuzz, CreditCountPastBatchesSentRecoversTheWorker) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  const std::uint64_t count = std::uint64_t{1} << 40;
  expect_forgery_recovered(forged_credit(count), false,
                           "sent a Credit for " + std::to_string(count));
}

// A checkpoint chunk before any epoch sealed has no checkpoint to join.
TEST(NetFuzz, ChunkWithNoCheckpointOutstandingRecoversTheWorker) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  expect_forgery_recovered(forged_chunk(1, 64, 0, 64), false,
                           "sent a Checkpoint chunk with no checkpoint "
                           "outstanding");
}

// Forged chunks ahead of a worker's first checkpoint, which the driver
// awaits as soon as it absorbed the epoch-1 summary: each breach of the
// chunk stream recovers the worker — by the two-epoch replay, since the
// summary is in — and never aborts the driver.
TEST(NetFuzz, ForgedCheckpointChunksRecoverTheWorker) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  const auto two = [](std::vector<std::uint8_t> a,
                      const std::vector<std::uint8_t>& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
  };
  const struct {
    std::vector<std::uint8_t> frames;
    std::string reason;
  } cases[] = {
      {forged_chunk(9, 64, 0, 16),
       "sent a chunk of checkpoint 9 while checkpoint 1 is outstanding"},
      {forged_chunk(1, 64, 8, 16), "sent checkpoint bytes [8, +16) after 0"},
      {two(forged_chunk(1, 64, 0, 16), forged_chunk(1, 64, 8, 16)),
       "sent checkpoint bytes [8, +16) after 16 of 64"},
      {two(forged_chunk(1, 64, 0, 16), forged_chunk(1, 80, 16, 16)),
       "changed its checkpoint's size from 64 to 80 bytes"},
      {forged_chunk(1, kMaxFramePayload + 1, 0, 16),
       "announced a checkpoint of 268435457 bytes"},
      {forged_chunk(1, 16, 0, 16),
       "sent checkpoint 1 bytes that fail validation"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.reason);
    expect_forgery_recovered(c.frames, /*at_checkpoint=*/true, c.reason);
  }
}

}  // namespace
}  // namespace skewless
