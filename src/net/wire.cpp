#include "net/wire.h"

#include "engine/state.h"

namespace skewless {

namespace {

/// Field-wise tuple size on the wire (the struct itself has padding).
constexpr std::size_t kTupleWireBytes = 8 + 8 + 8 + 4;

/// A key-state list over live states — any range of (KeyId,
/// unique_ptr<KeyState>) pairs — serialized through one reused writer.
template <typename States>
void encode_live_states(ByteWriter& out, const States& states,
                        ByteWriter& blob) {
  out.u32(static_cast<std::uint32_t>(states.size()));
  for (const auto& [key, state] : states) {
    blob.clear();
    state->serialize(blob);
    encode_key_state(out, key, blob.bytes());
  }
}

void encode_counters(ByteWriter& out, const CheckpointCounters& c) {
  out.u64(c.epoch);
  out.u64(c.processed);
  out.u64(c.outputs);
  out.u64(c.local_buckets);
  out.u64(c.state_checksum);
}

}  // namespace

void encode_tuple_batch(ByteWriter& out, const std::vector<Tuple>& tuples) {
  out.u32(static_cast<std::uint32_t>(tuples.size()));
  for (const Tuple& t : tuples) {
    out.u64(t.key);
    out.i64(t.value);
    out.i64(t.emit_micros);
    out.u32(t.stream);
  }
}

bool decode_tuple_batch(ByteReader& in, std::vector<Tuple>& tuples) {
  const std::uint32_t n = in.u32();
  if (!in.fits(n, kTupleWireBytes)) return false;
  tuples.clear();
  tuples.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Tuple t;
    t.key = in.u64();
    t.value = in.i64();
    t.emit_micros = in.i64();
    t.stream = in.u32();
    tuples.push_back(t);
  }
  return in.ok();
}

void encode_hello(ByteWriter& out, const HelloPayload& hello) {
  out.u32(hello.worker_id);
  out.u32(hello.num_workers);
}

bool decode_hello(ByteReader& in, HelloPayload& hello) {
  hello.worker_id = in.u32();
  hello.num_workers = in.u32();
  return in.ok();
}

void encode_seal(ByteWriter& out, const SealPayload& seal) {
  out.u64(seal.batches);
}

bool decode_seal(ByteReader& in, SealPayload& seal) {
  seal.batches = in.u64();
  return in.ok();
}

void encode_key_list(ByteWriter& out, const std::vector<KeyId>& keys) {
  out.u32(static_cast<std::uint32_t>(keys.size()));
  for (const KeyId key : keys) out.u64(key);
}

bool decode_key_list(ByteReader& in, std::vector<KeyId>& keys) {
  const std::uint32_t n = in.u32();
  if (!in.fits(n, sizeof(KeyId))) return false;
  keys.clear();
  keys.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) keys.push_back(in.u64());
  return in.ok();
}

void encode_key_state(ByteWriter& out, KeyId key,
                      const std::vector<std::uint8_t>& blob) {
  out.u64(key);
  out.u32(static_cast<std::uint32_t>(blob.size()));
  out.append(blob.data(), blob.size());
}

void encode_key_states(ByteWriter& out,
                       const std::vector<WireKeyState>& states) {
  out.u32(static_cast<std::uint32_t>(states.size()));
  for (const WireKeyState& s : states) encode_key_state(out, s.key, s.blob);
}

void encode_extracted_states(
    ByteWriter& out,
    const std::vector<std::pair<KeyId, std::unique_ptr<KeyState>>>& states,
    ByteWriter& blob) {
  encode_live_states(out, states, blob);
}

bool decode_key_states(ByteReader& in, std::vector<WireKeyState>& states) {
  states.clear();
  return visit_key_states(in, [&](KeyId key, ByteReader& blob) {
    WireKeyState& s = states.emplace_back();
    s.key = key;
    s.blob.resize(blob.remaining());
    return blob.read_into(s.blob.data(), s.blob.size());
  });
}

void encode_expire(ByteWriter& out, Micros watermark) { out.i64(watermark); }

bool decode_expire(ByteReader& in, Micros& watermark) {
  watermark = in.i64();
  return in.ok();
}

void encode_plan(ByteWriter& out, const PlanPayload& plan) {
  out.u64(plan.seq);
  out.u32(static_cast<std::uint32_t>(plan.moves.size()));
  for (const KeyMove& mv : plan.moves) {
    out.u64(mv.key);
    out.u32(static_cast<std::uint32_t>(mv.from));
    out.u32(static_cast<std::uint32_t>(mv.to));
    out.f64(mv.state_bytes);
  }
}

bool decode_plan(ByteReader& in, PlanPayload& plan) {
  plan.seq = in.u64();
  const std::uint32_t n = in.u32();
  constexpr std::size_t kMoveWireBytes = 8 + 4 + 4 + 8;
  if (!in.fits(n, kMoveWireBytes)) return false;
  plan.moves.clear();
  plan.moves.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    KeyMove mv;
    mv.key = in.u64();
    mv.from = static_cast<InstanceId>(in.u32());
    mv.to = static_cast<InstanceId>(in.u32());
    mv.state_bytes = in.f64();
    plan.moves.push_back(mv);
  }
  return in.ok();
}

void encode_ack(ByteWriter& out, const AckPayload& ack) { out.u64(ack.seq); }

bool decode_ack(ByteReader& in, AckPayload& ack) {
  ack.seq = in.u64();
  return in.ok();
}

void encode_checkpoint(ByteWriter& out, const CheckpointPayload& cp) {
  encode_counters(out, cp);
  encode_key_states(out, cp.states);
}

void encode_store_checkpoint(ByteWriter& out,
                             const CheckpointCounters& counters,
                             const StateStore& store, ByteWriter& blob) {
  encode_counters(out, counters);
  encode_live_states(out, store.states(), blob);
}

bool decode_checkpoint_counters(ByteReader& in, CheckpointCounters& c) {
  c.epoch = in.u64();
  c.processed = in.u64();
  c.outputs = in.u64();
  c.local_buckets = in.u64();
  c.state_checksum = in.u64();
  return in.ok();
}

bool decode_checkpoint(ByteReader& in, CheckpointPayload& cp) {
  if (!decode_checkpoint_counters(in, cp)) return false;
  return decode_key_states(in, cp.states);
}

bool check_checkpoint(ByteReader& in, std::uint64_t& epoch) {
  CheckpointCounters counters;
  const bool counters_ok = decode_checkpoint_counters(in, counters);
  epoch = counters.epoch;
  if (!counters_ok) return false;
  return visit_key_states(in, [](KeyId, ByteReader&) { return true; });
}

void encode_chunk_header(ByteWriter& out, std::uint32_t total,
                         std::uint32_t offset) {
  out.u32(total);
  out.u32(offset);
}

bool decode_chunk(ByteReader& in, CheckpointChunk& chunk) {
  chunk.total = in.u32();
  chunk.offset = in.u32();
  chunk.size = in.remaining();
  return in.view(chunk.size, chunk.bytes);
}

void encode_heartbeat(ByteWriter& out, const HeartbeatPayload& hb) {
  out.u64(hb.epoch_batches);
}

bool decode_heartbeat(ByteReader& in, HeartbeatPayload& hb) {
  hb.epoch_batches = in.u64();
  return in.ok();
}

void encode_fin(ByteWriter& out, const FinPayload& fin) {
  out.u64(fin.state_checksum);
  out.u64(fin.state_entries);
  out.u64(fin.processed);
  out.u64(fin.outputs);
}

bool decode_fin(ByteReader& in, FinPayload& fin) {
  fin.state_checksum = in.u64();
  fin.state_entries = in.u64();
  fin.processed = in.u64();
  fin.outputs = in.u64();
  return in.ok();
}

}  // namespace skewless
