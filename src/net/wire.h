// Payload encodings for every frame type (net/frame.h). Encoders write
// into a reusable ByteWriter; decoders take a CHECKED ByteReader and
// return false (reader error flag set) on truncation, impossible counts
// or out-of-range values — the connection owner then drops the peer.
//
// The boundary-summary payload (kSummary) is WorkerSketchSlab's own
// serialize()/deserialize_from() and lives with the slab; everything
// else is here.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/serde.h"
#include "common/types.h"
#include "core/plan.h"
#include "engine/tuple.h"

namespace skewless {

class KeyState;
class StateStore;

// --- kBatch ---------------------------------------------------------------
void encode_tuple_batch(ByteWriter& out, const std::vector<Tuple>& tuples);
[[nodiscard]] bool decode_tuple_batch(ByteReader& in,
                                      std::vector<Tuple>& tuples);

// --- kHello ---------------------------------------------------------------
struct HelloPayload {
  std::uint32_t worker_id = 0;
  std::uint32_t num_workers = 0;
};
void encode_hello(ByteWriter& out, const HelloPayload& hello);
[[nodiscard]] bool decode_hello(ByteReader& in, HelloPayload& hello);

// --- kSeal ----------------------------------------------------------------
/// The seal rides the CONTROL channel while the epoch's batches ride the
/// data channel, so cross-channel ordering is re-established by content:
/// `batches` is how many kBatch frames the driver sent this worker this
/// epoch, and the worker defers the seal until it has processed exactly
/// that many.
struct SealPayload {
  std::uint64_t batches = 0;
};
void encode_seal(ByteWriter& out, const SealPayload& seal);
[[nodiscard]] bool decode_seal(ByteReader& in, SealPayload& seal);

// --- kHeavySet / kExtract (key lists) ------------------------------------
void encode_key_list(ByteWriter& out, const std::vector<KeyId>& keys);
[[nodiscard]] bool decode_key_list(ByteReader& in, std::vector<KeyId>& keys);

// --- kMigrated / kInstall -------------------------------------------------
/// One migrated key: the serialized KeyState blob, still opaque bytes.
/// The driver forwards blobs from kMigrated straight into kInstall
/// without ever materializing a state object — the controller routes
/// migrations, it does not process them.
struct WireKeyState {
  KeyId key = 0;
  std::vector<std::uint8_t> blob;
};
/// A key-state list is a u32 count followed by one entry per state: u64
/// key, u32 blob length, blob bytes. Every list encoder below writes its
/// entries through encode_key_state, and every decoder reads them through
/// visit_key_states.
void encode_key_state(ByteWriter& out, KeyId key,
                      const std::vector<std::uint8_t>& blob);
void encode_key_states(ByteWriter& out, const std::vector<WireKeyState>& states);
[[nodiscard]] bool decode_key_states(ByteReader& in,
                                     std::vector<WireKeyState>& states);

/// Smallest key-state list entry: key + blob length, empty blob.
inline constexpr std::size_t kMinKeyStateBytes = 8 + 4;

/// Walks a key-state list without copying a blob: calls `visit(key,
/// blob)` for each entry, with `blob` a checked reader over just that
/// entry's bytes. A false from `visit` rejects the list (the reader's
/// flag is set), as a truncated entry or an impossible count does.
template <typename Visit>
[[nodiscard]] bool visit_key_states(ByteReader& in, Visit&& visit) {
  const std::uint32_t n = in.u32();
  if (!in.fits(n, kMinKeyStateBytes)) return false;
  for (std::uint32_t i = 0; i < n; ++i) {
    const KeyId key = in.u64();
    const std::uint32_t size = in.u32();
    const std::uint8_t* bytes = nullptr;
    if (!in.view(size, bytes)) return false;
    ByteReader blob(bytes, size, ByteReader::Untrusted{});
    if (!visit(key, blob)) {
      in.fail();
      return false;
    }
  }
  return in.ok();
}

/// The worker's kMigrated reply, written straight from the extracted
/// states: each is serialized through the reusable `blob` writer, so no
/// per-key buffer is allocated once `blob` has grown. Same bytes as
/// encode_key_states over the serialized states, in the given order.
void encode_extracted_states(
    ByteWriter& out,
    const std::vector<std::pair<KeyId, std::unique_ptr<KeyState>>>& states,
    ByteWriter& blob);

// --- kExpire --------------------------------------------------------------
void encode_expire(ByteWriter& out, Micros watermark);
[[nodiscard]] bool decode_expire(ByteReader& in, Micros& watermark);

// --- kPlan ----------------------------------------------------------------
/// Sparse plan broadcast: sequence number plus the moves (the O(N_D)
/// payload the compact planning work bounded). Workers apply nothing
/// from it today — migration arrives as explicit Extract/Install — but
/// acknowledging it (kPlanAck echoes `seq`) is the control-latency probe
/// the bench gates on: a plan must reach a worker and return while the
/// data channel is saturated.
struct PlanPayload {
  std::uint64_t seq = 0;
  std::vector<KeyMove> moves;
};
void encode_plan(ByteWriter& out, const PlanPayload& plan);
[[nodiscard]] bool decode_plan(ByteReader& in, PlanPayload& plan);

// --- kPlanAck / kInstallAck ----------------------------------------------
struct AckPayload {
  std::uint64_t seq = 0;
};
void encode_ack(ByteWriter& out, const AckPayload& ack);
[[nodiscard]] bool decode_ack(ByteReader& in, AckPayload& ack);

// --- kCheckpoint / kRestore -----------------------------------------------
/// Post-seal worker checkpoint: every counter and state blob a respawned
/// worker needs to resume the sealed epoch's successor deterministically.
/// `local_buckets` is the worker's per-batch scratch-map bucket count:
/// fold order into the slab depends on that map's rehash history, so the
/// restore re-establishes it before replaying (the byte-identity contract
/// under recovery).
///
/// The worker streams these bytes back in kCheckpoint chunks (below). A
/// kRestore payload is a stored checkpoint's bytes verbatim, followed by
/// the adjustments made since it: the keys migrated away (a key list),
/// then the states installed (a key-state list). The worker loads the
/// checkpoint, drops those keys, then installs those states.
struct CheckpointCounters {
  std::uint64_t epoch = 0;
  std::uint64_t processed = 0;
  std::uint64_t outputs = 0;
  std::uint64_t local_buckets = 0;
  std::uint64_t state_checksum = 0;
};
struct CheckpointPayload : CheckpointCounters {
  std::vector<WireKeyState> states;
};
void encode_checkpoint(ByteWriter& out, const CheckpointPayload& cp);
/// The worker's checkpoint encoder: the bytes encode_checkpoint writes for
/// `counters` plus `store`'s states in the store's iteration order, but
/// written straight from the store — each state is serialized through
/// the reusable `blob` writer, with no per-key buffer and no
/// CheckpointPayload copy.
void encode_store_checkpoint(ByteWriter& out,
                             const CheckpointCounters& counters,
                             const StateStore& store, ByteWriter& blob);
[[nodiscard]] bool decode_checkpoint(ByteReader& in, CheckpointPayload& cp);
/// The counters that open a checkpoint; its key-state list follows.
[[nodiscard]] bool decode_checkpoint_counters(ByteReader& in,
                                              CheckpointCounters& c);
/// Validates a kCheckpoint payload without materializing it: every check
/// decode_checkpoint makes (counters present, a state count that fits,
/// each blob length within the input), leaving the reader at the same
/// position and returning the same verdict, but allocating nothing.
/// `epoch` receives the checkpoint's epoch. The driver keeps accepted
/// payloads as bytes and decodes one only to re-home a degraded worker's
/// states.
[[nodiscard]] bool check_checkpoint(ByteReader& in, std::uint64_t& epoch);

/// One piece of a checkpoint on the data channel's return path: the
/// frame's epoch is the checkpoint's, and the payload is the checkpoint's
/// total size, this piece's offset in it, and the piece's bytes (the rest
/// of the payload).
struct CheckpointChunk {
  std::uint32_t total = 0;
  std::uint32_t offset = 0;
  const std::uint8_t* bytes = nullptr;  // a view into the decoded payload
  std::size_t size = 0;
};
/// Payload bytes a chunk spends before its piece of the checkpoint.
inline constexpr std::size_t kChunkHeaderBytes = 4 + 4;
void encode_chunk_header(ByteWriter& out, std::uint32_t total,
                         std::uint32_t offset);
[[nodiscard]] bool decode_chunk(ByteReader& in, CheckpointChunk& chunk);

// --- kHeartbeat -----------------------------------------------------------
/// Epoch-progress liveness beat: how many batches of the open epoch the
/// worker has processed. Any heartbeat resets the driver's per-worker
/// receive deadline, so a slow-but-alive worker is never mistaken for a
/// wedged one.
struct HeartbeatPayload {
  std::uint64_t epoch_batches = 0;
};
void encode_heartbeat(ByteWriter& out, const HeartbeatPayload& hb);
[[nodiscard]] bool decode_heartbeat(ByteReader& in, HeartbeatPayload& hb);

// --- kFin -----------------------------------------------------------------
struct FinPayload {
  std::uint64_t state_checksum = 0;
  std::uint64_t state_entries = 0;
  std::uint64_t processed = 0;
  std::uint64_t outputs = 0;
};
void encode_fin(ByteWriter& out, const FinPayload& fin);
[[nodiscard]] bool decode_fin(ByteReader& in, FinPayload& fin);

}  // namespace skewless
