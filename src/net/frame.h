// Wire framing for the socket-backed distributed engine.
//
// Every message on a net channel — data or control — is one frame:
//
//   ┌─────────┬─────────┬──────┬─────┬─────────┬──────────────┬─────────┐
//   │ magic   │ version │ type │ pad │ epoch   │ payload_size │ payload │
//   │ u32     │ u8      │ u8   │ u16 │ u64     │ u32          │ bytes   │
//   └─────────┴─────────┴──────┴─────┴─────────┴──────────────┴─────────┘
//
// The magic + version prefix is the versioning story for the whole wire
// stack (see common/serde.h): a peer built against a different protocol
// revision fails the handshake on its FIRST frame with a clear error,
// before any payload field is decoded, so the payload encodings stay
// version-free. The header is decoded with a CHECKED ByteReader — a
// corrupt or truncated header rejects the frame (connection dropped),
// never aborts the process.
#pragma once

#include <cstdint>
#include <string>

#include "common/serde.h"

namespace skewless {

/// "SKWL" little-endian. First bytes of every frame.
inline constexpr std::uint32_t kFrameMagic = 0x4c574b53u;

/// Bumped on ANY wire-visible change (header layout, frame types,
/// payload encodings). Mismatched peers refuse each other at the
/// handshake. v2: fault-tolerance frames (Checkpoint/Restore/RestoreAck/
/// Heartbeat). v3: the kSummary payload is one WorkerSketchSlab
/// encoding, without v2's u32 section-count prefix. v4: kCredit, the
/// data channel's credit window, and 24-byte kSummary cells (three
/// validated doubles; the in-memory cell's pad is not shipped). v5:
/// kCheckpoint leaves ctrl and streams back on the data channel in
/// chunks, behind the summary; kRestore carries a stored checkpoint's
/// bytes verbatim plus the adjustments made since.
inline constexpr std::uint8_t kWireVersion = 5;

/// Hard cap on a single frame's payload. Loopback batches and boundary
/// summaries are a few MiB at most; anything bigger is a corrupt length
/// field, and rejecting it here stops a bad frame from driving a giant
/// allocation.
inline constexpr std::uint32_t kMaxFramePayload = 256u << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,    // ctrl, both ways: version handshake (payload: worker id)
  kBatch = 2,    // data, driver->worker: routed tuple batch
  kSeal = 3,     // ctrl, driver->worker: close the epoch (payload: batches)
  kSummary = 4,  // ctrl, worker->driver: serialized boundary slab
  kHeavySet = 5, // ctrl, driver->worker: post-roll heavy-key broadcast
  kExtract = 6,  // ctrl, driver->worker: extract keys for migration
  kMigrated = 7, // ctrl, worker->driver: extracted serialized states
  kInstall = 8,  // ctrl, driver->worker: install migrated states
  kInstallAck = 9,  // ctrl, worker->driver: installs applied
  kExpire = 10,  // ctrl, driver->worker: window-expiry watermark
  kPlan = 11,    // ctrl, driver->worker: sparse rebalance-plan broadcast
  kPlanAck = 12, // ctrl, worker->driver: plan received (latency probe)
  kStop = 13,    // ctrl, driver->worker: shut down after Fin
  kFin = 14,     // ctrl, worker->driver: final checksums + counters
  kCheckpoint = 15,  // data, worker->driver: one chunk of the post-seal
                     // state checkpoint (epoch = the checkpoint's)
  kRestore = 16,     // ctrl, driver->worker: reinstall a checkpoint and
                     // the migrations since
  kRestoreAck = 17,  // ctrl, worker->driver: checkpoint reinstalled
  kHeartbeat = 18,   // ctrl, worker->driver: epoch-progress liveness beat
  kCredit = 19,      // data, worker->driver: batches taken (cumulative
                     // count in the header's epoch field; no payload)
};

/// Smallest and largest valid FrameType values (decode range check).
inline constexpr std::uint8_t kMinFrameType =
    static_cast<std::uint8_t>(FrameType::kHello);
inline constexpr std::uint8_t kMaxFrameType =
    static_cast<std::uint8_t>(FrameType::kCredit);

[[nodiscard]] const char* frame_type_name(FrameType type);

struct FrameHeader {
  FrameType type = FrameType::kHello;
  std::uint64_t epoch = 0;
  std::uint32_t payload_size = 0;
};

/// Serialized header size on the wire.
inline constexpr std::size_t kFrameHeaderBytes = 4 + 1 + 1 + 2 + 8 + 4;

/// Appends the 20-byte header for a frame of `payload_size` bytes.
void encode_frame_header(ByteWriter& out, FrameType type, std::uint64_t epoch,
                         std::uint32_t payload_size);

/// Decodes + validates a header from exactly kFrameHeaderBytes bytes.
/// Returns false — with a human-readable reason in `error` — on a magic
/// mismatch, a version mismatch, an unknown frame type, or an impossible
/// payload size. Never aborts: the input came off a socket.
[[nodiscard]] bool decode_frame_header(const std::uint8_t* bytes,
                                       std::size_t size, FrameHeader& header,
                                       std::string& error);

}  // namespace skewless
