#include "net/frame.h"

#include <cstdio>

namespace skewless {

const char* frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "Hello";
    case FrameType::kBatch: return "Batch";
    case FrameType::kSeal: return "Seal";
    case FrameType::kSummary: return "Summary";
    case FrameType::kHeavySet: return "HeavySet";
    case FrameType::kExtract: return "Extract";
    case FrameType::kMigrated: return "Migrated";
    case FrameType::kInstall: return "Install";
    case FrameType::kInstallAck: return "InstallAck";
    case FrameType::kPlan: return "Plan";
    case FrameType::kPlanAck: return "PlanAck";
    case FrameType::kStop: return "Stop";
    case FrameType::kFin: return "Fin";
    case FrameType::kCheckpoint: return "Checkpoint";
    case FrameType::kRestore: return "Restore";
    case FrameType::kRestoreAck: return "RestoreAck";
    case FrameType::kHeartbeat: return "Heartbeat";
    case FrameType::kCredit: return "Credit";
  }
  return "?";
}

void encode_frame_header(ByteWriter& out, FrameType type, std::uint64_t epoch,
                         std::uint32_t payload_size) {
  out.u32(kFrameMagic);
  out.u8(kWireVersion);
  out.u8(static_cast<std::uint8_t>(type));
  out.u8(0);  // pad
  out.u8(0);
  out.u64(epoch);
  out.u32(payload_size);
}

bool decode_frame_header(const std::uint8_t* bytes, std::size_t size,
                         FrameHeader& header, std::string& error) {
  ByteReader in(bytes, size, ByteReader::Untrusted{});
  const std::uint32_t magic = in.u32();
  const std::uint8_t version = in.u8();
  const std::uint8_t type = in.u8();
  in.u8();  // pad
  in.u8();
  const std::uint64_t epoch = in.u64();
  const std::uint32_t payload_size = in.u32();
  if (!in.ok()) {
    error = "truncated frame header";
    return false;
  }
  char buf[96];
  if (magic != kFrameMagic) {
    std::snprintf(buf, sizeof(buf), "bad frame magic 0x%08x (want 0x%08x)",
                  magic, kFrameMagic);
    error = buf;
    return false;
  }
  if (version != kWireVersion) {
    std::snprintf(buf, sizeof(buf),
                  "wire version mismatch: peer speaks v%u, this build v%u",
                  version, kWireVersion);
    error = buf;
    return false;
  }
  if (type < kMinFrameType || type > kMaxFrameType ||
      type == kRetiredFrameType) {
    std::snprintf(buf, sizeof(buf), "unknown frame type %u", type);
    error = buf;
    return false;
  }
  if (payload_size > kMaxFramePayload) {
    std::snprintf(buf, sizeof(buf), "frame payload %u exceeds cap %u",
                  payload_size, kMaxFramePayload);
    error = buf;
    return false;
  }
  header.type = static_cast<FrameType>(type);
  header.epoch = epoch;
  header.payload_size = payload_size;
  return true;
}

}  // namespace skewless
