#include "net/recovery.h"

#include <cstring>

#include <sys/wait.h>

#include "common/rng.h"
#include "net/frame.h"

namespace skewless {

std::string Checkpoint::add(std::uint64_t chunk_epoch,
                            const CheckpointChunk& chunk) {
  if (awaited == 0) {
    return "sent a Checkpoint chunk with no checkpoint outstanding";
  }
  if (chunk_epoch != awaited) {
    return "sent a chunk of checkpoint " + std::to_string(chunk_epoch) +
           " while checkpoint " + std::to_string(awaited) + " is outstanding";
  }
  if (chunk.total == 0 || chunk.total > kMaxFramePayload) {
    return "announced a checkpoint of " + std::to_string(chunk.total) +
           " bytes";
  }
  if (total != 0 && chunk.total != total) {
    return "changed its checkpoint's size from " + std::to_string(total) +
           " to " + std::to_string(chunk.total) + " bytes";
  }
  if (chunk.offset != assembly.size() || chunk.size == 0 ||
      chunk.size > chunk.total - chunk.offset) {
    return "sent checkpoint bytes [" + std::to_string(chunk.offset) + ", +" +
           std::to_string(chunk.size) + ") after " +
           std::to_string(assembly.size()) + " of " +
           std::to_string(chunk.total);
  }
  if (total == 0) {
    total = chunk.total;
    assembly.reserve(total);
  }
  assembly.insert(assembly.end(), chunk.bytes, chunk.bytes + chunk.size);
  if (assembly.size() < total) return {};
  ByteReader in(assembly, ByteReader::Untrusted{});
  std::uint64_t cp_epoch = 0;
  if (!check_checkpoint(in, cp_epoch) || !in.exhausted() ||
      cp_epoch != awaited) {
    return "sent checkpoint " + std::to_string(awaited) +
           " bytes that fail validation";
  }
  return {};
}

std::uint64_t payload_checksum(const std::vector<std::uint8_t>& bytes) {
  // Fletcher's construction over 64-bit words: per lane a running sum and
  // a sum of running sums, which weighs each word by its distance from
  // the end, so moved words change it too. Four interleaved lanes let the
  // add chains overlap; it runs at memory speed.
  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kWord = sizeof(std::uint64_t);
  std::uint64_t sum[kLanes] = {};
  std::uint64_t weighted[kLanes] = {};
  std::size_t i = 0;
  for (; i + kLanes * kWord <= bytes.size(); i += kLanes * kWord) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      std::uint64_t word = 0;
      std::memcpy(&word, bytes.data() + i + lane * kWord, kWord);
      sum[lane] += word;
      weighted[lane] += sum[lane];
    }
  }
  std::uint64_t h = mix64(bytes.size());
  for (; i < bytes.size(); ++i) h = mix64(h ^ bytes[i]);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    h = mix64(h ^ sum[lane] ^ mix64(weighted[lane]));
  }
  return h;
}

std::string describe_worker_exit(int wait_status) {
  if (WIFEXITED(wait_status)) {
    const int code = WEXITSTATUS(wait_status);
    const char* what = "unknown exit code";
    switch (code) {
      case kWorkerExitOk: what = "clean Fin"; break;
      case kWorkerExitChannel: what = "channel I/O failure"; break;
      case kWorkerExitHandshake: what = "handshake failure"; break;
      case kWorkerExitProtocol: what = "protocol error"; break;
      case kWorkerExitCorruptFrame: what = "corrupt frame"; break;
      case kWorkerExitFault: what = "injected fault"; break;
      default: break;
    }
    return "exited " + std::to_string(code) + " (" + what + ")";
  }
  if (WIFSIGNALED(wait_status)) {
    const int sig = WTERMSIG(wait_status);
    const char* name = ::strsignal(sig);
    return "killed by signal " + std::to_string(sig) + " (" +
           (name != nullptr ? name : "?") + ")";
  }
  return "unrecognized wait status " + std::to_string(wait_status);
}

}  // namespace skewless
