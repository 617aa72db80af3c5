#include "comm/message.h"

#include <sstream>

#include "util/fnv1a.h"

namespace vela::comm {

const char* message_type_name(MessageType t) {
  switch (t) {
    case MessageType::kExpertForward:
      return "ExpertForward";
    case MessageType::kExpertForwardResult:
      return "ExpertForwardResult";
    case MessageType::kExpertBackward:
      return "ExpertBackward";
    case MessageType::kExpertBackwardResult:
      return "ExpertBackwardResult";
    case MessageType::kOptimizerStep:
      return "OptimizerStep";
    case MessageType::kOptimizerStepDone:
      return "OptimizerStepDone";
    case MessageType::kFetchExpert:
      return "FetchExpert";
    case MessageType::kQueryExpert:
      return "QueryExpert";
    case MessageType::kLoadExpertState:
      return "LoadExpertState";
    case MessageType::kLoadExpertStateDone:
      return "LoadExpertStateDone";
    case MessageType::kExpertState:
      return "ExpertState";
    case MessageType::kInstallExpert:
      return "InstallExpert";
    case MessageType::kInstallExpertDone:
      return "InstallExpertDone";
    case MessageType::kAllReduceChunk:
      return "AllReduceChunk";
    case MessageType::kShutdown:
      return "Shutdown";
    case MessageType::kProbe:
      return "Probe";
    case MessageType::kProbeAck:
      return "ProbeAck";
    case MessageType::kAbortStep:
      return "AbortStep";
    case MessageType::kAbortStepDone:
      return "AbortStepDone";
    case MessageType::kSnapshotExpert:
      return "SnapshotExpert";
    case MessageType::kExpertSnapshot:
      return "ExpertSnapshot";
    case MessageType::kRestoreExpert:
      return "RestoreExpert";
    case MessageType::kRestoreExpertDone:
      return "RestoreExpertDone";
    case MessageType::kCrash:
      return "Crash";
    case MessageType::kStorePriorities:
      return "StorePriorities";
    case MessageType::kStorePrioritiesDone:
      return "StorePrioritiesDone";
    case MessageType::kPrefetchExperts:
      return "PrefetchExperts";
  }
  return "?";
}

std::uint32_t Message::compute_checksum() const {
  // FNV-1a over every field a receiver acts on, each folded as little-endian
  // u32 words, then the payload's float bits. Never returns 0 so a stamped
  // message cannot be mistaken for an unchecksummed one.
  static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
                "the checksum hashes host words as little-endian bytes");
  const std::uint32_t header[] = {
      static_cast<std::uint32_t>(type),
      static_cast<std::uint32_t>(request_id),
      static_cast<std::uint32_t>(request_id >> 32),
      source,
      layer,
      expert,
      step,
      static_cast<std::uint32_t>(phantom_bytes),
      // q8_block shares the fragment word: zero (every non-q8 message)
      // leaves the hash identical to the pre-quantization protocol, so
      // stamped traffic from fp32/fp16 runs is bit-compatible with old
      // goldens.
      static_cast<std::uint32_t>(chunk_index) |
          (static_cast<std::uint32_t>(chunk_count) << 8) |
          (static_cast<std::uint32_t>(q8_block) << 16),
  };
  const std::uint32_t h =
      util::fnv1a(payload.data(), payload.size() * sizeof(float),
                  util::fnv1a(header, sizeof(header)));
  return h == 0 ? 1u : h;
}

std::string Message::to_string() const {
  std::ostringstream os;
  os << message_type_name(type) << "{req=" << request_id << ", layer=" << layer
     << ", expert=" << expert << ", step=" << step;
  if (chunk_count > 1) {
    os << ", chunk=" << static_cast<unsigned>(chunk_index) << "/"
       << static_cast<unsigned>(chunk_count);
  }
  if (wire_bits == 8) {
    os << ", dtype=q8/" << static_cast<unsigned>(q8_block);
  }
  os << ", bytes=" << wire_size() << "}";
  return os.str();
}

}  // namespace vela::comm
