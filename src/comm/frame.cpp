#include "comm/frame.h"

#include <cstring>

#include "tensor/qblock.h"
#include "util/check.h"

namespace vela::comm {
namespace {

template <typename T>
void append_pod(std::vector<std::uint8_t>& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>,
                "frame fields must be raw fixed-layout scalars");
  static_assert(sizeof(T) <= sizeof(std::uint64_t),
                "frame fields are at most 8 bytes");
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

// Bounds-checked read that reports malformed input through a flag instead of
// throwing: decode_frame must reject bad frames gracefully (the tests feed
// it truncated and bit-flipped buffers on purpose).
template <typename T>
bool read_pod(const std::uint8_t* data, std::size_t size, std::size_t& offset,
              T* out) {
  static_assert(std::is_trivially_copyable_v<T>,
                "frame fields must be raw fixed-layout scalars");
  static_assert(sizeof(T) <= sizeof(std::uint64_t),
                "frame fields are at most 8 bytes");
  if (size - offset < sizeof(T)) return false;
  std::memcpy(out, data + offset, sizeof(T));
  offset += sizeof(T);
  return true;
}

bool fail(std::string* error, const char* why) {
  if (error != nullptr) *error = why;
  return false;
}

// The u8 precision slot for a (wire_bits, q8_block) pair: 16/32 travel
// literally, q8 as 0x80|block. 0 means the pair has no slot. Encode and
// decode both go through this one rule, so a decoded header re-encodes to
// the same byte.
std::uint8_t precision_slot(unsigned wire_bits, unsigned q8_block) {
  if (wire_bits == 8) {
    return qblock::valid_block(q8_block)
               ? static_cast<std::uint8_t>(0x80u | q8_block)
               : 0;
  }
  if ((wire_bits == 16 || wire_bits == 32) && q8_block == 0) {
    return static_cast<std::uint8_t>(wire_bits);
  }
  return 0;
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const Message& msg) {
  VELA_CHECK_MSG(msg.type <= kLastMessageType,
                 "message type outside the protocol");
  const std::uint8_t slot = precision_slot(msg.wire_bits, msg.q8_block);
  VELA_CHECK_MSG(slot != 0, "wire_bits " << msg.wire_bits << " with q8_block "
                                         << unsigned{msg.q8_block}
                                         << " has no frame precision slot");
  VELA_CHECK_MSG(msg.chunk_index < msg.chunk_count,
                 "fragment index outside its train");
  const std::size_t rank = msg.payload.rank();
  const std::size_t payload_bytes = msg.payload.size() * sizeof(float);
  std::vector<std::uint8_t> body;
  body.reserve(4 * sizeof(std::uint8_t) + 3 * sizeof(std::uint64_t) +
               6 * sizeof(std::uint32_t) + rank * sizeof(std::uint64_t) +
               payload_bytes);
  append_pod(body, static_cast<std::uint8_t>(msg.type));
  append_pod(body, slot);
  append_pod(body, msg.chunk_index);
  append_pod(body, msg.chunk_count);
  append_pod(body, msg.request_id);
  append_pod(body, msg.source);
  append_pod(body, msg.layer);
  append_pod(body, msg.expert);
  append_pod(body, msg.step);
  append_pod(body, msg.checksum);
  append_pod(body, msg.phantom_bytes);
  append_pod(body, static_cast<std::uint32_t>(rank));
  for (std::size_t d = 0; d < rank; ++d) {
    append_pod(body, static_cast<std::uint64_t>(msg.payload.dim(d)));
  }
  const std::size_t header = body.size();
  VELA_CHECK_MSG(header + payload_bytes <= kMaxFrameBodyBytes,
                 "message too large for one frame");
  body.resize(header + payload_bytes);
  if (payload_bytes > 0) {
    std::memcpy(body.data() + header, msg.payload.data(),
                msg.payload.size() * sizeof(float));
  }
  return body;
}

bool decode_frame(const std::vector<std::uint8_t>& frame, Message* out,
                  std::string* error) {
  VELA_CHECK(out != nullptr);
  const std::uint8_t* body = frame.data();
  const std::size_t size = frame.size();
  if (size > kMaxFrameBodyBytes) {
    return fail(error, "frame exceeds the frame body limit");
  }
  Message msg;
  std::size_t offset = 0;
  std::uint8_t type = 0, slot = 0;
  std::uint32_t rank = 0;
  const bool ok = read_pod(body, size, offset, &type) &&
                  read_pod(body, size, offset, &slot) &&
                  read_pod(body, size, offset, &msg.chunk_index) &&
                  read_pod(body, size, offset, &msg.chunk_count) &&
                  read_pod(body, size, offset, &msg.request_id) &&
                  read_pod(body, size, offset, &msg.source) &&
                  read_pod(body, size, offset, &msg.layer) &&
                  read_pod(body, size, offset, &msg.expert) &&
                  read_pod(body, size, offset, &msg.step) &&
                  read_pod(body, size, offset, &msg.checksum) &&
                  read_pod(body, size, offset, &msg.phantom_bytes) &&
                  read_pod(body, size, offset, &rank);
  if (!ok) return fail(error, "truncated frame header");
  if (type > static_cast<std::uint8_t>(kLastMessageType)) {
    return fail(error, "unknown message type in frame header");
  }
  msg.type = static_cast<MessageType>(type);
  msg.wire_bits = (slot & 0x80u) != 0 ? 8u : slot;
  msg.q8_block =
      (slot & 0x80u) != 0 ? static_cast<std::uint8_t>(slot & 0x7Fu) : 0;
  if (slot == 0 || precision_slot(msg.wire_bits, msg.q8_block) != slot) {
    return fail(error, (slot & 0x80u) != 0
                           ? "bad q8 block tag in frame header"
                           : "bad wire_bits in frame header");
  }
  if (msg.chunk_index >= msg.chunk_count) {
    return fail(error, "bad fragment indices in frame header");
  }

  if (rank > (size - offset) / sizeof(std::uint64_t)) {
    return fail(error, "truncated shape descriptor");
  }
  std::vector<std::size_t> shape(rank);
  std::size_t numel = rank > 0 ? 1 : 0;
  for (std::size_t& dim : shape) {
    std::uint64_t value = 0;
    read_pod(body, size, offset, &value);  // in bounds by the rank check
    if (value == 0 || value > kMaxFrameBodyBytes) {
      return fail(error, "implausible tensor dimension");
    }
    dim = static_cast<std::size_t>(value);
    numel *= dim;
    if (numel > kMaxFrameBodyBytes) {
      return fail(error, "shape volume exceeds the frame body limit");
    }
  }
  const std::size_t payload_bytes = numel * sizeof(float);
  if (size - offset < payload_bytes) {
    return fail(error, "truncated payload data");
  }
  if (size - offset > payload_bytes) {
    return fail(error, "trailing bytes in frame body");
  }
  if (numel > 0) {
    std::vector<float> values(numel);
    std::memcpy(values.data(), body + offset, numel * sizeof(float));
    msg.payload = Tensor(std::move(shape), std::move(values));
  }
  *out = std::move(msg);
  return true;
}

}  // namespace vela::comm
