#include "serialize.h"

#include <cstring>
#include <type_traits>

#include "tensor/ops.h"
#include "tensor/qblock.h"
#include "util/check.h"

namespace vela::comm {
namespace {

template <typename T>
void append_pod(std::vector<std::uint8_t>& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>,
                "wire fields must be raw fixed-layout scalars");
  static_assert(sizeof(T) <= sizeof(std::uint64_t),
                "wire fields are at most 8 bytes");
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

template <typename T>
T read_pod(const std::vector<std::uint8_t>& in, std::size_t& offset) {
  static_assert(std::is_trivially_copyable_v<T>,
                "wire fields must be raw fixed-layout scalars");
  static_assert(sizeof(T) <= sizeof(std::uint64_t),
                "wire fields are at most 8 bytes");
  VELA_CHECK_MSG(offset + sizeof(T) <= in.size(), "wire buffer truncated");
  T value;
  std::memcpy(&value, in.data() + offset, sizeof(T));
  offset += sizeof(T);
  return value;
}

}  // namespace

std::vector<std::uint8_t> encode(const Message& msg) {
  VELA_CHECK_MSG(msg.phantom_bytes == 0,
                 "phantom messages are accounting-only and not encodable");
  VELA_CHECK(msg.wire_bits == 8 || msg.wire_bits == 16 || msg.wire_bits == 32);
  const bool q8 = msg.wire_bits == 8;
  if (q8) {
    VELA_CHECK_MSG(qblock::valid_block(msg.q8_block),
                   "q8 message without a valid block length");
  }
  std::vector<std::uint8_t> out;
  out.reserve(msg.wire_size());
  append_pod(out, static_cast<std::uint8_t>(msg.type));
  // The u8 precision slot: 16/32 travel literally; q8 travels as tag
  // 0x80|block (block < 0x80 by the message.h static_assert), which keeps
  // the 36-byte header layout — and every ledger calibrated to it — intact.
  append_pod(out, static_cast<std::uint8_t>(q8 ? (0x80u | msg.q8_block)
                                               : msg.wire_bits));
  append_pod(out, msg.chunk_index);
  append_pod(out, msg.chunk_count);
  append_pod(out, msg.request_id);
  append_pod(out, msg.source);
  append_pod(out, msg.layer);
  append_pod(out, msg.expert);
  append_pod(out, msg.step);
  // The u64 element-count slot. q8 payloads tile per row, so the receiver
  // needs the row count too: it rides the upper half as (rows << 32) |
  // numel — the PR 3 chunk-field repurposing precedent, no header growth.
  const std::uint64_t numel = msg.payload.size();
  if (q8) {
    const std::uint64_t rows =
        msg.payload.rank() >= 2 ? msg.payload.dim(0) : 1;
    VELA_CHECK_MSG(numel < (1ull << 32) && rows < (1ull << 32),
                   "q8 payload too large for the packed count slot");
    append_pod(out, (rows << 32) | numel);
  } else {
    append_pod(out, numel);
  }
  VELA_CHECK(out.size() == Message::kHeaderBytes);

  if (q8) {
    // Per-row blocks, each one fp32 scale then its int8 codes — the layout
    // whose byte count Message::wire_size() charges.
    const qblock::QTensor qt = qblock::quantize(msg.payload, msg.q8_block);
    const std::size_t per_row = qt.row_blocks();
    for (std::size_t r = 0; r < qt.rows; ++r) {
      for (std::size_t b = 0; b < per_row; ++b) {
        append_pod(out, qt.scales[r * per_row + b]);
        const std::size_t begin = b * qt.block;
        const std::size_t end =
            begin + qt.block < qt.cols ? begin + qt.block : qt.cols;
        for (std::size_t i = begin; i < end; ++i) {
          append_pod(out, qt.codes[r * qt.cols + i]);
        }
      }
    }
  } else if (msg.wire_bits == 16) {
    for (std::size_t i = 0; i < msg.payload.size(); ++i) {
      append_pod(out, ops::float_to_half(msg.payload[i]));
    }
  } else {
    for (std::size_t i = 0; i < msg.payload.size(); ++i) {
      append_pod(out, msg.payload[i]);
    }
  }
  // Size pin: the encoded body must match what the ledgers charge. (A
  // continuation fragment is accounted header-free but still encodes its
  // header, hence the adjustment.)
  const std::uint64_t accounted =
      msg.wire_size() + (msg.chunk_index > 0 ? Message::kHeaderBytes : 0);
  VELA_CHECK_MSG(out.size() == accounted,
                 "accounted wire codec drifted from Message::wire_size()");
  return out;
}

Message decode(const std::vector<std::uint8_t>& bytes) {
  std::size_t offset = 0;
  Message msg;
  msg.type = static_cast<MessageType>(read_pod<std::uint8_t>(bytes, offset));
  const std::uint8_t precision_slot = read_pod<std::uint8_t>(bytes, offset);
  if (precision_slot & 0x80u) {
    msg.wire_bits = 8;
    msg.q8_block = precision_slot & 0x7Fu;
    VELA_CHECK_MSG(qblock::valid_block(msg.q8_block),
                   "bad q8 block tag in message header");
  } else {
    msg.wire_bits = precision_slot;
    VELA_CHECK_MSG(msg.wire_bits == 16 || msg.wire_bits == 32,
                   "bad wire_bits in message header");
  }
  msg.chunk_index = read_pod<std::uint8_t>(bytes, offset);
  msg.chunk_count = read_pod<std::uint8_t>(bytes, offset);
  VELA_CHECK_MSG(msg.chunk_count > 0 && msg.chunk_index < msg.chunk_count,
                 "bad fragment indices in message header");
  msg.request_id = read_pod<std::uint64_t>(bytes, offset);
  msg.source = read_pod<std::uint32_t>(bytes, offset);
  msg.layer = read_pod<std::uint32_t>(bytes, offset);
  msg.expert = read_pod<std::uint32_t>(bytes, offset);
  msg.step = read_pod<std::uint32_t>(bytes, offset);
  const auto count_slot = read_pod<std::uint64_t>(bytes, offset);
  if (msg.wire_bits == 8) {
    // Packed (rows << 32) | numel (see encode); payload comes back rank-2.
    const std::size_t rows = static_cast<std::size_t>(count_slot >> 32);
    const std::size_t numel =
        static_cast<std::size_t>(count_slot & 0xFFFFFFFFull);
    if (numel > 0) {
      VELA_CHECK_MSG(rows > 0 && numel % rows == 0,
                     "bad q8 row count in message header");
      qblock::QTensor qt;
      qt.rows = rows;
      qt.cols = numel / rows;
      qt.block = msg.q8_block;
      qt.codes.resize(numel);
      qt.scales.resize(rows * qt.row_blocks());
      const std::size_t per_row = qt.row_blocks();
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t b = 0; b < per_row; ++b) {
          qt.scales[r * per_row + b] = read_pod<float>(bytes, offset);
          const std::size_t begin = b * qt.block;
          const std::size_t end =
              begin + qt.block < qt.cols ? begin + qt.block : qt.cols;
          for (std::size_t i = begin; i < end; ++i) {
            qt.codes[r * qt.cols + i] = read_pod<std::int8_t>(bytes, offset);
          }
        }
      }
      msg.payload = qblock::dequantize(qt);
    }
  } else if (count_slot > 0) {
    const auto numel = count_slot;
    std::vector<float> data(numel);
    if (msg.wire_bits == 16) {
      for (auto& v : data) v = ops::half_to_float(read_pod<std::uint16_t>(bytes, offset));
    } else {
      for (auto& v : data) v = read_pod<float>(bytes, offset);
    }
    msg.payload = Tensor({static_cast<std::size_t>(numel)}, std::move(data));
  }
  VELA_CHECK_MSG(offset == bytes.size(), "trailing bytes in wire buffer");
  return msg;
}

}  // namespace vela::comm
