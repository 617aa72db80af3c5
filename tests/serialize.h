// Accounted-size oracle: the byte-level message codec the ledgers are
// calibrated against. Nothing in the runtime calls it — transports move the
// lossless frame (src/comm/frame.h) and charge Message::wire_size() — so it
// lives with the tests, which pin encode(msg).size() == msg.wire_size(). Payloads encode
// at the message's wire_bits: 32 → raw IEEE binary32, 16 → IEEE binary16
// (round-to-nearest-even — the paper's b = 16 feature transport), 8 → the
// quantized tier's per-row block int8 (DESIGN.md §13). Header layout
// (little-endian, 36 bytes):
//
//   u8 type | u8 precision | u8 chunk_index | u8 chunk_count |
//   u64 request_id | u32 source | u32 layer | u32 expert | u32 step |
//   u64 payload elements
//
// The precision slot carries wire_bits literally for 16/32; a q8 payload
// tags it as 0x80|block (block ∈ {32, 64}) and packs its row count into the
// upper half of the element-count slot as (rows << 32) | numel, so the
// header stays exactly 36 bytes. A q8 body is then, per row, per block:
//
//   f32 scale | i8 codes[block]          (last block of a row may be short)
//
// One caveat for fragmented transfers (chunk_count > 1): every physical
// fragment still encodes the full framing above, but wire_size() charges the
// protocol header once per *logical* transfer (fragment 0 only) — the
// continuations' framing stands in for the few flag bytes a real
// scatter-gather transport amortizes across a fragment train. The size pin
// therefore holds exactly for unfragmented messages and fragment 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "comm/message.h"

namespace vela::comm {

// Field-by-field mirror of the header layout documented above, pinned at
// compile time so the comment, the codec and the byte accounting cannot
// drift apart. encode() checks the running offset against these at runtime;
// the static_assert makes drift a build failure first.
namespace wire {
inline constexpr std::size_t kTypeBytes = sizeof(std::uint8_t);
inline constexpr std::size_t kWireBitsBytes = sizeof(std::uint8_t);
inline constexpr std::size_t kChunkIndexBytes = sizeof(std::uint8_t);
inline constexpr std::size_t kChunkCountBytes = sizeof(std::uint8_t);
inline constexpr std::size_t kRequestIdBytes = sizeof(std::uint64_t);
inline constexpr std::size_t kSourceBytes = sizeof(std::uint32_t);
inline constexpr std::size_t kLayerBytes = sizeof(std::uint32_t);
inline constexpr std::size_t kExpertBytes = sizeof(std::uint32_t);
inline constexpr std::size_t kStepBytes = sizeof(std::uint32_t);
inline constexpr std::size_t kElementCountBytes = sizeof(std::uint64_t);
}  // namespace wire

static_assert(wire::kTypeBytes + wire::kWireBitsBytes +
                      wire::kChunkIndexBytes + wire::kChunkCountBytes +
                      wire::kRequestIdBytes + wire::kSourceBytes +
                      wire::kLayerBytes + wire::kExpertBytes +
                      wire::kStepBytes + wire::kElementCountBytes ==
                  Message::kHeaderBytes,
              "wire header fields must sum to Message::kHeaderBytes");

// Encodes a message to its wire representation. Phantom messages (no
// payload, phantom_bytes set) are not encodable — they exist only for
// accounting — and are rejected.
std::vector<std::uint8_t> encode(const Message& msg);

// Decodes a wire buffer back into a Message. The payload comes back as a
// rank-1 tensor of the transported element count (shape metadata beyond the
// element count is not carried — receivers know the expected shape from the
// protocol state, mirroring how the runtime uses it); a q8 payload comes
// back rank-2 [rows, cols], already dequantized. Throws on malformed input.
Message decode(const std::vector<std::uint8_t>& bytes);

}  // namespace vela::comm
