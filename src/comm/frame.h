// Transport frame codec: the byte representation a Transport actually moves.
//
// A frame is exactly one Message body. It is lossless — full fp32 payload
// bits, tensor shape, phantom byte counts, fragment fields and the Message
// checksum all survive — so the same fine-tune is bit-exact on every
// backend. What a hop is *charged* is Message::wire_size() (DESIGN.md §10);
// the physical frame size never feeds a meter or ledger. The accounted wire
// format (payloads at wire_bits precision) lives on only as a test oracle,
// tests/serialize.{h,cpp}.
//
// Frame layout (little-endian):
//
//   u8 type | u8 precision | u8 chunk_index | u8 chunk_count |
//   u64 request_id | u32 source | u32 layer | u32 expert | u32 step |
//   u32 checksum | u64 phantom_bytes | u32 rank | u64 dims[rank] |
//   f32 data[numel]
//
// The precision slot carries wire_bits literally for 16/32 and a q8 payload
// as 0x80|block (block ∈ {32, 64}); no other value is a frame.
//
// The frame has no length prefix and no CRC of its own: the in-process
// queue hands over whole frames and hashes nothing, and the socket session
// record (comm/session.h) carries the one length and the one CRC for bytes
// that leave the process. The Message-level `checksum` field is the
// end-to-end one the fault injector corrupts; it travels as body bytes, so
// a corrupted message frames cleanly and is only rejected at the receiving
// runtime, identically on every backend.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comm/message.h"

namespace vela::comm {

// Frames larger than this are refused: no legitimate message in the tree
// comes within two orders of magnitude, so a larger session-record length
// means stream corruption (or a torn/misaligned read).
inline constexpr std::uint32_t kMaxFrameBodyBytes = 1u << 30;

// Encodes a message into one frame. Phantom and zero-length payloads are
// encodable; a header field outside the layout above (an unknown type, a
// wire_bits/q8_block pair without a precision slot, chunk_index >=
// chunk_count) fails a VELA_CHECK.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Message& msg);

// Decodes a frame back into a Message. Returns false (with *error
// describing why, when non-null) on a truncated or oversize buffer, an
// invalid header field, or trailing bytes. A true return restores the
// Message bit-exactly as encoded, and re-encoding it yields `frame`.
[[nodiscard]] bool decode_frame(const std::vector<std::uint8_t>& frame,
                                Message* out, std::string* error = nullptr);

}  // namespace vela::comm
