// Wire messages of the master↔worker protocol (Fig. 4).
//
// A message either carries a real tensor payload (the runnable models — the
// bytes that cross the channel are the bytes that are counted) or a phantom
// payload (shape presets: only the byte count travels, so Mixtral-scale
// traffic can be accounted without allocating Mixtral-scale tensors).
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>

#include "tensor/qblock.h"
#include "tensor/tensor.h"

namespace vela::comm {

enum class MessageType : std::uint8_t {
  kExpertForward,         // master → worker: token block for one expert
  kExpertForwardResult,   // worker → master: expert output
  kExpertBackward,        // master → worker: output gradient for one request
  kExpertBackwardResult,  // worker → master: input gradient
  kOptimizerStep,         // master → worker: end of step, apply updates
  kOptimizerStepDone,     // worker → master: ack
  kFetchExpert,           // master → worker: detach expert, return its state
  kQueryExpert,           // master → worker: return state, keep hosting
  kExpertState,           // worker → master: serialized adapter state
  kInstallExpert,         // master → worker: host expert (payload = state)
  kInstallExpertDone,     // worker → master: ack
  kLoadExpertState,       // master → worker: overwrite a hosted expert's
                          //   adapters (payload = state; checkpoint restore)
  kLoadExpertStateDone,   // worker → master: ack
  kAllReduceChunk,        // EP peer → peer: ring all-reduce gradient chunk
  kShutdown,              // master → worker: terminate
  kProbe,                 // master → worker: liveness probe (heartbeat)
  kProbeAck,              // worker → master: probe ack
  kAbortStep,             // master → worker: discard tapes + gradients of the
                          //   in-flight step (mid-step failure recovery)
  kAbortStepDone,         // worker → master: ack
  kSnapshotExpert,        // master → worker: return full recovery state
                          //   (adapters + optimizer moments), keep hosting
  kExpertSnapshot,        // worker → master: packed full recovery state
  kRestoreExpert,         // master → worker: host expert, restoring full
                          //   recovery state (empty payload = fresh from seed)
  kRestoreExpertDone,     // worker → master: ack
  kCrash,                 // fault injection only: simulate an abrupt worker
                          //   process death (both channels die, state is lost)
  kStorePriorities,       // master → worker: locality scores for the expert
                          //   store's admission policy (payload = flattened
                          //   L×E matrix; layer/expert fields carry the dims)
  kStorePrioritiesDone,   // worker → master: ack
  kPrefetchExperts,       // master → worker: fire-and-forget dispatch hint —
                          //   page these experts in ahead of the forwards
                          //   queued behind the hint (payload = expert ids
                          //   for the layer field; never awaited, no reply)
};

// The last variant above: codecs reject a type byte past it. Appending a
// variant moves this too.
inline constexpr MessageType kLastMessageType = MessageType::kPrefetchExperts;

const char* message_type_name(MessageType t);

// The largest q8 block length the wire tag byte can carry (see Message
// below): the u8 precision slot encodes q8 as 0x80|block.
constexpr bool qblock_detail_max_block_fits_tag() { return 64 < 0x80; }

struct Message {
  MessageType type = MessageType::kShutdown;
  std::uint64_t request_id = 0;  // pairs requests with their results
  std::uint32_t source = 0;      // sending process (EP peers route replies by it)
  std::uint32_t layer = 0;
  std::uint32_t expert = 0;
  std::uint32_t step = 0;
  Tensor payload;                   // empty for control / phantom messages
  std::uint64_t phantom_bytes = 0;  // payload size when no tensor is carried
  unsigned wire_bits = 32;          // transport precision of the payload
  // Quantized wire tier (DESIGN.md §13): when wire_bits == 8 the payload is
  // accounted as per-row block int8 — one int8 code per element plus one
  // fp32 scale per `q8_block` elements (32 or 64; blocks never span rows).
  // 0 everywhere else. On the accounted wire this rides the u8 precision
  // slot as tag 0x80|q8_block, so the 36-byte header is unchanged.
  std::uint8_t q8_block = 0;
  // Fragmentation of one logical transfer (the VELA_OVERLAP dispatch
  // pipeline): a payload split into `chunk_count` row chunks travels as
  // fragments that share one protocol header — fragment 0 carries it, the
  // continuations (chunk_index > 0) are header-free, exactly like the
  // fragments of a scatter-gather write. Fragments of a group carry
  // consecutive request ids (base = request_id - chunk_index), so receivers
  // can reassemble without extra header fields. Unfragmented messages keep
  // the defaults (0, 1).
  std::uint8_t chunk_index = 0;
  std::uint8_t chunk_count = 1;
  // Integrity check over header fields + payload. 0 means "not checksummed":
  // channels only stamp checksums when a FaultInjector is attached, so the
  // fault-free hot path pays nothing. The checksum models the CRC a real
  // transport carries inside its header — kHeaderBytes already budgets it.
  std::uint32_t checksum = 0;

  // Size of a protocol header on the wire (type, ids, shape descriptor, CRC).
  static constexpr std::uint64_t kHeaderBytes = 36;

  // Total bytes this message occupies on the wire. Continuation fragments
  // ride the logical transfer whose header fragment 0 already paid for, so
  // they cost their payload only — which is what makes the chunked dispatch
  // pipeline byte-identical to the unchunked exchange at any chunk count.
  [[nodiscard]] std::uint64_t wire_size() const {
    std::uint64_t body;
    if (payload.size() == 0) {
      body = phantom_bytes;
    } else if (wire_bits == 8) {
      // Per-row block int8: codes + one fp32 scale per block (qblock.h).
      // Rank >= 2 payloads tile along dim 0; a flat payload is one row.
      const std::size_t rows = qblock::tile_rows(payload);
      body = qblock::wire_payload_bytes(
          rows, payload.size() / rows,
          q8_block != 0 ? q8_block : qblock::kDefaultBlock);
    } else {
      body = payload.wire_bytes(wire_bits);
    }
    return (chunk_index > 0 ? 0 : kHeaderBytes) + body;
  }

  // FNV-1a over the routing header and payload bits.
  [[nodiscard]] std::uint32_t compute_checksum() const;
  void stamp_checksum() { checksum = compute_checksum(); }
  // True when unchecksummed or the checksum matches (receivers treat a
  // mismatch as in-flight corruption and drop the message).
  [[nodiscard]] bool checksum_ok() const {
    return checksum == 0 || checksum == compute_checksum();
  }

  std::string to_string() const;
};

// Wire-layout pins (DESIGN.md §9). The frame codec (frame.cpp) and the
// accounted-size oracle the tests keep (tests/serialize.cpp) write the
// header fields below at these exact widths; kHeaderBytes is what every
// ledger, clock and golden CSV in the tree is calibrated against. Narrowing,
// widening or retyping a header field must break the build here — not drift
// the protocol silently (the PR 3 chunk-field repurposing is the motivating
// precedent). Message itself is NOT trivially copyable (it owns a Tensor);
// only the header fields are raw scalars.
static_assert(std::is_trivially_copyable_v<MessageType> &&
                  sizeof(MessageType) == sizeof(std::uint8_t),
              "wire header: type travels as u8");
static_assert(std::is_same_v<decltype(Message::request_id), std::uint64_t>,
              "wire header: request_id travels as u64");
static_assert(std::is_same_v<decltype(Message::source), std::uint32_t> &&
                  std::is_same_v<decltype(Message::layer), std::uint32_t> &&
                  std::is_same_v<decltype(Message::expert), std::uint32_t> &&
                  std::is_same_v<decltype(Message::step), std::uint32_t>,
              "wire header: routing ids travel as u32");
static_assert(std::is_same_v<decltype(Message::chunk_index), std::uint8_t> &&
                  std::is_same_v<decltype(Message::chunk_count), std::uint8_t>,
              "wire header: fragment indices travel as u8 (receivers "
              "reassemble trains keyed on request_id - chunk_index)");
static_assert(std::is_same_v<decltype(Message::checksum), std::uint32_t>,
              "wire header: the CRC slot is u32 (budgeted in kHeaderBytes)");
static_assert(std::is_same_v<decltype(Message::q8_block), std::uint8_t> &&
                  qblock_detail_max_block_fits_tag(),
              "wire header: q8_block rides the u8 precision slot as "
              "0x80|block, so the block length must stay below 0x80");
static_assert(Message::kHeaderBytes ==
                  4 * sizeof(std::uint8_t) +    // type, wire_bits, chunk_*
                      2 * sizeof(std::uint64_t) +  // request_id, element count
                      4 * sizeof(std::uint32_t),   // source, layer, expert, step
              "wire header: kHeaderBytes must equal the serialized field sum");

}  // namespace vela::comm
