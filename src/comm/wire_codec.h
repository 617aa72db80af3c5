// The dtype layer of the quantized wire tier (DESIGN.md §13).
//
// One resolved WireCodec per runtime decides how activation/gradient
// dispatch payloads travel: untouched fp32 (charged at 32 or 16 bits), IEEE
// binary16, or per-row block int8 (tensor/qblock.h). The transform happens
// ONCE at the sender — the transport frame then carries the already-lossy
// floats losslessly — so both transport backends, fault injection replays
// and the multi-process fleet see bit-identical numerics with zero
// backend-specific code. Accounting rides Message::wire_size() via the
// stamped wire_bits / q8_block fields, which is all TrafficMeter and the
// conservation auditor ever look at.
//
// Resolution order (master, workers and remote vela_nodes all run the same
// function, so a fleet can never disagree):
//   1. an explicit config dtype (VelaSystemConfig / EpRuntimeConfig /
//      Scenario) wins;
//   2. kDefault consults VELA_WIRE_DTYPE (fp32|fp16acct|fp16|int8);
//   3. with the env unset, the runtime's own default applies: the paper's
//      fp16-accounted wire for VELA (core::kVelaWireDefault), fp32 for EP.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "comm/message.h"
#include "tensor/tensor.h"

namespace vela::comm {

enum class WireDtype : std::uint8_t {
  kDefault = 0,    // resolve from VELA_WIRE_DTYPE, else the runtime default
  kFp32,           // raw floats, 32-bit accounting, no transform
  kFp16,           // IEEE binary16 round trip, 16-bit accounting
  kInt8,           // per-row block int8 + fp32 scales (qblock.h)
  kFp16Accounted,  // raw floats charged at 16 bits (the paper's b = 16)
};

const char* wire_dtype_name(WireDtype d);

// Parses "fp32" / "fp16acct" / "fp16" / "int8" / "default" (empty →
// kDefault). Anything else is a hard config error.
WireDtype parse_wire_dtype(const std::string& name);

// VELA_WIRE_DTYPE / VELA_WIRE_BLOCK. Unset env → kDefault / 0.
WireDtype wire_dtype_from_env();
unsigned wire_block_from_env();

struct WireCodec {
  WireDtype dtype = WireDtype::kFp32;  // resolved — never kDefault
  unsigned block = 0;  // q8 block length (32/64) when dtype == kInt8

  // Resolves a runtime's codec (see file comment). `runtime_default` must
  // not be kDefault. `requested_block` 0 falls back to VELA_WIRE_BLOCK,
  // then 64.
  static WireCodec resolve(WireDtype requested, WireDtype runtime_default,
                           unsigned requested_block);

  // Accounting depth stamped into Message::wire_bits.
  unsigned bits() const;
  // Bytes Message::wire_size() charges for a 1×cols dispatch payload,
  // header excluded — the b·H/8 of one token row in the paper's Eq. (5)–(7).
  // Every traffic model and placement problem takes b from here.
  std::size_t row_bytes(std::size_t cols) const;
  // false ⇒ apply() is the identity copy.
  bool transforms() const {
    return dtype == WireDtype::kFp16 || dtype == WireDtype::kInt8;
  }

  // Sender-side payload transform (identity for fp32 numerics).
  [[nodiscard]] Tensor apply(Tensor payload) const;

  // Stamps the accounting fields of a dispatch message.
  void stamp(Message& msg) const {
    msg.wire_bits = bits();
    msg.q8_block =
        dtype == WireDtype::kInt8 ? static_cast<std::uint8_t>(block) : 0;
  }

  bool is_int8() const { return dtype == WireDtype::kInt8; }
};

}  // namespace vela::comm
