#include "comm/wire_codec.h"

#include <cstdlib>

#include "tensor/ops.h"
#include "tensor/qblock.h"
#include "util/check.h"

namespace vela::comm {

const char* wire_dtype_name(WireDtype d) {
  switch (d) {
    case WireDtype::kDefault:
      return "default";
    case WireDtype::kFp32:
      return "fp32";
    case WireDtype::kFp16:
      return "fp16";
    case WireDtype::kInt8:
      return "int8";
    case WireDtype::kFp16Accounted:
      return "fp16acct";
  }
  return "?";
}

WireDtype parse_wire_dtype(const std::string& name) {
  if (name.empty() || name == "default") return WireDtype::kDefault;
  if (name == "fp32") return WireDtype::kFp32;
  if (name == "fp16acct") return WireDtype::kFp16Accounted;
  if (name == "fp16") return WireDtype::kFp16;
  if (name == "int8") return WireDtype::kInt8;
  VELA_CHECK_MSG(false, "VELA_WIRE_DTYPE must be fp32|fp16acct|fp16|int8, got '"
                            << name << "'");
  return WireDtype::kDefault;
}

WireDtype wire_dtype_from_env() {
  const char* env = std::getenv("VELA_WIRE_DTYPE");
  return env == nullptr ? WireDtype::kDefault : parse_wire_dtype(env);
}

unsigned wire_block_from_env() {
  const char* env = std::getenv("VELA_WIRE_BLOCK");
  if (env == nullptr || *env == '\0') return 0;
  const unsigned block = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
  VELA_CHECK_MSG(qblock::valid_block(block),
                 "VELA_WIRE_BLOCK must be 32 or 64, got '" << env << "'");
  return block;
}

WireCodec WireCodec::resolve(WireDtype requested, WireDtype runtime_default,
                             unsigned requested_block) {
  VELA_CHECK(runtime_default != WireDtype::kDefault);
  WireCodec codec;
  codec.dtype = requested;
  if (codec.dtype == WireDtype::kDefault) codec.dtype = wire_dtype_from_env();
  if (codec.dtype == WireDtype::kDefault) codec.dtype = runtime_default;
  if (codec.is_int8()) {
    codec.block = requested_block;
    if (codec.block == 0) codec.block = wire_block_from_env();
    if (codec.block == 0) codec.block = qblock::kDefaultBlock;
    VELA_CHECK_MSG(qblock::valid_block(codec.block),
                   "int8 wire block must be 32 or 64, got " << codec.block);
  }
  return codec;
}

unsigned WireCodec::bits() const {
  switch (dtype) {
    case WireDtype::kInt8:
      return 8;
    case WireDtype::kFp16:
    case WireDtype::kFp16Accounted:
      return 16;
    default:
      return 32;
  }
}

std::size_t WireCodec::row_bytes(std::size_t cols) const {
  if (is_int8()) return qblock::wire_payload_bytes(/*rows=*/1, cols, block);
  return cols * (bits() / 8);
}

Tensor WireCodec::apply(Tensor payload) const {
  switch (dtype) {
    case WireDtype::kFp16:
      return ops::to_half_precision(payload);
    case WireDtype::kInt8:
      return qblock::roundtrip(payload, block);
    default:
      return payload;
  }
}

}  // namespace vela::comm
