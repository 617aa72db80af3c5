// Wire-level conformance for the quantized tier (`ctest -L quant`,
// DESIGN.md §13): the accounted-size oracle (tests/serialize.h) and the
// lossless transport frame (frame.h) against q8 payload sizes, and the
// WireCodec resolution rules. The socket stream's torn-read and CRC
// behavior over the smallest and a large q8 record is RecordParser's
// (test_transport.cpp); backend equivalence end-to-end is pinned by
// test_quant_system.cpp.
#include "comm/wire_codec.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "comm/frame.h"
#include "serialize.h"
#include "tensor/ops.h"
#include "tensor/qblock.h"
#include "util/check.h"
#include "util/rng.h"
#include "scoped_env.h"

namespace vela {
namespace {

using testutil::ScopedEnv;

comm::Message q8_message(std::size_t rows, std::size_t cols, unsigned block,
                         std::uint64_t seed = 5) {
  comm::Message msg;
  msg.type = comm::MessageType::kExpertForward;
  msg.request_id = 0x1122334455667788ull;
  msg.layer = 1;
  msg.expert = 2;
  msg.step = 9;
  Rng rng(seed);
  msg.payload = ops::randn({rows, cols}, rng);
  msg.wire_bits = 8;
  msg.q8_block = static_cast<std::uint8_t>(block);
  return msg;
}

// ---------------------------------------------------------------------------
// Accounted-size oracle (tests/serialize.h)
// ---------------------------------------------------------------------------

TEST(QuantSerialize, EncodedSizeEqualsWireSizeEqualsSumOfBlocks) {
  for (const unsigned block : {32u, 64u}) {
    const comm::Message msg = q8_message(6, 70, block);
    const auto bytes = comm::encode(msg);
    EXPECT_EQ(bytes.size(), msg.wire_size()) << "block " << block;
    // Ledger exactness: the charged body is exactly the sum of the per-block
    // encoded sizes (4 B scale + the block's code run, short last block).
    std::size_t body = 0;
    for (std::size_t r = 0; r < 6; ++r) {
      for (std::size_t b = 0; b * block < 70; ++b) {
        const std::size_t len = std::min<std::size_t>(block, 70 - b * block);
        body += sizeof(float) + len;
      }
    }
    EXPECT_EQ(msg.wire_size(), comm::Message::kHeaderBytes + body);
    EXPECT_EQ(body, qblock::wire_payload_bytes(6, 70, block));
  }
}

TEST(QuantSerialize, SmallestPayloadEncodes) {
  const comm::Message msg = q8_message(1, 1, 32);
  const auto bytes = comm::encode(msg);
  EXPECT_EQ(bytes.size(), comm::Message::kHeaderBytes + 1 + sizeof(float));
  const comm::Message back = comm::decode(bytes);
  EXPECT_EQ(back.wire_bits, 8u);
  EXPECT_EQ(back.q8_block, 32u);
  ASSERT_EQ(back.payload.size(), 1u);
}

TEST(QuantSerialize, RoundTripMatchesQuantizeDequantize) {
  const comm::Message msg = q8_message(4, 45, 64);
  const comm::Message back = comm::decode(comm::encode(msg));
  EXPECT_EQ(back.type, msg.type);
  EXPECT_EQ(back.request_id, msg.request_id);
  EXPECT_EQ(back.wire_bits, 8u);
  EXPECT_EQ(back.q8_block, 64u);
  // q8 decode restores the row structure (rank-2), unlike the rank-1
  // fp16/fp32 paths — the row tiling is part of the wire format.
  ASSERT_EQ(back.payload.rank(), 2u);
  EXPECT_EQ(back.payload.dim(0), 4u);
  EXPECT_EQ(back.payload.dim(1), 45u);
  const Tensor expect =
      qblock::dequantize(qblock::quantize(msg.payload, 64));
  ASSERT_EQ(back.payload.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(back.payload[i], expect[i]) << i;  // bit-exact
  }
}

TEST(QuantSerialize, DecodeRejectsBadBlockTag) {
  auto bytes = comm::encode(q8_message(2, 40, 32));
  bytes[1] = 0x80 | 16;  // valid-looking tag bit, invalid block length
  EXPECT_THROW(comm::decode(bytes), CheckError);
}

TEST(QuantSerialize, TruncatedQ8BufferRejected) {
  auto bytes = comm::encode(q8_message(2, 40, 32));
  bytes.resize(bytes.size() - 1);
  EXPECT_THROW(comm::decode(bytes), CheckError);
}

TEST(QuantMessage, WireSizeReflectsQuantizedFootprint) {
  const comm::Message q8 = q8_message(3, 64, 64);
  comm::Message f32 = q8;
  f32.wire_bits = 32;
  f32.q8_block = 0;
  // 3*64 codes + 3 scales vs 3*64 raw floats: better than 3.7x here.
  EXPECT_EQ(q8.wire_size(),
            comm::Message::kHeaderBytes + 3 * 64 + 3 * sizeof(float));
  EXPECT_GT(f32.wire_size(), 2 * q8.wire_size() - comm::Message::kHeaderBytes);
}

TEST(QuantMessage, ChecksumCoversBlockLength) {
  comm::Message msg = q8_message(2, 32, 32);
  msg.stamp_checksum();
  EXPECT_TRUE(msg.checksum_ok());
  msg.q8_block = 64;  // tamper the accounting tag
  EXPECT_FALSE(msg.checksum_ok());
}

// ---------------------------------------------------------------------------
// Transport frame (frame.h)
// ---------------------------------------------------------------------------

TEST(QuantFrame, RoundTripIsLossless) {
  const comm::Message msg = q8_message(4, 70, 64, /*seed=*/7);
  comm::Message back;
  std::string error;
  ASSERT_TRUE(comm::decode_frame(comm::encode_frame(msg), &back, &error))
      << error;
  EXPECT_EQ(back.wire_bits, 8u);
  EXPECT_EQ(back.q8_block, 64u);
  ASSERT_EQ(back.payload.size(), msg.payload.size());
  for (std::size_t i = 0; i < msg.payload.size(); ++i) {
    // The frame is the LOSSLESS layer: full fp32 payload bits survive even
    // for a q8-tagged message (quantization happened at the sender).
    EXPECT_EQ(back.payload[i], msg.payload[i]) << i;
  }
}

TEST(QuantFrame, InvalidBlockRejectedAtEncodeAndDecode) {
  comm::Message msg = q8_message(1, 8, 32);
  msg.q8_block = 16;
  EXPECT_THROW(comm::encode_frame(msg), CheckError);

  // A frame whose header carries a bad q8 tag must fail decode gracefully
  // (error string, no throw): byte 1 is the precision slot.
  auto frame = comm::encode_frame(q8_message(1, 8, 32));
  frame[1] = 0x80 | 16;
  comm::Message out;
  std::string error;
  EXPECT_FALSE(comm::decode_frame(frame, &out, &error));
  EXPECT_NE(error.find("q8"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// WireCodec resolution
// ---------------------------------------------------------------------------

TEST(WireCodec, ResolutionTable) {
  // Two levels: an explicit dtype wins; kDefault takes VELA_WIRE_DTYPE and,
  // with the env unset, the runtime's own default. bits() and transforms()
  // follow from the resolved dtype alone.
  struct Expect {
    comm::WireDtype dtype;
    unsigned bits;
    bool transforms;
    unsigned block;
  };
  const Expect kResolved[] = {
      {comm::WireDtype::kFp32, 32, false, 0},
      {comm::WireDtype::kFp16Accounted, 16, false, 0},
      {comm::WireDtype::kFp16, 16, true, 0},
      {comm::WireDtype::kInt8, 8, true, qblock::kDefaultBlock},
  };
  const auto expect_of = [&](comm::WireDtype dtype) {
    for (const Expect& e : kResolved) {
      if (e.dtype == dtype) return e;
    }
    ADD_FAILURE() << "no expectation for " << comm::wire_dtype_name(dtype);
    return kResolved[0];
  };
  struct Env {
    const char* value;  // nullptr = unset
    comm::WireDtype dtype;
  };
  const Env kEnvs[] = {{nullptr, comm::WireDtype::kDefault},
                       {"int8", comm::WireDtype::kInt8},
                       {"fp16acct", comm::WireDtype::kFp16Accounted}};
  const comm::WireDtype kRequests[] = {
      comm::WireDtype::kDefault, comm::WireDtype::kFp32,
      comm::WireDtype::kFp16Accounted, comm::WireDtype::kFp16,
      comm::WireDtype::kInt8};
  const comm::WireDtype kRuntimeDefaults[] = {comm::WireDtype::kFp16Accounted,
                                              comm::WireDtype::kFp32};

  ScopedEnv no_block("VELA_WIRE_BLOCK", nullptr);
  for (const Env& env : kEnvs) {
    ScopedEnv scoped("VELA_WIRE_DTYPE", env.value);
    for (const auto runtime_default : kRuntimeDefaults) {
      for (const auto requested : kRequests) {
        const comm::WireDtype want_dtype =
            requested != comm::WireDtype::kDefault ? requested
            : env.dtype != comm::WireDtype::kDefault ? env.dtype
                                                     : runtime_default;
        const Expect want = expect_of(want_dtype);
        const auto codec =
            comm::WireCodec::resolve(requested, runtime_default, 0);
        SCOPED_TRACE(std::string("requested=") +
                     comm::wire_dtype_name(requested) + " env=" +
                     (env.value != nullptr ? env.value : "unset") +
                     " runtime_default=" +
                     comm::wire_dtype_name(runtime_default));
        EXPECT_EQ(codec.dtype, want.dtype);
        EXPECT_EQ(codec.bits(), want.bits);
        EXPECT_EQ(codec.transforms(), want.transforms);
        EXPECT_EQ(codec.block, want.block);
      }
    }
  }
  EXPECT_THROW(comm::WireCodec::resolve(comm::WireDtype::kFp32,
                                        comm::WireDtype::kDefault, 0),
               CheckError);
}

TEST(WireCodec, EnvSelectsTierForDefaultConfigs) {
  ScopedEnv env("VELA_WIRE_DTYPE", "int8");
  ScopedEnv no_block("VELA_WIRE_BLOCK", nullptr);
  const auto codec = comm::WireCodec::resolve(
      comm::WireDtype::kDefault, comm::WireDtype::kFp16Accounted, 0);
  EXPECT_EQ(codec.dtype, comm::WireDtype::kInt8);
  EXPECT_EQ(codec.bits(), 8u);
  EXPECT_EQ(codec.block, qblock::kDefaultBlock);
  EXPECT_TRUE(codec.transforms());
}

TEST(WireCodec, ExplicitConfigBeatsEnv) {
  ScopedEnv env("VELA_WIRE_DTYPE", "int8");
  const auto codec = comm::WireCodec::resolve(
      comm::WireDtype::kFp32, comm::WireDtype::kFp16Accounted, 0);
  EXPECT_EQ(codec.dtype, comm::WireDtype::kFp32);
  EXPECT_EQ(codec.bits(), 32u);
  EXPECT_FALSE(codec.transforms());
}

TEST(WireCodec, BlockResolutionChain) {
  const auto int8 = [](unsigned block) {
    return comm::WireCodec::resolve(comm::WireDtype::kInt8,
                                    comm::WireDtype::kFp32, block);
  };
  ScopedEnv no_block("VELA_WIRE_BLOCK", nullptr);
  EXPECT_EQ(int8(32).block, 32u);
  {
    ScopedEnv env("VELA_WIRE_BLOCK", "32");
    EXPECT_EQ(int8(0).block, 32u);
    // An explicit request still wins over the env.
    EXPECT_EQ(int8(64).block, 64u);
  }
  EXPECT_EQ(int8(0).block, qblock::kDefaultBlock);
  EXPECT_THROW(int8(48), CheckError);
}

TEST(WireCodec, ParseNamesStrictly) {
  EXPECT_EQ(comm::parse_wire_dtype("fp32"), comm::WireDtype::kFp32);
  EXPECT_EQ(comm::parse_wire_dtype("fp16acct"),
            comm::WireDtype::kFp16Accounted);
  EXPECT_EQ(comm::parse_wire_dtype("fp16"), comm::WireDtype::kFp16);
  EXPECT_EQ(comm::parse_wire_dtype("int8"), comm::WireDtype::kInt8);
  EXPECT_EQ(comm::parse_wire_dtype("default"), comm::WireDtype::kDefault);
  EXPECT_EQ(comm::parse_wire_dtype(""), comm::WireDtype::kDefault);
  EXPECT_THROW(comm::parse_wire_dtype("int4"), CheckError);
  EXPECT_THROW(comm::parse_wire_dtype("INT8"), CheckError);
}

TEST(WireCodec, StampSetsAccountingFields) {
  comm::Message msg;
  const auto q8 = comm::WireCodec::resolve(comm::WireDtype::kInt8,
                                           comm::WireDtype::kFp32, 32);
  q8.stamp(msg);
  EXPECT_EQ(msg.wire_bits, 8u);
  EXPECT_EQ(msg.q8_block, 32u);
  const auto f16 = comm::WireCodec::resolve(comm::WireDtype::kFp16,
                                            comm::WireDtype::kFp32, 0);
  f16.stamp(msg);
  EXPECT_EQ(msg.wire_bits, 16u);
  EXPECT_EQ(msg.q8_block, 0u);
}

TEST(WireCodec, ApplyMatchesQblockRoundtrip) {
  Rng rng(41);
  const Tensor t = ops::randn({3, 50}, rng);
  const auto codec = comm::WireCodec::resolve(comm::WireDtype::kInt8,
                                              comm::WireDtype::kFp32, 32);
  const Tensor wire = codec.apply(t);
  const Tensor expect = qblock::roundtrip(t, 32);
  ASSERT_EQ(wire.size(), expect.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(wire[i], expect[i]) << i;
  }
}

TEST(WireCodec, RowBytesIsTheWireSizeOfOneTokenRow) {
  // The one formula for b: row_bytes(H) is exactly what the meter charges
  // for a stamped 1×H dispatch payload, header excluded.
  const std::vector<comm::WireCodec> codecs = {
      {comm::WireDtype::kFp32, 0},
      {comm::WireDtype::kFp16Accounted, 0},
      {comm::WireDtype::kFp16, 0},
      {comm::WireDtype::kInt8, 32},
      {comm::WireDtype::kInt8, 64}};
  Rng rng(43);
  for (const comm::WireCodec& codec : codecs) {
    for (const std::size_t h : {1u, 16u, 48u, 100u, 4096u}) {
      comm::Message msg;
      msg.type = comm::MessageType::kExpertForward;
      msg.payload = codec.apply(ops::randn({1, h}, rng));
      codec.stamp(msg);
      EXPECT_EQ(codec.row_bytes(h),
                msg.wire_size() - comm::Message::kHeaderBytes)
          << comm::wire_dtype_name(codec.dtype) << " block " << codec.block
          << " H " << h;
    }
  }
  // Spelled out at H = 100: 4·H, 2·H, 2·H, H + 4·⌈H/32⌉, H + 4·⌈H/64⌉.
  const std::vector<std::size_t> want = {400, 200, 200, 116, 108};
  for (std::size_t i = 0; i < codecs.size(); ++i) {
    EXPECT_EQ(codecs[i].row_bytes(100), want[i]) << i;
  }
}

}  // namespace
}  // namespace vela
