#include "serialize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "tensor/ops.h"
#include "util/check.h"
#include "util/rng.h"

namespace vela {
namespace {

TEST(Half, ExactValuesRoundTrip) {
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -4.0f, 0.25f, 1024.0f,
                  -0.125f, 65504.0f /* max finite half */}) {
    EXPECT_EQ(ops::half_to_float(ops::float_to_half(v)), v) << v;
  }
}

TEST(Half, SignedZeroPreserved) {
  EXPECT_EQ(ops::float_to_half(0.0f), 0x0000);
  EXPECT_EQ(ops::float_to_half(-0.0f), 0x8000);
}

TEST(Half, InfinityAndNan) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(ops::float_to_half(inf), 0x7C00);
  EXPECT_EQ(ops::float_to_half(-inf), 0xFC00);
  EXPECT_TRUE(std::isinf(ops::half_to_float(0x7C00)));
  const std::uint16_t nan_half =
      ops::float_to_half(std::numeric_limits<float>::quiet_NaN());
  EXPECT_TRUE(std::isnan(ops::half_to_float(nan_half)));
}

TEST(Half, OverflowSaturatesToInf) {
  EXPECT_EQ(ops::float_to_half(1e10f), 0x7C00);
  EXPECT_EQ(ops::float_to_half(-1e10f), 0xFC00);
}

TEST(Half, SubnormalsRepresented) {
  // Smallest positive half subnormal is 2^-24 ≈ 5.96e-8.
  const float tiny = std::ldexp(1.0f, -24);
  EXPECT_EQ(ops::half_to_float(ops::float_to_half(tiny)), tiny);
  // Below half precision entirely → flush to zero.
  EXPECT_EQ(ops::half_to_float(ops::float_to_half(1e-9f)), 0.0f);
}

TEST(Half, RoundTripErrorWithinOneUlp) {
  Rng rng(1);
  for (int i = 0; i < 20000; ++i) {
    const float v = static_cast<float>(rng.normal(0.0, 10.0));
    const float back = ops::half_to_float(ops::float_to_half(v));
    EXPECT_NEAR(back, v, std::abs(v) / 1024.0f + 1e-7f);
  }
}

TEST(Half, RoundToNearestEven) {
  // 2048 + 1 = 2049 is exactly halfway between representable 2048 and 2050;
  // nearest-even picks 2048.
  EXPECT_EQ(ops::half_to_float(ops::float_to_half(2049.0f)), 2048.0f);
  // 2051 is halfway between 2050 and 2052 → even mantissa gives 2052.
  EXPECT_EQ(ops::half_to_float(ops::float_to_half(2051.0f)), 2052.0f);
}

comm::Message sample_message(unsigned wire_bits) {
  comm::Message msg;
  msg.type = comm::MessageType::kExpertForward;
  msg.request_id = 0xABCDEF0123456789ull;
  msg.layer = 7;
  msg.expert = 3;
  msg.step = 42;
  Rng rng(5);
  msg.payload = ops::randn({6, 4}, rng);
  msg.wire_bits = wire_bits;
  return msg;
}

TEST(Serialize, EncodedSizeEqualsWireSize) {
  for (unsigned bits : {16u, 32u}) {
    const comm::Message msg = sample_message(bits);
    EXPECT_EQ(comm::encode(msg).size(), msg.wire_size()) << bits;
  }
  comm::Message control;
  control.type = comm::MessageType::kShutdown;
  EXPECT_EQ(comm::encode(control).size(), comm::Message::kHeaderBytes);
}

TEST(Serialize, RoundTrip32BitIsExact) {
  const comm::Message msg = sample_message(32);
  const comm::Message back = comm::decode(comm::encode(msg));
  EXPECT_EQ(back.type, msg.type);
  EXPECT_EQ(back.request_id, msg.request_id);
  EXPECT_EQ(back.layer, msg.layer);
  EXPECT_EQ(back.expert, msg.expert);
  EXPECT_EQ(back.step, msg.step);
  ASSERT_EQ(back.payload.size(), msg.payload.size());
  for (std::size_t i = 0; i < msg.payload.size(); ++i) {
    EXPECT_EQ(back.payload[i], msg.payload[i]);
  }
}

TEST(Serialize, RoundTrip16BitMatchesHalfRounding) {
  const comm::Message msg = sample_message(16);
  const comm::Message back = comm::decode(comm::encode(msg));
  ASSERT_EQ(back.payload.size(), msg.payload.size());
  for (std::size_t i = 0; i < msg.payload.size(); ++i) {
    EXPECT_EQ(back.payload[i],
              ops::half_to_float(ops::float_to_half(msg.payload[i])));
  }
}

TEST(Serialize, PhantomMessagesRejected) {
  comm::Message msg;
  msg.phantom_bytes = 100;
  EXPECT_THROW(comm::encode(msg), CheckError);
}

TEST(Serialize, TruncatedBufferRejected) {
  auto bytes = comm::encode(sample_message(32));
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW(comm::decode(bytes), CheckError);
  std::vector<std::uint8_t> tiny(8, 0);
  EXPECT_THROW(comm::decode(tiny), CheckError);
}

TEST(Serialize, TrailingBytesRejected) {
  auto bytes = comm::encode(sample_message(32));
  bytes.push_back(0);
  EXPECT_THROW(comm::decode(bytes), CheckError);
}

// --- edge-value round-trip properties ----------------------------------------

// The IEEE corner cases a lossy codec is most likely to mangle.
std::vector<float> edge_values() {
  const float inf = std::numeric_limits<float>::infinity();
  float nan_payload;
  const std::uint32_t nan_bits = 0x7FC01234u;  // qNaN with payload bits set
  std::memcpy(&nan_payload, &nan_bits, sizeof(float));
  return {0.0f,
          -0.0f,
          inf,
          -inf,
          nan_payload,
          65504.0f,                                // max finite binary16
          -65504.0f,
          std::ldexp(1.0f, -24),                   // smallest binary16 subnormal
          std::ldexp(1.0f, -14),                   // smallest binary16 normal
          std::numeric_limits<float>::max(),       // max finite binary32
          std::numeric_limits<float>::lowest(),
          std::numeric_limits<float>::denorm_min(),  // binary32 subnormal
          std::numeric_limits<float>::min()};
}

std::uint32_t bits_of(float v) {
  std::uint32_t b;
  std::memcpy(&b, &v, sizeof(std::uint32_t));
  return b;
}

TEST(Serialize, Binary32RoundTripPreservesEveryBitPattern) {
  // 32-bit transport is declared lossless; that must include signed zeros,
  // infinities, subnormals and NaN payload bits — compare bit patterns, not
  // values (NaN != NaN).
  const auto edges = edge_values();
  comm::Message msg;
  msg.type = comm::MessageType::kExpertForward;
  msg.request_id = 9;
  msg.wire_bits = 32;
  msg.payload = Tensor::ones({edges.size()});
  for (std::size_t i = 0; i < edges.size(); ++i) msg.payload[i] = edges[i];
  const comm::Message back = comm::decode(comm::encode(msg));
  ASSERT_EQ(back.payload.size(), edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(bits_of(back.payload[i]), bits_of(edges[i]))
        << "edge value index " << i;
  }
}

TEST(Serialize, Binary16RoundTripHandlesEdgeValues) {
  // Through the 16-bit codec every edge value must land on the value the
  // binary16 format defines for it — and a second trip must be a fixed
  // point (quantization is idempotent).
  const auto edges = edge_values();
  comm::Message msg;
  msg.type = comm::MessageType::kExpertForward;
  msg.request_id = 10;
  msg.wire_bits = 16;
  msg.payload = Tensor::ones({edges.size()});
  for (std::size_t i = 0; i < edges.size(); ++i) msg.payload[i] = edges[i];
  const comm::Message once = comm::decode(comm::encode(msg));
  ASSERT_EQ(once.payload.size(), edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const float expected = ops::half_to_float(ops::float_to_half(edges[i]));
    if (std::isnan(expected)) {
      EXPECT_TRUE(std::isnan(once.payload[i])) << "index " << i;
    } else {
      EXPECT_EQ(bits_of(once.payload[i]), bits_of(expected)) << "index " << i;
    }
  }
  // ±0 signs, ±inf and max-finite survive exactly.
  EXPECT_EQ(bits_of(once.payload[0]), bits_of(0.0f));
  EXPECT_EQ(bits_of(once.payload[1]), bits_of(-0.0f));
  EXPECT_TRUE(std::isinf(once.payload[2]) && once.payload[2] > 0);
  EXPECT_TRUE(std::isinf(once.payload[3]) && once.payload[3] < 0);
  EXPECT_TRUE(std::isnan(once.payload[4]));
  EXPECT_EQ(once.payload[5], 65504.0f);
  EXPECT_EQ(once.payload[6], -65504.0f);
  // Idempotence: re-encoding the decoded tensor changes nothing.
  comm::Message again = once;
  again.wire_bits = 16;
  const comm::Message twice = comm::decode(comm::encode(again));
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (std::isnan(once.payload[i])) {
      EXPECT_TRUE(std::isnan(twice.payload[i])) << "index " << i;
    } else {
      EXPECT_EQ(bits_of(twice.payload[i]), bits_of(once.payload[i]))
          << "index " << i;
    }
  }
}

TEST(Serialize, ZeroLengthTensorFramesAndRoundTrips) {
  // A message whose payload is a zero-element tensor is pure framing: it
  // must encode to exactly one header, decode back to an empty payload, and
  // carry all routing fields intact.
  comm::Message msg;
  msg.type = comm::MessageType::kExpertForwardResult;
  msg.request_id = 77;
  msg.layer = 1;
  msg.expert = 2;
  msg.step = 5;
  msg.wire_bits = 32;
  msg.payload = Tensor();  // zero-element: dims must be positive, so "empty"
                           // is the default tensor — pure framing
  EXPECT_EQ(msg.wire_size(), comm::Message::kHeaderBytes);
  const auto bytes = comm::encode(msg);
  EXPECT_EQ(bytes.size(), comm::Message::kHeaderBytes);
  const comm::Message back = comm::decode(bytes);
  EXPECT_EQ(back.type, msg.type);
  EXPECT_EQ(back.request_id, msg.request_id);
  EXPECT_EQ(back.layer, msg.layer);
  EXPECT_EQ(back.expert, msg.expert);
  EXPECT_EQ(back.step, msg.step);
  EXPECT_EQ(back.payload.size(), 0u);
}

// --- fragment framing (the overlap pipeline's wire contract) -----------------

TEST(Serialize, ChunkFieldsRoundTripThroughCodec) {
  comm::Message msg = sample_message(32);
  msg.chunk_index = 3;
  msg.chunk_count = 5;
  const comm::Message back = comm::decode(comm::encode(msg));
  EXPECT_EQ(back.chunk_index, 3u);
  EXPECT_EQ(back.chunk_count, 5u);
  // Defaults (unfragmented) survive too.
  const comm::Message plain = comm::decode(comm::encode(sample_message(32)));
  EXPECT_EQ(plain.chunk_index, 0u);
  EXPECT_EQ(plain.chunk_count, 1u);
}

TEST(Serialize, MalformedChunkFieldsRejected) {
  // Header layout: byte 2 = chunk_index, byte 3 = chunk_count.
  auto zero_count = comm::encode(sample_message(32));
  zero_count[3] = 0;  // chunk_count must be >= 1
  EXPECT_THROW(comm::decode(zero_count), CheckError);
  auto index_beyond = comm::encode(sample_message(32));
  index_beyond[2] = 4;
  index_beyond[3] = 4;  // chunk_index must be < chunk_count
  EXPECT_THROW(comm::decode(index_beyond), CheckError);
}

TEST(Serialize, FragmentTrainCostsExactlyOneHeader) {
  // Splitting a transfer into K row fragments must not change its wire
  // cost: fragment 0 carries the header, continuations are payload-only, so
  // the train's total equals the unfragmented message's total — at both
  // transport precisions and for any K.
  Rng rng(11);
  const Tensor full = ops::randn({12, 4}, rng);
  for (unsigned bits : {16u, 32u}) {
    comm::Message whole;
    whole.type = comm::MessageType::kExpertForward;
    whole.request_id = 100;
    whole.wire_bits = bits;
    whole.payload = full;
    for (std::size_t k : {2u, 3u, 5u, 12u}) {
      std::uint64_t train_bytes = 0;
      std::size_t at = 0;
      for (std::size_t c = 0; c < k; ++c) {
        const std::size_t rows = 12 / k + (c < 12 % k ? 1 : 0);
        comm::Message frag;
        frag.type = comm::MessageType::kExpertForward;
        frag.request_id = 100 + c;
        frag.wire_bits = bits;
        frag.chunk_index = static_cast<std::uint8_t>(c);
        frag.chunk_count = static_cast<std::uint8_t>(k);
        frag.payload = ops::slice_rows(full, at, rows);
        at += rows;
        train_bytes += frag.wire_size();
      }
      ASSERT_EQ(at, 12u);
      EXPECT_EQ(train_bytes, whole.wire_size()) << "bits " << bits << " K " << k;
    }
  }
}

TEST(Serialize, HalfPrecisionTensorOpAgreesWithCodec) {
  // ops::to_half_precision (the fp16 wire tier's transform) and the
  // binary16 codec must implement the same value set, bit for bit —
  // including subnormals, overflow to ±inf and the sign of zero.
  Rng rng(7);
  Tensor t = ops::randn({512}, rng, 0.0f, 3.0f);
  Tensor rounded = ops::to_half_precision(t);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(bits_of(rounded[i]),
              bits_of(ops::half_to_float(ops::float_to_half(t[i]))))
        << "element " << i << " value " << t[i];
  }

  const float inf = std::numeric_limits<float>::infinity();
  const float sub = std::ldexp(1.0f, -24);  // smallest binary16 subnormal
  const std::vector<std::pair<float, float>> edges = {
      {1e-6f, 17.0f * sub},    // subnormal: 11 significant bits do not fit
      {3.3e-7f, 6.0f * sub},
      {7e4f, inf},             // above 65504 + half an ulp: overflow
      {1e5f, inf},
      {-1e5f, -inf},
      {65504.0f, 65504.0f},    // largest finite binary16
      {-65504.0f, -65504.0f},
      {std::ldexp(1.0f, -14), std::ldexp(1.0f, -14)},  // smallest normal
      {sub, sub},
      {-0.0f, -0.0f},
  };
  Tensor in({edges.size()});
  for (std::size_t i = 0; i < edges.size(); ++i) in[i] = edges[i].first;
  const Tensor out = ops::to_half_precision(in);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(bits_of(out[i]), bits_of(edges[i].second))
        << edges[i].first << " -> " << out[i];
    EXPECT_EQ(bits_of(out[i]),
              bits_of(ops::half_to_float(ops::float_to_half(in[i]))))
        << edges[i].first;
  }
}

}  // namespace
}  // namespace vela
