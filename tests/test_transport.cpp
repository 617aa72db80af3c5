// Transport-fabric suite (`ctest -L transport`).
//
// Four layers of contract, bottom up:
//  * frame codec — every Message round-trips bit-exactly (every type,
//    zero-length and phantom payloads, fragments, checksums), malformed
//    headers are refused on both sides, and a generated truncation/bit-flip
//    sweep never crashes the decoder;
//  * session records — the socket stream's length and CRC: torn 1-byte
//    feeds reassemble, and a CRC mismatch or oversize length is stream
//    corruption;
//  * transport semantics — both backends honour the blocking-queue contract:
//    FIFO order, close-then-drain, timed receive, cross-thread delivery;
//  * backend equivalence — the same two-step fine-tune (healthy and faulted,
//    VELA and EP) is bit-identical under VELA_TRANSPORT=inproc and =socket:
//    losses, final weights, TrafficMeter byte counts, audit balance.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "comm/endpoint.h"
#include "comm/fault_injector.h"
#include "comm/frame.h"
#include "comm/message.h"
#include "comm/session.h"
#include "comm/traffic_meter.h"
#include "comm/transport.h"
#include "core/vela_system.h"
#include "data/batch.h"
#include "ep/runtime.h"
#include "tensor/ops.h"
#include "util/audit.h"
#include "util/check.h"
#include "util/rng.h"
#include "temp_path.h"

namespace vela {
namespace {

constexpr comm::TransportKind kBothKinds[] = {comm::TransportKind::kInProc,
                                              comm::TransportKind::kSocket};

// --- frame codec -------------------------------------------------------------

void expect_bit_identical(const comm::Message& a, const comm::Message& b,
                          const std::string& what) {
  EXPECT_EQ(a.type, b.type) << what;
  EXPECT_EQ(a.request_id, b.request_id) << what;
  EXPECT_EQ(a.source, b.source) << what;
  EXPECT_EQ(a.layer, b.layer) << what;
  EXPECT_EQ(a.expert, b.expert) << what;
  EXPECT_EQ(a.step, b.step) << what;
  EXPECT_EQ(a.phantom_bytes, b.phantom_bytes) << what;
  EXPECT_EQ(a.wire_bits, b.wire_bits) << what;
  EXPECT_EQ(a.q8_block, b.q8_block) << what;
  EXPECT_EQ(a.chunk_index, b.chunk_index) << what;
  EXPECT_EQ(a.chunk_count, b.chunk_count) << what;
  EXPECT_EQ(a.checksum, b.checksum) << what;
  ASSERT_EQ(a.payload.shape(), b.payload.shape()) << what;
  if (a.payload.size() > 0) {
    EXPECT_EQ(std::memcmp(a.payload.data(), b.payload.data(),
                          a.payload.size() * sizeof(float)),
              0)
        << what << ": payload bits differ";
  }
  EXPECT_EQ(a.wire_size(), b.wire_size()) << what;
}

comm::Message tiny_message(std::uint8_t tag) {
  comm::Message msg;
  msg.type = comm::MessageType::kProbe;
  msg.request_id = tag;
  return msg;
}

comm::Message round_trip(const comm::Message& msg) {
  const std::vector<std::uint8_t> frame = comm::encode_frame(msg);
  comm::Message out;
  std::string error;
  EXPECT_TRUE(comm::decode_frame(frame, &out, &error)) << error;
  return out;
}

// Property test: a varied Message of every type survives framing bit-exactly
// — real payloads (including awkward shapes and denormal-ish values),
// phantom payloads, fragment fields, wire_bits and stamped checksums.
TEST(FrameCodec, RoundTripsEveryMessageType) {
  Rng rng(91);
  const auto last = static_cast<unsigned>(comm::MessageType::kPrefetchExperts);
  for (unsigned t = 0; t <= last; ++t) {
    comm::Message msg;
    msg.type = static_cast<comm::MessageType>(t);
    msg.request_id = 0x0123456789ABCDEFull + t;
    msg.source = 7 + t;
    msg.layer = 11 + t;
    msg.expert = 13 + t;
    msg.step = 1000 + t;
    msg.wire_bits = (t % 2 == 0) ? 16 : 32;
    msg.chunk_index = static_cast<std::uint8_t>(t % 3);
    msg.chunk_count = static_cast<std::uint8_t>(3 + t % 2);
    switch (t % 3) {
      case 0:  // real tensor payload, varying rank
        msg.payload = t % 2 == 0 ? ops::randn({3, 5}, rng)
                                 : ops::randn({2, 3, 4}, rng);
        break;
      case 1:  // phantom payload: only the byte count travels
        msg.phantom_bytes = 1'000'000'000ull + t;
        break;
      default:  // pure control message
        break;
    }
    if (t % 2 == 1) msg.stamp_checksum();
    const comm::Message decoded = round_trip(msg);
    expect_bit_identical(msg, decoded, comm::message_type_name(msg.type));
    EXPECT_TRUE(decoded.checksum_ok());
  }
}

TEST(FrameCodec, ZeroLengthPayloadRoundTrips) {
  comm::Message msg;
  msg.type = comm::MessageType::kProbe;
  msg.request_id = 42;
  const comm::Message decoded = round_trip(msg);
  expect_bit_identical(msg, decoded, "zero-length");
  // A control frame is just the fixed body fields.
  EXPECT_LT(comm::encode_frame(msg).size(), 64u);
}

TEST(FrameCodec, PhantomGigabytesTravelAsBytes) {
  comm::Message msg;
  msg.type = comm::MessageType::kExpertForward;
  msg.phantom_bytes = 64ull << 30;  // Mixtral-scale accounting, no allocation
  const comm::Message decoded = round_trip(msg);
  EXPECT_EQ(decoded.phantom_bytes, msg.phantom_bytes);
  EXPECT_LT(comm::encode_frame(msg).size(), 64u);
}

TEST(FrameCodec, LargePayloadRoundTripsExactly) {
  Rng rng(17);
  comm::Message msg;
  msg.type = comm::MessageType::kAllReduceChunk;
  msg.payload = ops::randn({512, 512}, rng);  // 1 MiB of payload
  const comm::Message decoded = round_trip(msg);
  expect_bit_identical(msg, decoded, "large payload");
}

TEST(FrameCodec, CorruptedFramesAreRejected) {
  comm::Message msg;
  msg.type = comm::MessageType::kExpertForward;
  msg.payload = Tensor::ones({4, 4});
  const std::vector<std::uint8_t> good = comm::encode_frame(msg);
  comm::Message out;
  std::string error;

  // Truncation and trailing garbage disagree with the shape descriptor.
  std::vector<std::uint8_t> truncated(good.begin(), good.end() - 1);
  EXPECT_FALSE(comm::decode_frame(truncated, &out, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  std::vector<std::uint8_t> padded = good;
  padded.push_back(0);
  EXPECT_FALSE(comm::decode_frame(padded, &out, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;

  // Intact frames still decode (the rejects above copied, not mutated).
  EXPECT_TRUE(comm::decode_frame(good, &out, &error)) << error;
}

// The end-to-end (Message-level) checksum is body payload to the frame
// codec: a message corrupted *before* framing — what the fault injector
// does — frames cleanly, decodes cleanly, and is caught only by the
// receiving runtime's checksum_ok(). Identical on every backend.
TEST(FrameCodec, MessageChecksumTravelsInsideTheFrame) {
  comm::Message msg;
  msg.type = comm::MessageType::kExpertForwardResult;
  msg.payload = Tensor::ones({2, 2});
  msg.stamp_checksum();
  msg.payload[0] = -1.0f;  // in-flight corruption, post-stamp

  const comm::Message decoded = round_trip(msg);
  EXPECT_EQ(decoded.checksum, msg.checksum);
  EXPECT_FALSE(decoded.checksum_ok());
}

// Body offsets of the header fields decode_frame validates (frame.h layout).
constexpr std::size_t kTypeAt = 0;
constexpr std::size_t kPrecisionAt = 1;
constexpr std::size_t kChunkIndexAt = 2;
constexpr std::size_t kChunkCountAt = 3;
constexpr std::size_t kRankAt = 40;

// Every header byte the frame cannot carry is refused on both sides: by
// decode_frame as a clean rejection, and by encode_frame as a CheckError
// for the Message that would have produced it.
TEST(FrameCodec, MalformedHeadersAreRejected) {
  comm::Message base;
  base.type = comm::MessageType::kExpertForward;
  base.payload = Tensor::ones({2, 3});
  const std::vector<std::uint8_t> good = comm::encode_frame(base);
  ASSERT_EQ(good.size(), 44u + 2 * 8 + 6 * sizeof(float));

  struct Case {
    const char* what;
    std::size_t at;
    std::uint8_t value;
    const char* error;  // substring of decode_frame's reason
  };
  const Case kCases[] = {
      {"wire_bits 24", kPrecisionAt, 24, "wire_bits"},
      {"wire_bits 0", kPrecisionAt, 0, "wire_bits"},
      {"wire_bits 8 without a q8 tag", kPrecisionAt, 8, "wire_bits"},
      {"wire_bits 64", kPrecisionAt, 64, "wire_bits"},
      {"q8 block 16", kPrecisionAt, 0x80 | 16, "q8"},
      {"q8 block 0", kPrecisionAt, 0x80, "q8"},
      {"type past the enum",
       kTypeAt,
       static_cast<std::uint8_t>(
           static_cast<unsigned>(comm::kLastMessageType) + 1),
       "type"},
      {"type 0xFF", kTypeAt, 0xFF, "type"},
      {"chunk_index == chunk_count", kChunkIndexAt, 1, "fragment"},
      {"chunk_count 0", kChunkCountAt, 0, "fragment"},
      {"rank 3 over a rank-2 body", kRankAt, 3, "dimension"},
      {"rank 0xFF", kRankAt, 0xFF, "truncated"},
  };
  for (const Case& c : kCases) {
    std::vector<std::uint8_t> bad = good;
    bad[c.at] = c.value;
    comm::Message out;
    std::string error;
    EXPECT_FALSE(comm::decode_frame(bad, &out, &error)) << c.what;
    EXPECT_NE(error.find(c.error), std::string::npos)
        << c.what << ": " << error;
  }

  // Valid precision slots decode: 16, 32 and 0x80|{32, 64}.
  for (const std::uint8_t slot : {std::uint8_t{16}, std::uint8_t{32},
                                  std::uint8_t{0x80 | 32},
                                  std::uint8_t{0x80 | 64}}) {
    std::vector<std::uint8_t> ok = good;
    ok[kPrecisionAt] = slot;
    comm::Message out;
    std::string error;
    EXPECT_TRUE(comm::decode_frame(ok, &out, &error))
        << unsigned{slot} << ": " << error;
    EXPECT_EQ(comm::encode_frame(out), ok) << unsigned{slot};
  }

  // The encoder refuses the Messages behind those bytes.
  const auto refuses = [&base](auto mutate) {
    comm::Message msg = base;
    mutate(msg);
    EXPECT_THROW((void)comm::encode_frame(msg), CheckError);
  };
  refuses([](comm::Message& m) { m.wire_bits = 24; });
  refuses([](comm::Message& m) { m.wire_bits = 0; });
  refuses([](comm::Message& m) { m.wire_bits = 8; });  // no q8 block
  refuses([](comm::Message& m) {
    m.wire_bits = 8;
    m.q8_block = 16;
  });
  refuses([](comm::Message& m) { m.q8_block = 32; });  // q8 block on fp32
  refuses([](comm::Message& m) {
    m.type = static_cast<comm::MessageType>(
        static_cast<unsigned>(comm::kLastMessageType) + 1);
  });
  refuses([](comm::Message& m) {
    m.chunk_index = 2;
    m.chunk_count = 2;
  });
  refuses([](comm::Message& m) { m.chunk_count = 0; });
}

// One frame per MessageType covering every payload shape the codec knows:
// fp32 rank 2, q8 rank 2, phantom, fp16 rank 3 and a rank-0 control body.
std::vector<std::vector<std::uint8_t>> sweep_frames() {
  Rng rng(404);
  std::vector<std::vector<std::uint8_t>> frames;
  const auto last = static_cast<unsigned>(comm::kLastMessageType);
  for (unsigned t = 0; t <= last; ++t) {
    comm::Message msg;
    msg.type = static_cast<comm::MessageType>(t);
    msg.request_id = 0x0F1E2D3C4B5A6978ull * (t + 1);
    msg.source = t;
    msg.layer = 2 * t;
    msg.expert = 3 * t;
    msg.step = 100 + t;
    msg.chunk_index = static_cast<std::uint8_t>(t % 2);
    msg.chunk_count = 2;
    switch (t % 5) {
      case 0:
        msg.payload = ops::randn({2, 3}, rng);
        break;
      case 1:
        msg.payload = ops::randn({2, 5}, rng);
        msg.wire_bits = 8;
        msg.q8_block = static_cast<std::uint8_t>(t % 2 == 0 ? 32 : 64);
        break;
      case 2:
        msg.phantom_bytes = (3ull << 32) + t;
        break;
      case 3:
        msg.payload = ops::randn({2, 1, 3}, rng);
        msg.wire_bits = 16;
        break;
      default:  // rank-0 control message
        break;
    }
    if (t % 3 == 0) msg.stamp_checksum();
    frames.push_back(comm::encode_frame(msg));
  }
  return frames;
}

// Decodes a mutated frame; a success must re-encode to exactly those bytes.
void expect_decode_is_exact(const std::vector<std::uint8_t>& bytes,
                            const std::string& what) {
  comm::Message out;
  std::string error;
  if (comm::decode_frame(bytes, &out, &error)) {
    EXPECT_EQ(comm::encode_frame(out), bytes) << what;
  } else {
    EXPECT_FALSE(error.empty()) << what;
  }
}

// Generated decoder sweep: every truncation length and every single-bit
// flip of the header (fixed fields plus shape descriptor), and a fixed-seed
// sample of payload bit flips, over one frame of every MessageType. The
// decoder must never crash (run it under ASan and UBSan), and whatever it
// accepts must re-encode byte for byte.
TEST(FrameCodec, GeneratedTruncationAndBitFlipSweep) {
  Rng rng(2024);
  for (const std::vector<std::uint8_t>& frame : sweep_frames()) {
    comm::Message original;
    ASSERT_TRUE(comm::decode_frame(frame, &original));
    const std::string type = comm::message_type_name(original.type);
    for (std::size_t len = 0; len < frame.size(); ++len) {
      const std::vector<std::uint8_t> prefix(
          frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(len));
      comm::Message out;
      EXPECT_FALSE(comm::decode_frame(prefix, &out))
          << type << " truncated to " << len;
    }
    const std::size_t header =
        frame.size() - original.payload.size() * sizeof(float);
    const auto flip = [&](std::size_t bit) {
      std::vector<std::uint8_t> bad = frame;
      bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      expect_decode_is_exact(bad, type + " bit " + std::to_string(bit));
    };
    for (std::size_t bit = 0; bit < header * 8; ++bit) flip(bit);
    const std::size_t payload_bits = (frame.size() - header) * 8;
    for (int i = 0; i < 16 && payload_bits > 0; ++i) {
      flip(header * 8 + rng.uniform_index(payload_bits));
    }
  }
}

// --- session records (the socket stream's length and CRC) --------------------

std::vector<std::uint8_t> record_of(const comm::Message& msg,
                                    std::uint64_t seq) {
  return comm::session::encode_data_record(seq, comm::encode_frame(msg));
}

comm::Message q8_message(std::size_t rows, std::size_t cols, unsigned block,
                         std::uint64_t seed) {
  comm::Message msg;
  msg.type = comm::MessageType::kExpertForward;
  msg.request_id = seed;
  Rng rng(seed);
  msg.payload = ops::randn({rows, cols}, rng);
  msg.wire_bits = 8;
  msg.q8_block = static_cast<std::uint8_t>(block);
  return msg;
}

// Feeds `stream` one byte at a time — no read boundary ever aligns with a
// record — and decodes every data record the parser yields.
std::vector<comm::Message> parse_byte_by_byte(
    const std::vector<std::uint8_t>& stream) {
  comm::session::RecordParser parser;
  std::vector<comm::Message> decoded;
  comm::session::Record rec;
  for (const std::uint8_t byte : stream) {
    parser.feed(&byte, 1);
    while (parser.next(&rec)) {
      EXPECT_EQ(rec.type, comm::session::kRecData);
      EXPECT_EQ(rec.seq, decoded.size());
      comm::Message out;
      std::string error;
      EXPECT_TRUE(comm::decode_frame(rec.frame, &out, &error)) << error;
      decoded.push_back(std::move(out));
    }
  }
  EXPECT_EQ(parser.buffered_bytes(), 0u);
  return decoded;
}

TEST(RecordParser, OneByteFeedsReassembleFp32Records) {
  Rng rng(23);
  std::vector<comm::Message> originals;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 3; ++i) {
    comm::Message msg;
    msg.type = comm::MessageType::kExpertForward;
    msg.request_id = static_cast<std::uint64_t>(i + 1);
    msg.payload = ops::randn({2, static_cast<std::size_t>(i + 1)}, rng);
    const auto rec = record_of(msg, static_cast<std::uint64_t>(i));
    stream.insert(stream.end(), rec.begin(), rec.end());
    originals.push_back(std::move(msg));
  }
  const std::vector<comm::Message> decoded = parse_byte_by_byte(stream);
  ASSERT_EQ(decoded.size(), originals.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    expect_bit_identical(originals[i], decoded[i], "torn read");
  }
}

TEST(RecordParser, OneByteFeedsReassembleSmallAndLargeQ8Records) {
  // The smallest q8 record (1x1 payload: one short block) followed by a
  // large one (64x128).
  const comm::Message small = q8_message(1, 1, 32, /*seed=*/21);
  const comm::Message large = q8_message(64, 128, 64, /*seed=*/22);
  std::vector<std::uint8_t> stream = record_of(small, 0);
  const auto rec = record_of(large, 1);
  stream.insert(stream.end(), rec.begin(), rec.end());
  const std::vector<comm::Message> decoded = parse_byte_by_byte(stream);
  ASSERT_EQ(decoded.size(), 2u);
  expect_bit_identical(small, decoded[0], "small q8");
  expect_bit_identical(large, decoded[1], "large q8");
}

// A corrupt byte anywhere the CRC covers (seq, the CRC itself, the frame) is
// stream corruption: next() fails a check, next_lenient() reports it.
TEST(RecordParser, CrcMismatchIsStreamCorruption) {
  for (const std::size_t rows : {1u, 64u}) {
    const auto good = record_of(q8_message(rows, 65, 64, rows), 0);
    for (const std::size_t at :
         {std::size_t{1}, std::size_t{13}, comm::kSessionDataOverheadBytes,
          good.size() / 2, good.size() - 1}) {
      std::vector<std::uint8_t> bad = good;
      bad[at] ^= 0x40;
      comm::session::Record rec;
      comm::session::RecordParser strict;
      strict.feed(bad.data(), bad.size());
      try {
        (void)strict.next(&rec);
        ADD_FAILURE() << "rows " << rows << " byte " << at << " accepted";
      } catch (const CheckError& e) {
        EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos)
            << e.what();
      }
      comm::session::RecordParser lenient;
      lenient.feed(bad.data(), bad.size());
      bool corrupt = false;
      EXPECT_FALSE(lenient.next_lenient(&rec, &corrupt));
      EXPECT_TRUE(corrupt) << "rows " << rows << " byte " << at;
    }
    // The intact record still parses (the rejects above copied).
    comm::session::RecordParser parser;
    parser.feed(good.data(), good.size());
    comm::session::Record rec;
    EXPECT_TRUE(parser.next(&rec));
  }
}

TEST(RecordParser, OversizeLengthIsStreamCorruption) {
  // A data record header whose length exceeds the frame limit: a byte
  // stream cannot resynchronize after it, so the parser fails loudly before
  // waiting for (or buffering) a gigabyte.
  std::vector<std::uint8_t> rec = record_of(tiny_message(1), 0);
  const std::uint32_t huge = comm::kMaxFrameBodyBytes + 1;
  for (int i = 0; i < 4; ++i) {
    rec[9 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(huge >> (8 * i));
  }
  rec.resize(comm::kSessionDataOverheadBytes);
  comm::session::Record out;
  comm::session::RecordParser strict;
  strict.feed(rec.data(), rec.size());
  EXPECT_THROW((void)strict.next(&out), CheckError);
  comm::session::RecordParser lenient;
  lenient.feed(rec.data(), rec.size());
  bool corrupt = false;
  EXPECT_FALSE(lenient.next_lenient(&out, &corrupt));
  EXPECT_TRUE(corrupt);
}

// FNV-1a's xor-then-odd-multiply is a bijection per byte, so every
// single-byte change of a record's covered bytes must be reported — checked
// exhaustively (all 255 changes of every seq, CRC and frame byte) over the
// sweep's frames.
TEST(RecordParser, EverySingleByteChangeIsReportedCorrupt) {
  for (const std::vector<std::uint8_t>& frame : sweep_frames()) {
    const auto good = comm::session::encode_data_record(7, frame);
    for (std::size_t at = 1; at < good.size(); ++at) {
      if (at >= 9 && at < 13) continue;  // the length re-frames the stream
      for (unsigned delta = 1; delta < 256; ++delta) {
        std::vector<std::uint8_t> bad = good;
        bad[at] ^= static_cast<std::uint8_t>(delta);
        comm::session::RecordParser parser;
        parser.feed(bad.data(), bad.size());
        comm::session::Record rec;
        bool corrupt = false;
        EXPECT_FALSE(parser.next_lenient(&rec, &corrupt));
        ASSERT_TRUE(corrupt) << "byte " << at << " ^ " << delta;
      }
    }
  }
}

// --- transport semantics (both backends) -------------------------------------

std::vector<std::uint8_t> tiny_frame(std::uint8_t tag) {
  return comm::encode_frame(tiny_message(tag));
}

TEST(Transport, FifoOrderAndCloseThenDrain) {
  for (const auto kind : kBothKinds) {
    auto t = comm::make_transport(kind);
    ASSERT_TRUE(t->send(tiny_frame(1)));
    ASSERT_TRUE(t->send(tiny_frame(2)));
    ASSERT_TRUE(t->send(tiny_frame(3)));
    t->close();
    EXPECT_TRUE(t->closed());
    EXPECT_FALSE(t->send(tiny_frame(4)));  // closed: refused, not queued
    // The backlog drains in order after close...
    for (std::uint8_t expected = 1; expected <= 3; ++expected) {
      auto frame = t->receive();
      ASSERT_TRUE(frame.has_value()) << t->name();
      comm::Message msg;
      ASSERT_TRUE(comm::decode_frame(*frame, &msg));
      EXPECT_EQ(msg.request_id, expected) << t->name();
    }
    // ...then end-of-stream.
    EXPECT_FALSE(t->receive().has_value()) << t->name();
    EXPECT_FALSE(t->try_receive().has_value()) << t->name();
  }
}

TEST(Transport, TimedReceiveTimesOutAndDelivers) {
  for (const auto kind : kBothKinds) {
    auto t = comm::make_transport(kind);
    std::vector<std::uint8_t> out;
    EXPECT_EQ(t->receive_for(std::chrono::milliseconds(10), &out),
              PopStatus::kTimeout)
        << t->name();
    ASSERT_TRUE(t->send(tiny_frame(9)));
    EXPECT_EQ(t->receive_for(std::chrono::milliseconds(1000), &out),
              PopStatus::kOk)
        << t->name();
    t->close();
    EXPECT_EQ(t->receive_for(std::chrono::milliseconds(10), &out),
              PopStatus::kClosed)
        << t->name();
  }
}

TEST(Transport, CrossThreadBulkDelivery) {
  // Enough traffic to overflow kernel socket buffers: the writer must block
  // on backpressure and every frame must still arrive intact and in order.
  constexpr int kFrames = 400;
  Rng rng(5);
  const Tensor payload = ops::randn({64, 64}, rng);  // 16 KiB frames
  for (const auto kind : kBothKinds) {
    auto t = comm::make_transport(kind);
    std::thread writer([&] {
      for (int i = 0; i < kFrames; ++i) {
        comm::Message msg;
        msg.type = comm::MessageType::kAllReduceChunk;
        msg.request_id = static_cast<std::uint64_t>(i);
        msg.payload = payload;
        ASSERT_TRUE(t->send(comm::encode_frame(msg)));
      }
      t->close();
    });
    int received = 0;
    while (auto frame = t->receive()) {
      comm::Message msg;
      ASSERT_TRUE(comm::decode_frame(*frame, &msg));
      ASSERT_EQ(msg.request_id, static_cast<std::uint64_t>(received));
      ASSERT_EQ(std::memcmp(msg.payload.data(), payload.data(),
                            payload.size() * sizeof(float)),
                0);
      ++received;
    }
    writer.join();
    EXPECT_EQ(received, kFrames) << t->name();
  }
}

TEST(Transport, ManyWritersOneReader) {
  // The EP runtime's shared server inboxes are N-writer/1-reader; both
  // backends must serialize concurrent sends without tearing frames.
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 50;
  for (const auto kind : kBothKinds) {
    auto t = comm::make_transport(kind);
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&t, w] {
        for (int i = 0; i < kPerWriter; ++i) {
          comm::Message msg;
          msg.type = comm::MessageType::kExpertForward;
          msg.source = static_cast<std::uint32_t>(w);
          msg.request_id = static_cast<std::uint64_t>(i);
          msg.payload = Tensor::ones({8, 8});
          ASSERT_TRUE(t->send(comm::encode_frame(msg)));
        }
      });
    }
    for (auto& th : writers) th.join();
    t->close();
    std::vector<std::uint64_t> next_per_writer(kWriters, 0);
    int received = 0;
    while (auto frame = t->receive()) {
      comm::Message msg;
      ASSERT_TRUE(comm::decode_frame(*frame, &msg));
      // Per-writer FIFO: each writer's stream arrives in its send order.
      EXPECT_EQ(msg.request_id, next_per_writer[msg.source]++) << t->name();
      ++received;
    }
    EXPECT_EQ(received, kWriters * kPerWriter) << t->name();
  }
}

// --- endpoint semantics (both backends) --------------------------------------

cluster::ClusterTopology paper_topo() {
  return cluster::ClusterTopology(cluster::ClusterConfig::paper_testbed());
}

TEST(TransportEndpoint, MeterChargesAreBackendInvariant) {
  std::uint64_t expected_bytes = 0;
  for (const auto kind : kBothKinds) {
    auto topo = paper_topo();
    comm::TrafficMeter meter(&topo);
    auto ep = comm::make_endpoint(kind, 0, 1, &meter);
    comm::Message msg;
    msg.type = comm::MessageType::kExpertForward;
    msg.payload = Tensor::ones({16, 8});
    msg.wire_bits = 16;  // accounting precision: half the payload bytes
    const std::uint64_t size = msg.wire_size();
    ASSERT_TRUE(ep->send(std::move(msg)));
    EXPECT_EQ(ep->bytes_sent(), size);
    EXPECT_EQ(ep->messages_sent(), 1u);
    EXPECT_EQ(meter.current_external_bytes(), size);
    // The payload still crosses at full fp32 precision regardless of the
    // accounted wire_bits — the meter charge is the protocol size, never
    // the physical frame size.
    auto got = ep->receive();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->payload.size(), 16u * 8u);
    EXPECT_EQ(got->payload.data()[0], 1.0f);
    if (expected_bytes == 0) {
      expected_bytes = meter.current_external_bytes();
    } else {
      EXPECT_EQ(meter.current_external_bytes(), expected_bytes)
          << "meter charge differs between backends";
    }
    EXPECT_STREQ(ep->backend_name(), comm::transport_kind_name(kind));
  }
}

TEST(TransportEndpoint, PendingMatchesLedgerInFlightOnEveryBackend) {
  // `pending()` is maintained at the Endpoint with the same charge-before-
  // publish ordering as the conservation ledger, so the two agree at any
  // quiescent point — including on the socket backend, where the frames
  // live in kernel buffers rather than a queue whose size() could be read.
  audit::set_enabled_for_testing(true);
  audit::ConservationLedger::instance().reset_for_testing();
  for (const auto kind : kBothKinds) {
    audit::ConservationLedger::instance().reset_for_testing();
    auto ep = comm::make_endpoint(kind, 0, 1, nullptr);
    comm::Message msg;
    msg.type = comm::MessageType::kProbe;
    const std::uint64_t size = msg.wire_size();
    ASSERT_TRUE(ep->send(comm::Message(msg)));
    ASSERT_TRUE(ep->send(comm::Message(msg)));
    EXPECT_EQ(ep->pending(), 2u) << ep->backend_name();
    auto snap = audit::ConservationLedger::instance().snapshot();
    EXPECT_EQ(snap.in_flight(), 2 * size) << ep->backend_name();

    ASSERT_TRUE(ep->receive().has_value());
    EXPECT_EQ(ep->pending(), 1u) << ep->backend_name();
    EXPECT_EQ(audit::ConservationLedger::instance().snapshot().in_flight(),
              size)
        << ep->backend_name();

    ASSERT_TRUE(ep->receive().has_value());
    EXPECT_EQ(ep->pending(), 0u) << ep->backend_name();
    EXPECT_EQ(audit::ConservationLedger::instance().snapshot().in_flight(), 0u)
        << ep->backend_name();
    audit::ConservationLedger::instance().check("transport-pending");
  }
  audit::ConservationLedger::instance().reset_for_testing();
  audit::set_enabled_for_testing(false);
}

TEST(TransportEndpoint, InjectedFaultsBehaveIdenticallyOnEveryBackend) {
  for (const auto kind : kBothKinds) {
    comm::FaultPlan plan;
    plan.rules.push_back(
        {0, comm::LinkDir::kToWorker, 0, comm::FaultKind::kDrop, 0.0});
    plan.rules.push_back(
        {0, comm::LinkDir::kToWorker, 1, comm::FaultKind::kDuplicate, 0.0});
    plan.rules.push_back(
        {0, comm::LinkDir::kToWorker, 2, comm::FaultKind::kCorrupt, 0.0});
    comm::FaultInjector injector(plan);
    auto topo = paper_topo();
    comm::TrafficMeter meter(&topo);
    auto ep = comm::make_endpoint(kind, 0, 1, &meter);
    ep->set_fault_injector(&injector, 0, comm::LinkDir::kToWorker);

    comm::Message msg;
    msg.type = comm::MessageType::kExpertForward;
    msg.payload = Tensor::ones({4, 4});
    const std::uint64_t size = msg.wire_size();

    // Drop: send succeeds (the NIC transmitted), nothing arrives.
    ASSERT_TRUE(ep->send(comm::Message(msg)));
    EXPECT_FALSE(ep->try_receive().has_value()) << ep->backend_name();
    // Duplicate: both transmissions metered, both arrive, checksums intact.
    ASSERT_TRUE(ep->send(comm::Message(msg)));
    auto first = ep->receive();
    auto second = ep->receive();
    ASSERT_TRUE(first.has_value() && second.has_value());
    EXPECT_TRUE(first->checksum_ok() && second->checksum_ok());
    // Corrupt: arrives framed cleanly but fails the end-to-end checksum.
    ASSERT_TRUE(ep->send(comm::Message(msg)));
    auto corrupted = ep->receive();
    ASSERT_TRUE(corrupted.has_value());
    EXPECT_FALSE(corrupted->checksum_ok()) << ep->backend_name();

    // 4 transmissions metered: drop, duplicate ×2, corrupt.
    EXPECT_EQ(meter.current_external_bytes(), 4 * size) << ep->backend_name();
    EXPECT_EQ(ep->messages_sent(), 4u);
  }
}

TEST(TransportEndpoint, SeverClosesTheLinkOnEveryBackend) {
  for (const auto kind : kBothKinds) {
    comm::FaultPlan plan;
    plan.rules.push_back(
        {0, comm::LinkDir::kToWorker, 1, comm::FaultKind::kSever, 0.0});
    comm::FaultInjector injector(plan);
    auto ep = comm::make_endpoint(kind, 0, 1, nullptr);
    ep->set_fault_injector(&injector, 0, comm::LinkDir::kToWorker);
    comm::Message msg;
    msg.type = comm::MessageType::kProbe;
    EXPECT_TRUE(ep->send(comm::Message(msg)));
    EXPECT_FALSE(ep->send(comm::Message(msg))) << ep->backend_name();
    EXPECT_TRUE(ep->closed());
    EXPECT_FALSE(ep->send(comm::Message(msg)));  // stays dead
    // The pre-sever message still drains.
    EXPECT_TRUE(ep->receive().has_value());
    EXPECT_FALSE(ep->receive().has_value());
  }
}

// --- cross-backend equivalence: the tentpole gate ----------------------------

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

core::VelaSystemConfig vela_config(comm::TransportKind kind) {
  core::VelaSystemConfig cfg;
  cfg.model = model::ModelConfig::tiny_test();
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.seed = 21;
  cfg.transport = kind;
  return cfg;
}

struct VelaRunResult {
  std::vector<float> losses;
  std::vector<std::uint64_t> step_bytes;
  std::uint64_t lifetime_bytes = 0;
  std::uint64_t requests = 0;
  std::string checkpoint_bytes;
};

VelaRunResult run_vela_two_steps(comm::TransportKind kind,
                                 comm::FaultInjector* injector) {
  auto cfg = vela_config(kind);
  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 77);
  core::VelaSystem vela(cfg, &corpus);
  if (injector != nullptr) {
    vela.attach_fault_injector(injector);
    vela.enable_fault_tolerance();
  }
  data::BatchIterator it(corpus.make_dataset(6, 8), 3, 4, /*shuffle=*/false);
  VelaRunResult result;
  for (int step = 0; step < 2; ++step) {
    result.losses.push_back(vela.train_step(it.next()).loss);
    result.step_bytes.push_back(vela.master().meter().step_external_bytes(
        vela.master().meter().num_steps() - 1));
  }
  result.requests = vela.master().broker().requests_sent();
  const std::string ckpt = testutil::temp_path(
      std::string("transport_") + comm::transport_kind_name(kind) +
      (injector != nullptr ? "_faulted" : "") + ".ckpt");
  vela.save_checkpoint(ckpt);
  result.lifetime_bytes = vela.master().meter().lifetime_external_bytes();
  result.checkpoint_bytes = read_file_bytes(ckpt);
  return result;
}

TEST(TransportEquivalence, VelaFineTuneIsBitExactAcrossBackends) {
  const VelaRunResult inproc =
      run_vela_two_steps(comm::TransportKind::kInProc, nullptr);
  const VelaRunResult socket =
      run_vela_two_steps(comm::TransportKind::kSocket, nullptr);
  ASSERT_EQ(inproc.losses.size(), socket.losses.size());
  for (std::size_t i = 0; i < inproc.losses.size(); ++i) {
    EXPECT_EQ(inproc.losses[i], socket.losses[i]) << "loss at step " << i;
    EXPECT_EQ(inproc.step_bytes[i], socket.step_bytes[i])
        << "metered bytes at step " << i;
  }
  EXPECT_EQ(inproc.lifetime_bytes, socket.lifetime_bytes);
  EXPECT_EQ(inproc.requests, socket.requests);
  EXPECT_EQ(inproc.checkpoint_bytes, socket.checkpoint_bytes)
      << "final weights diverged between transports";
}

TEST(TransportEquivalence, FaultedFineTuneIsBitExactAcrossBackends) {
  // One scripted fault of each recoverable kind; the plan is deterministic,
  // so both backends see the identical perturbation sequence.
  comm::FaultPlan plan;
  plan.rules.push_back(
      {0, comm::LinkDir::kToWorker, 2, comm::FaultKind::kDrop, 0.0});
  plan.rules.push_back(
      {1, comm::LinkDir::kToMaster, 3, comm::FaultKind::kDuplicate, 0.0});
  plan.rules.push_back(
      {2, comm::LinkDir::kToWorker, 4, comm::FaultKind::kCorrupt, 0.0});
  comm::FaultInjector inproc_injector(plan);
  comm::FaultInjector socket_injector(plan);

  const VelaRunResult inproc =
      run_vela_two_steps(comm::TransportKind::kInProc, &inproc_injector);
  const VelaRunResult socket =
      run_vela_two_steps(comm::TransportKind::kSocket, &socket_injector);

  EXPECT_GT(inproc_injector.faults_injected(), 0u);
  EXPECT_EQ(inproc_injector.faults_injected(),
            socket_injector.faults_injected());
  for (std::size_t i = 0; i < inproc.losses.size(); ++i) {
    EXPECT_EQ(inproc.losses[i], socket.losses[i]) << "loss at step " << i;
    EXPECT_EQ(inproc.step_bytes[i], socket.step_bytes[i])
        << "metered bytes at step " << i;
  }
  EXPECT_EQ(inproc.checkpoint_bytes, socket.checkpoint_bytes)
      << "final weights diverged between transports under faults";
}

TEST(TransportEquivalence, EpRuntimeIsBitExactAcrossBackends) {
  std::vector<float> losses[2];
  std::vector<std::uint64_t> bytes[2];
  int slot = 0;
  for (const auto kind : kBothKinds) {
    ep::EpRuntimeConfig cfg;
    cfg.model = model::ModelConfig::tiny_test();
    cfg.cluster = cluster::ClusterConfig::paper_testbed();
    cfg.cluster.num_nodes = 2;
    cfg.cluster.gpus_per_node = 1;
    cfg.seed = 33;
    cfg.wire_dtype = comm::WireDtype::kFp16Accounted;
    cfg.transport = kind;
    data::SyntheticCorpus corpus(
        data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 55);
    ep::EpRuntime ep(cfg, &corpus);
    auto batch = corpus.make_dataset(4, 8);
    for (int step = 0; step < 2; ++step) {
      losses[slot].push_back(ep.train_step(batch).loss);
      bytes[slot].push_back(
          ep.meter().step_external_bytes(ep.meter().num_steps() - 1));
    }
    ++slot;
  }
  ASSERT_EQ(losses[0].size(), losses[1].size());
  for (std::size_t i = 0; i < losses[0].size(); ++i) {
    EXPECT_EQ(losses[0][i], losses[1][i]) << "EP loss at step " << i;
    EXPECT_EQ(bytes[0][i], bytes[1][i]) << "EP metered bytes at step " << i;
  }
}

TEST(TransportEquivalence, AuditBalancesOnTheSocketBackend) {
  // VELA_AUDIT's byte-conservation check at every step boundary must hold
  // when the in-flight bytes live in kernel socket buffers: posted ==
  // delivered + dropped + (accepted − delivered).
  audit::set_enabled_for_testing(true);
  audit::ConservationLedger::instance().reset_for_testing();
  std::vector<std::pair<std::string, std::string>> violations;
  audit::set_violation_handler(
      [&violations](const std::string& category, const std::string& detail) {
        violations.emplace_back(category, detail);
      });
  {
    auto cfg = vela_config(comm::TransportKind::kSocket);
    data::SyntheticCorpus corpus(
        data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 77);
    core::VelaSystem vela(cfg, &corpus);
    data::BatchIterator it(corpus.make_dataset(6, 8), 3, 4,
                           /*shuffle=*/false);
    for (int step = 0; step < 2; ++step) (void)vela.train_step(it.next());
  }
  audit::set_violation_handler(nullptr);
  audit::ConservationLedger::instance().reset_for_testing();
  audit::set_enabled_for_testing(false);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " audit violation(s), first: "
      << violations.front().first << ": " << violations.front().second;
}

}  // namespace
}  // namespace vela
