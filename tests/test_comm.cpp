#include <gtest/gtest.h>

#include <thread>

#include "comm/endpoint.h"
#include "comm/message.h"
#include "comm/traffic_meter.h"
#include "util/blocking_queue.h"
#include "util/check.h"

namespace vela {
namespace {

cluster::ClusterTopology paper_topo() {
  return cluster::ClusterTopology(cluster::ClusterConfig::paper_testbed());
}

TEST(BlockingQueue, FifoOrder) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
}

TEST(BlockingQueue, TryPopEmpty) {
  BlockingQueue<int> q;
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BlockingQueue, CloseReleasesBlockedConsumer) {
  BlockingQueue<int> q;
  std::thread consumer([&] { EXPECT_FALSE(q.pop().has_value()); });
  q.close();
  consumer.join();
  EXPECT_FALSE(q.push(5));
}

TEST(BlockingQueue, DrainsBacklogAfterClose) {
  BlockingQueue<int> q;
  q.push(7);
  q.close();
  EXPECT_EQ(q.pop().value(), 7);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BlockingQueue, CrossThreadDelivery) {
  BlockingQueue<int> q;
  std::thread producer([&] {
    for (int i = 0; i < 100; ++i) q.push(i);
  });
  int sum = 0;
  for (int i = 0; i < 100; ++i) sum += q.pop().value();
  producer.join();
  EXPECT_EQ(sum, 4950);
}

TEST(Message, WireSizeWithPayload) {
  comm::Message msg;
  msg.payload = Tensor({4, 8});
  msg.wire_bits = 16;
  EXPECT_EQ(msg.wire_size(), comm::Message::kHeaderBytes + 32 * 2);
}

TEST(Message, WireSizePhantom) {
  comm::Message msg;
  msg.phantom_bytes = 1000;
  EXPECT_EQ(msg.wire_size(), comm::Message::kHeaderBytes + 1000);
}

TEST(Message, ControlMessageIsHeaderOnly) {
  comm::Message msg;
  EXPECT_EQ(msg.wire_size(), comm::Message::kHeaderBytes);
}

// The Message checksum is a protocol value: stamped traffic and goldens
// depend on its exact bits. Pinned for one fp32, one q8 fragment and one
// phantom message; the expected values come from the byte-at-a-time FNV-1a
// the checksum was first written as.
TEST(Message, ChecksumValuesArePinned) {
  comm::Message f32;
  f32.type = comm::MessageType::kExpertForward;
  f32.request_id = 0x0123456789ABCDEFull;
  f32.source = 3;
  f32.layer = 2;
  f32.expert = 5;
  f32.step = 7;
  f32.payload = Tensor({2, 3}, {0.5f, -1.25f, 3.0f, 0.0f, -0.0f, 1e-3f});
  EXPECT_EQ(f32.compute_checksum(), 0xCC722991u);

  comm::Message q8;
  q8.type = comm::MessageType::kExpertBackward;
  q8.request_id = 42;
  q8.source = 1;
  q8.expert = 4;
  q8.step = 9;
  q8.payload =
      Tensor({2, 4}, {1.0f, -2.0f, 0.25f, 7.5f, -0.125f, 4.0f, 0.0f, 3.5f});
  q8.wire_bits = 8;
  q8.q8_block = 32;
  q8.chunk_index = 1;
  q8.chunk_count = 3;
  EXPECT_EQ(q8.compute_checksum(), 0x25F8749Cu);

  comm::Message phantom;
  phantom.type = comm::MessageType::kAllReduceChunk;
  phantom.request_id = 0xFFFFFFFF00000001ull;
  phantom.phantom_bytes = (5ull << 32) + 77;
  EXPECT_EQ(phantom.compute_checksum(), 0x26F13853u);
}

TEST(TrafficMeter, SeparatesExternalFromInternal) {
  auto topo = paper_topo();
  comm::TrafficMeter meter(&topo);
  meter.record(0, 0, 100);  // internal
  meter.record(0, 1, 50);   // external
  EXPECT_EQ(meter.current_total_bytes(), 150u);
  EXPECT_EQ(meter.current_external_bytes(), 50u);
}

TEST(TrafficMeter, StepHistory) {
  auto topo = paper_topo();
  comm::TrafficMeter meter(&topo);
  meter.record(0, 1, 3'000'000);
  meter.end_step();
  meter.record(0, 2, 6'000'000);
  meter.end_step();
  EXPECT_EQ(meter.num_steps(), 2u);
  EXPECT_EQ(meter.step_external_bytes(0), 3'000'000u);
  // MB per node: bytes / 1e6 / 3 nodes.
  EXPECT_NEAR(meter.step_external_mb_per_node(0), 1.0, 1e-9);
  EXPECT_NEAR(meter.mean_external_mb_per_node(), 1.5, 1e-9);
}

TEST(TrafficMeter, DiscardCurrentDropsWithoutRecording) {
  auto topo = paper_topo();
  comm::TrafficMeter meter(&topo);
  meter.record(0, 1, 500);
  meter.discard_current();
  EXPECT_EQ(meter.current_external_bytes(), 0u);
  EXPECT_EQ(meter.num_steps(), 0u);
}

TEST(TrafficMeter, LifetimeTotalsIncludeOpenStep) {
  auto topo = paper_topo();
  comm::TrafficMeter meter(&topo);
  meter.record(0, 1, 100);
  meter.end_step();
  meter.record(0, 2, 25);
  EXPECT_EQ(meter.lifetime_external_bytes(), 125u);
}

TEST(Endpoint, CountsBytesAndMessages) {
  auto topo = paper_topo();
  comm::TrafficMeter meter(&topo);
  comm::Endpoint ch(comm::TransportKind::kDefault, 0, 1, &meter);
  comm::Message msg;
  msg.payload = Tensor({2, 2});
  msg.wire_bits = 32;
  const auto size = msg.wire_size();
  ch.send(std::move(msg));
  EXPECT_EQ(ch.bytes_sent(), size);
  EXPECT_EQ(ch.messages_sent(), 1u);
  EXPECT_EQ(meter.current_external_bytes(), size);
  auto received = ch.receive();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->payload.size(), 4u);
}

TEST(Endpoint, NullMeterAllowed) {
  comm::Endpoint ch(comm::TransportKind::kDefault, 0, 0, nullptr);
  comm::Message msg;
  EXPECT_TRUE(ch.send(std::move(msg)));
  EXPECT_TRUE(ch.receive().has_value());
}

TEST(Endpoint, PayloadIntegrityAcrossThreads) {
  comm::Endpoint ch(comm::TransportKind::kDefault, 0, 1, nullptr);
  Tensor payload = Tensor::from_rows({{1.0f, 2.0f}, {3.0f, 4.0f}});
  std::thread sender([&] {
    comm::Message msg;
    msg.payload = payload;
    ch.send(std::move(msg));
  });
  auto received = ch.receive();
  sender.join();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->payload.at(1, 1), 4.0f);
}

TEST(DuplexLink, TwoIndependentDirections) {
  auto topo = paper_topo();
  comm::TrafficMeter meter(&topo);
  comm::DuplexLink link(comm::TransportKind::kDefault, 0, 2, &meter);
  comm::Message a, b;
  a.request_id = 1;
  b.request_id = 2;
  link.to_worker.send(std::move(a));
  link.to_master.send(std::move(b));
  EXPECT_EQ(link.to_worker.receive()->request_id, 1u);
  EXPECT_EQ(link.to_master.receive()->request_id, 2u);
  link.close();
  EXPECT_FALSE(link.to_worker.receive().has_value());
}

}  // namespace
}  // namespace vela
