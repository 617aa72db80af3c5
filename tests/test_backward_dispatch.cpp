// Layer-batched gradient dispatch (`ctest -L overlap`).
//
// A remote expert backend must post every dL/dy of a MoE block before it
// awaits any dL/dx. The hand-driven expert host below makes that order
// observable: it echoes forward payloads as expert outputs and gradients as
// dL/dx, but withholds every backward reply until the backward request of
// each forward it served has arrived. A backend that blocks on one
// gradient's reply before posting the next never completes against it —
// the VELA broker runs out of retries (WorkerFailedError), the EP peer
// backend sees its reply channel close (CheckError). A layer-batched
// backend completes, and its gradients match an unwithheld run bit for bit.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "cluster/topology.h"
#include "comm/endpoint.h"
#include "comm/traffic_meter.h"
#include "core/expert_broker.h"
#include "core/fault_tolerance.h"
#include "ep/peer_backend.h"
#include "moe/moe_block.h"
#include "tensor/ops.h"

namespace vela {
namespace {

constexpr std::size_t kDim = 8;
constexpr std::size_t kExperts = 4;
constexpr std::size_t kTopK = 2;
constexpr std::size_t kTokens = 12;

// Serves one expert host over (in, out) on its own thread until `in`
// closes. With `withhold`, backward replies wait until every forward id
// served so far has had its backward request; then they go out in arrival
// order (FIFO per requester, as the real hosts reply). A host that hears
// nothing for two seconds gives up and closes `out`.
class EchoHost {
 public:
  EchoHost(comm::Endpoint* in, comm::Endpoint* out, bool withhold)
      : in_(in), out_(out), withhold_(withhold) {
    thread_ = std::thread([this] { run(); });
  }
  ~EchoHost() {
    if (thread_.joinable()) thread_.join();
  }
  EchoHost(const EchoHost&) = delete;
  EchoHost& operator=(const EchoHost&) = delete;

  // Joins the host (its input must be closed) and returns the most
  // backward replies it ever held at once.
  std::size_t finish() {
    thread_.join();
    return max_held_;
  }

 private:
  void run() {
    std::set<std::uint64_t> forward_ids, backward_ids;
    std::vector<comm::Message> held;
    for (;;) {
      comm::Message msg;
      const PopStatus status =
          in_->receive_for(std::chrono::milliseconds(2000), &msg);
      if (status == PopStatus::kClosed) return;
      if (status == PopStatus::kTimeout) {
        out_->close();
        return;
      }
      comm::Message reply;
      reply.request_id = msg.request_id;
      reply.source = msg.source;
      reply.layer = msg.layer;
      reply.expert = msg.expert;
      reply.chunk_index = msg.chunk_index;
      reply.chunk_count = msg.chunk_count;
      reply.payload = msg.payload;
      if (msg.type == comm::MessageType::kExpertForward) {
        forward_ids.insert(msg.request_id);
        reply.type = comm::MessageType::kExpertForwardResult;
        ASSERT_TRUE(out_->send(std::move(reply)));
        continue;
      }
      ASSERT_EQ(msg.type, comm::MessageType::kExpertBackward);
      // A retransmission of a held request: the original reply is queued.
      if (!backward_ids.insert(msg.request_id).second) continue;
      reply.type = comm::MessageType::kExpertBackwardResult;
      held.push_back(std::move(reply));
      max_held_ = std::max(max_held_, held.size());
      if (withhold_ && backward_ids != forward_ids) continue;
      for (comm::Message& r : held) ASSERT_TRUE(out_->send(std::move(r)));
      held.clear();
    }
  }

  comm::Endpoint* in_;
  comm::Endpoint* out_;
  bool withhold_;
  std::size_t max_held_ = 0;
  std::thread thread_;
};

Tensor block_input() {
  Rng xr(11);
  return ops::randn({kTokens, kDim}, xr);
}

// One forward + backward of a single MoE block over `backend`; returns
// dL/dx of the block input.
Tensor block_input_grad(moe::ExpertBackend* backend) {
  Rng rng(7);
  moe::MoEBlock block("moe", 0, kDim, kExperts, kTopK, rng, backend);
  ag::Variable x = ag::Variable::leaf(block_input(), true);
  ag::backward(ag::sum(block.forward(x)));
  return x.grad();
}

struct BrokerRun {
  Tensor grad;
  std::size_t max_held = 0;
};

// Every expert on one hand-driven worker, dispatched by the VELA broker at
// pipeline depth `chunks` (K = 4 sends every group as a fragment train).
BrokerRun run_broker(std::size_t chunks, bool withhold) {
  comm::DuplexLink link;
  BrokerRun run;
  {
    EchoHost host(&link.to_worker, &link.to_master, withhold);
    core::RetryPolicy policy;
    policy.timeout = std::chrono::milliseconds(500);
    policy.max_retries = 2;
    core::ReliableLink rlink(0, &link, &policy);
    placement::Placement placement(1, kExperts);
    for (std::size_t e = 0; e < kExperts; ++e) placement.assign(0, e, 0);
    core::ExpertBroker broker({&rlink}, &placement, 1, comm::WireCodec{});
    broker.set_overlap_chunks(chunks);
    try {
      run.grad = block_input_grad(&broker);
    } catch (...) {
      link.to_worker.close();
      throw;
    }
    link.to_worker.close();
    run.max_held = host.finish();
  }
  return run;
}

void expect_same_bits(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)));
}

TEST(LayerBatchedBackward, BrokerPostsEveryGradientBeforeAwaiting) {
  BrokerRun withheld;
  ASSERT_NO_THROW(withheld = run_broker(0, /*withhold=*/true));
  const BrokerRun eager = run_broker(0, /*withhold=*/false);
  // Every group of the block was in flight at once.
  EXPECT_GT(withheld.max_held, 1u);
  expect_same_bits(withheld.grad, eager.grad);
}

TEST(LayerBatchedBackward, BrokerPostsEveryFragmentTrainBeforeAwaiting) {
  BrokerRun withheld;
  ASSERT_NO_THROW(withheld = run_broker(4, /*withhold=*/true));
  const BrokerRun eager = run_broker(4, /*withhold=*/false);
  EXPECT_GT(withheld.max_held, 4u);  // more than one train of fragments
  expect_same_bits(withheld.grad, eager.grad);
  // Chunking changes only how the rows travel.
  expect_same_bits(withheld.grad, run_broker(0, /*withhold=*/false).grad);
}

// Every expert on one hand-driven EP server, dispatched by shard 0's peer
// backend.
Tensor run_peer(bool withhold) {
  comm::Endpoint inbox(comm::TransportKind::kDefault, 0, 0, nullptr);
  comm::Endpoint reply(comm::TransportKind::kDefault, 0, 0, nullptr);
  cluster::ClusterTopology topology(cluster::ClusterConfig::paper_testbed());
  comm::TrafficMeter meter(&topology);
  Tensor grad;
  {
    EchoHost host(&inbox, &reply, withhold);
    ep::PeerBackend peer(0, 1, 1, comm::WireCodec{}, &topology, &meter,
                         {&inbox}, {&reply});
    try {
      grad = block_input_grad(&peer);
    } catch (...) {
      inbox.close();
      throw;
    }
    inbox.close();
  }
  return grad;
}

TEST(LayerBatchedBackward, PeerBackendPostsEveryGradientBeforeAwaiting) {
  Tensor withheld;
  ASSERT_NO_THROW(withheld = run_peer(/*withhold=*/true));
  expect_same_bits(withheld, run_peer(/*withhold=*/false));
}

}  // namespace
}  // namespace vela
