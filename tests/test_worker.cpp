#include "core/expert_worker.h"

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "tensor/ops.h"
#include "util/check.h"
#include "util/rng.h"

namespace vela {
namespace {

core::WorkerSpec test_spec() {
  core::WorkerSpec spec;
  spec.worker_id = 0;
  spec.node = 0;
  spec.model_dim = 8;
  spec.hidden_dim = 16;
  spec.lora = nn::LoRAConfig{2, 4.0f, true};
  spec.base_seed = 11;
  spec.wire_dtype = comm::WireDtype::kFp32;
  return spec;
}

struct WorkerFixture {
  WorkerFixture()
      : link(comm::TransportKind::kDefault, 0, 0, nullptr),
        worker(test_spec(), &link, {{0, 0}, {0, 1}}) {
    worker.start();
  }
  ~WorkerFixture() {
    comm::Message bye;
    bye.type = comm::MessageType::kShutdown;
    link.to_worker.send(std::move(bye));
    worker.join();
  }

  comm::Message request_forward(std::uint64_t id, std::uint32_t expert,
                                const Tensor& xs) {
    comm::Message msg;
    msg.type = comm::MessageType::kExpertForward;
    msg.request_id = id;
    msg.layer = 0;
    msg.expert = expert;
    msg.payload = xs;
    link.to_worker.send(std::move(msg));
    return *link.to_master.receive();
  }

  comm::DuplexLink link;
  core::ExpertWorker worker;
};

TEST(ExpertWorker, ForwardMatchesLocalExpert) {
  WorkerFixture f;
  Rng xr(1);
  Tensor xs = ops::randn({5, 8}, xr);
  comm::Message reply = f.request_forward(1, 0, xs);
  EXPECT_EQ(reply.type, comm::MessageType::kExpertForwardResult);
  EXPECT_EQ(reply.request_id, 1u);

  // Reference: locally constructed expert from the same seed.
  Rng er(nn::expert_seed(11, 0, 0));
  nn::SwiGLUExpert ref("e", 8, 16, nn::LoRAConfig{2, 4.0f, true}, er);
  Tensor expected = ref.forward(ag::Variable::constant(xs)).value();
  EXPECT_TRUE(ops::allclose(reply.payload, expected));
}

TEST(ExpertWorker, BackwardReturnsInputGradient) {
  WorkerFixture f;
  Rng xr(2);
  Tensor xs = ops::randn({3, 8}, xr);
  f.request_forward(7, 1, xs);

  comm::Message grad_msg;
  grad_msg.type = comm::MessageType::kExpertBackward;
  grad_msg.request_id = 7;
  grad_msg.layer = 0;
  grad_msg.expert = 1;
  grad_msg.payload = Tensor::ones({3, 8});
  f.link.to_worker.send(std::move(grad_msg));
  comm::Message reply = *f.link.to_master.receive();
  EXPECT_EQ(reply.type, comm::MessageType::kExpertBackwardResult);
  ASSERT_EQ(reply.payload.rows(), 3u);

  // Reference input gradient from a local twin.
  Rng er(nn::expert_seed(11, 0, 1));
  nn::SwiGLUExpert ref("e", 8, 16, nn::LoRAConfig{2, 4.0f, true}, er);
  ag::Variable x = ag::Variable::leaf(xs, true);
  ag::backward(ag::sum(ref.forward(x)));
  EXPECT_TRUE(ops::allclose(reply.payload, x.grad(), 1e-4f, 1e-3f));
}

TEST(ExpertWorker, OptimizerStepUpdatesAdapters) {
  WorkerFixture f;
  Rng xr(3);
  Tensor xs = ops::randn({4, 8}, xr);
  Tensor before = f.request_forward(1, 0, xs).payload;

  comm::Message grad_msg;
  grad_msg.type = comm::MessageType::kExpertBackward;
  grad_msg.request_id = 1;
  grad_msg.layer = 0;
  grad_msg.expert = 0;
  grad_msg.payload = Tensor::full({4, 8}, 100.0f);  // big gradient
  f.link.to_worker.send(std::move(grad_msg));
  f.link.to_master.receive();

  comm::Message step;
  step.type = comm::MessageType::kOptimizerStep;
  step.request_id = 2;
  f.link.to_worker.send(std::move(step));
  EXPECT_EQ(f.link.to_master.receive()->type,
            comm::MessageType::kOptimizerStepDone);

  Tensor after = f.request_forward(3, 0, xs).payload;
  EXPECT_FALSE(ops::allclose(before, after, 1e-7f, 1e-7f));
}

comm::Message compute_request(comm::MessageType type, std::uint64_t id,
                              std::uint32_t expert, Tensor payload) {
  comm::Message msg;
  msg.type = type;
  msg.request_id = id;
  msg.layer = 0;
  msg.expert = expert;
  msg.payload = std::move(payload);
  return msg;
}

TEST(ExpertWorker, UnknownExpertIsProtocolError) {
  // Both forwards are queued before the thread starts, so they drain as one
  // run: the valid prefix ((0,0)) computes and replies, then the unhosted
  // (0,3) kills the worker, which the master observes as a closed channel.
  comm::DuplexLink link(comm::TransportKind::kDefault, 0, 0, nullptr);
  core::ExpertWorker worker(test_spec(), &link, {{0, 0}, {0, 1}});
  Rng xr(5);
  const Tensor xs = ops::randn({2, 8}, xr);
  link.to_worker.send(
      compute_request(comm::MessageType::kExpertForward, 1, 0, xs));
  link.to_worker.send(
      compute_request(comm::MessageType::kExpertForward, 2, 3, xs));
  worker.start();
  auto reply = link.to_master.receive();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, comm::MessageType::kExpertForwardResult);
  EXPECT_EQ(reply->request_id, 1u);
  EXPECT_EQ(reply->expert, 0u);
  EXPECT_FALSE(link.to_master.receive().has_value());
  worker.join();
}

TEST(ExpertWorker, UnknownBackwardRequestIsProtocolError) {
  // Backward analogue: after one valid backward, a backward for a request
  // id that has no pending tape replies nothing and kills the worker.
  comm::DuplexLink link(comm::TransportKind::kDefault, 0, 0, nullptr);
  core::ExpertWorker worker(test_spec(), &link, {{0, 0}, {0, 1}});
  Rng xr(6);
  const Tensor xs = ops::randn({2, 8}, xr);
  link.to_worker.send(
      compute_request(comm::MessageType::kExpertForward, 1, 0, xs));
  link.to_worker.send(compute_request(comm::MessageType::kExpertBackward, 1,
                                      0, Tensor::ones({2, 8})));
  link.to_worker.send(compute_request(comm::MessageType::kExpertBackward, 99,
                                      0, Tensor::ones({2, 8})));
  worker.start();
  auto fwd = link.to_master.receive();
  ASSERT_TRUE(fwd.has_value());
  EXPECT_EQ(fwd->type, comm::MessageType::kExpertForwardResult);
  auto bwd = link.to_master.receive();
  ASSERT_TRUE(bwd.has_value());
  EXPECT_EQ(bwd->type, comm::MessageType::kExpertBackwardResult);
  EXPECT_EQ(bwd->request_id, 1u);
  EXPECT_FALSE(link.to_master.receive().has_value());
  worker.join();
}

TEST(ExpertWorker, FetchRemovesAndInstallRestores) {
  WorkerFixture f;
  Rng xr(4);
  Tensor xs = ops::randn({2, 8}, xr);
  Tensor before = f.request_forward(1, 0, xs).payload;

  comm::Message fetch;
  fetch.type = comm::MessageType::kFetchExpert;
  fetch.request_id = 2;
  fetch.layer = 0;
  fetch.expert = 0;
  f.link.to_worker.send(std::move(fetch));
  comm::Message state = *f.link.to_master.receive();
  EXPECT_EQ(state.type, comm::MessageType::kExpertState);
  EXPECT_GT(state.payload.size(), 0u);

  comm::Message install;
  install.type = comm::MessageType::kInstallExpert;
  install.request_id = 3;
  install.layer = 0;
  install.expert = 0;
  install.payload = std::move(state.payload);
  f.link.to_worker.send(std::move(install));
  EXPECT_EQ(f.link.to_master.receive()->type,
            comm::MessageType::kInstallExpertDone);

  Tensor after = f.request_forward(4, 0, xs).payload;
  EXPECT_TRUE(ops::allclose(before, after));
}

TEST(ExpertWorker, ClosingChannelStopsThread) {
  comm::DuplexLink link(comm::TransportKind::kDefault, 0, 0, nullptr);
  core::ExpertWorker worker(test_spec(), &link, {{0, 0}});
  worker.start();
  link.to_worker.close();
  worker.join();
  SUCCEED();
}

TEST(PackUnpack, RoundTripsTrainableState) {
  Rng er(5);
  nn::SwiGLUExpert a("e", 8, 16, nn::LoRAConfig{2, 4.0f, true}, er);
  // Perturb adapters, pack, unpack into a twin.
  for (auto& p : a.trainable_parameters()) {
    p.var.mutable_value().fill(0.37f);
  }
  Tensor packed = core::pack_trainable(a);
  Rng er2(6);
  nn::SwiGLUExpert b("e", 8, 16, nn::LoRAConfig{2, 4.0f, true}, er2);
  core::unpack_trainable(packed, b);
  for (const auto& p : b.trainable_parameters()) {
    for (std::size_t i = 0; i < p.var.value().size(); ++i) {
      EXPECT_FLOAT_EQ(p.var.value()[i], 0.37f);
    }
  }
}

TEST(PackUnpack, SizeMismatchThrows) {
  Rng er(5);
  nn::SwiGLUExpert a("e", 8, 16, nn::LoRAConfig{2, 4.0f, true}, er);
  Tensor wrong({3});
  EXPECT_THROW(core::unpack_trainable(wrong, a), CheckError);
}

}  // namespace
}  // namespace vela
