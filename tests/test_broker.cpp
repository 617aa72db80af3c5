#include "core/expert_broker.h"

#include <gtest/gtest.h>

#include "core/expert_worker.h"
#include "core/master.h"
#include "moe/moe_block.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace vela {
namespace {

constexpr std::size_t kLayers = 2;
constexpr std::size_t kExperts = 4;
constexpr std::size_t kDim = 8;
constexpr std::size_t kHidden = 16;
constexpr std::uint64_t kSeed = 21;

nn::LoRAConfig lora() { return nn::LoRAConfig{2, 4.0f, true}; }

core::WorkerSpec spec() {
  core::WorkerSpec s;
  s.model_dim = kDim;
  s.hidden_dim = kHidden;
  s.lora = lora();
  s.base_seed = kSeed;
  s.wire_dtype = comm::WireDtype::kFp32;
  return s;
}

placement::Placement seq_placement(std::size_t workers) {
  placement::Placement p(kLayers, kExperts);
  for (std::size_t l = 0; l < kLayers; ++l) {
    for (std::size_t e = 0; e < kExperts; ++e) p.assign(l, e, e % workers);
  }
  return p;
}

struct MasterFixture {
  MasterFixture()
      : topology(cluster::ClusterConfig::paper_testbed()),
        master(topology, spec(), seq_placement(5), kLayers, kExperts) {}

  cluster::ClusterTopology topology;
  core::MasterProcess master;
};

TEST(Broker, ForwardMatchesLocalBackend) {
  MasterFixture f;
  moe::LocalExpertBackend local(kLayers, kExperts, kDim, kHidden, lora(),
                                kSeed);
  Rng xr(1);
  Tensor xs = ops::randn({5, kDim}, xr);
  for (std::size_t l = 0; l < kLayers; ++l) {
    for (std::size_t e = 0; e < kExperts; ++e) {
      ag::Variable remote = f.master.broker().expert_forward(
          l, e, ag::Variable::constant(xs));
      ag::Variable dense =
          local.expert_forward(l, e, ag::Variable::constant(xs));
      EXPECT_TRUE(ops::allclose(remote.value(), dense.value()))
          << "layer " << l << " expert " << e;
    }
  }
}

TEST(Broker, BatchedForwardMatchesIndividual) {
  MasterFixture f;
  Rng xr(2);
  const ag::Variable x = ag::Variable::constant(ops::randn({9, kDim}, xr));
  // Experts 0, 1 and 3 take disjoint row groups; expert 2 gets none.
  const std::vector<std::vector<std::size_t>> tokens = {
      {0, 4, 8}, {1, 2}, {}, {3, 5, 6, 7}};
  auto batched = f.master.broker().experts_forward(0, x, tokens);
  ASSERT_EQ(batched.size(), 3u);
  const std::size_t experts[] = {0, 1, 3};
  for (std::size_t i = 0; i < batched.size(); ++i) {
    const std::size_t e = experts[i];
    ag::Variable single = f.master.broker().expert_forward(
        0, e, ag::Variable::constant(ops::gather_rows(x.value(), tokens[e])));
    EXPECT_TRUE(ops::allclose(batched[i].value(), single.value()));
  }
}

TEST(Broker, BackwardMatchesLocalGradients) {
  MasterFixture f;
  moe::LocalExpertBackend local(kLayers, kExperts, kDim, kHidden, lora(),
                                kSeed);
  Rng xr(3);
  Tensor xs = ops::randn({4, kDim}, xr);

  ag::Variable x_remote = ag::Variable::leaf(xs, true);
  ag::backward(ag::sum(f.master.broker().expert_forward(1, 2, x_remote)));

  ag::Variable x_local = ag::Variable::leaf(xs, true);
  ag::backward(ag::sum(local.expert_forward(1, 2, x_local)));

  EXPECT_TRUE(ops::allclose(x_remote.grad(), x_local.grad(), 1e-4f, 1e-3f));
}

TEST(Broker, StepRecordHasForwardAndBackwardPhases) {
  MasterFixture f;
  f.master.broker().begin_step();
  Rng xr(4);
  ag::Variable x =
      ag::Variable::leaf(ops::randn({4, kDim}, xr), true);
  ag::backward(ag::sum(f.master.broker().expert_forward(0, 1, x)));
  auto record = f.master.broker().finish_step();
  ASSERT_EQ(record.phases.size(), 2u * kLayers);
  // Expert 1 lives on worker 1: forward phase 0 and backward phase for
  // layer 0 (the last phase) must carry bytes on worker 1 only.
  EXPECT_GT(record.phases[0].bytes[1], 0u);
  EXPECT_EQ(record.phases[0].bytes[0], 0u);
  EXPECT_GT(record.phases.back().bytes[1], 0u);
  // Layer 1 phases are empty.
  EXPECT_EQ(record.phases[1].bytes[1], 0u);
}

TEST(Broker, FinishStepResetsLedger) {
  MasterFixture f;
  Rng xr(5);
  f.master.broker().expert_forward(
      0, 0, ag::Variable::constant(ops::randn({2, kDim}, xr)));
  auto first = f.master.broker().finish_step();
  EXPECT_GT(first.phases[0].bytes[0], 0u);
  auto second = f.master.broker().finish_step();
  EXPECT_EQ(second.phases[0].bytes[0], 0u);
}

TEST(Broker, TrafficMeterSeesOnlyCrossNodeBytes) {
  MasterFixture f;
  Rng xr(6);
  Tensor xs = ops::randn({4, kDim}, xr);
  // Expert 0 → worker 0 (device 1, master's node): internal only.
  f.master.meter().discard_current();
  f.master.broker().expert_forward(0, 0, ag::Variable::constant(xs));
  EXPECT_EQ(f.master.meter().current_external_bytes(), 0u);
  EXPECT_GT(f.master.meter().current_total_bytes(), 0u);
  // Expert 2 → worker 2 (device 3, node 1): external.
  f.master.broker().expert_forward(0, 2, ag::Variable::constant(xs));
  EXPECT_GT(f.master.meter().current_external_bytes(), 0u);
}

TEST(Master, ApplyPlacementMovesExpertAndPreservesOutputs) {
  MasterFixture f;
  Rng xr(7);
  Tensor xs = ops::randn({3, kDim}, xr);
  Tensor before =
      f.master.broker().expert_forward(0, 2, ag::Variable::constant(xs)).value();

  placement::Placement next = seq_placement(5);
  next.assign(0, 2, 4);  // move expert (0,2) from worker 2 to worker 4
  f.master.apply_placement(next);
  EXPECT_EQ(f.master.placement().worker_of(0, 2), 4u);

  Tensor after =
      f.master.broker().expert_forward(0, 2, ag::Variable::constant(xs)).value();
  EXPECT_TRUE(ops::allclose(before, after));
}

TEST(Master, OptimizerBroadcastCompletes) {
  MasterFixture f;
  f.master.broadcast_optimizer_step(0);
  f.master.broadcast_optimizer_step(1);
  SUCCEED();
}

TEST(Master, ShutdownIsIdempotent) {
  MasterFixture f;
  f.master.shutdown();
  f.master.shutdown();
  SUCCEED();
}

}  // namespace
}  // namespace vela
