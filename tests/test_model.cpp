#include "model/transformer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "autograd/ops.h"
#include "comm/wire_codec.h"
#include "moe/moe_block.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace vela {
namespace {

struct Fixture {
  Fixture()
      : cfg(model::ModelConfig::tiny_test()),
        backend(cfg.num_layers, cfg.num_experts, cfg.model_dim, cfg.hidden_dim,
                cfg.lora, 77),
        rng(5),
        model(cfg, &backend, rng) {}

  model::ModelConfig cfg;
  moe::LocalExpertBackend backend;
  Rng rng;
  model::MoETransformer model;
};

TEST(ModelConfig, Presets) {
  auto tiny = model::ModelConfig::tiny_mistral();
  EXPECT_EQ(tiny.num_layers, 12u);
  EXPECT_EQ(tiny.num_experts, 6u);
  EXPECT_EQ(tiny.top_k, 2u);

  auto mixtral = model::ModelConfig::mixtral_8x7b_shape();
  EXPECT_EQ(mixtral.num_layers, 32u);
  EXPECT_EQ(mixtral.num_experts, 8u);
  EXPECT_EQ(mixtral.model_dim, 4096u);
  // One token, one direction at the paper's b = 16: H·b/8 = 4096·2 = 8192.
  const comm::WireCodec fp16acct{comm::WireDtype::kFp16Accounted};
  EXPECT_EQ(fp16acct.row_bytes(mixtral.model_dim), 8192u);

  auto grit = model::ModelConfig::gritlm_8x7b_shape();
  EXPECT_EQ(grit.num_layers, mixtral.num_layers);
  EXPECT_NE(grit.name, mixtral.name);
}

TEST(Model, ForwardShape) {
  Fixture f;
  std::vector<std::vector<std::size_t>> batch{{1, 2, 3, 4}, {5, 6, 7}};
  Tensor logits = f.model.forward_batch(batch).value();
  EXPECT_EQ(logits.rows(), 7u);  // 4 + 3 tokens
  EXPECT_EQ(logits.cols(), f.cfg.vocab);
  EXPECT_TRUE(logits.all_finite());
}

TEST(Model, SingleSequenceBatch) {
  Fixture f;
  Tensor logits = f.model.forward_batch({{1, 2, 3}}).value();
  EXPECT_EQ(logits.rows(), 3u);
}

TEST(Model, LossIsFiniteAndPositive) {
  Fixture f;
  std::vector<std::vector<std::size_t>> batch{{1, 2, 3, 4, 5}, {6, 7, 8, 9, 1}};
  float loss = f.model.loss_batch(batch).value()[0];
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(loss, 0.0f);
}

TEST(Model, LossRejectsTooShortSequences) {
  Fixture f;
  EXPECT_THROW(f.model.loss_batch({{1}}), CheckError);
}

TEST(Model, StatsRecordedForAllBlocks) {
  Fixture f;
  moe::RoutingStats stats(f.cfg.num_layers, f.cfg.num_experts);
  f.model.forward_batch({{1, 2, 3, 4}}, &stats);
  for (std::size_t l = 0; l < f.cfg.num_layers; ++l) {
    EXPECT_EQ(stats.tokens_seen(l), 4u);
  }
}

TEST(Model, LastPlansOnePerBlock) {
  Fixture f;
  f.model.forward_batch({{1, 2, 3}});
  auto plans = f.model.last_plans();
  EXPECT_EQ(plans.size(), f.cfg.num_layers);
  for (const auto& plan : plans) {
    EXPECT_EQ(plan.num_tokens, 3u);
    EXPECT_NO_THROW(plan.validate());
  }
}

TEST(Model, OnlyLoRAAndGateBackboneSplit) {
  Fixture f;
  // Trainable params must all be LoRA adapters (gate frozen, embed frozen).
  for (const auto& p : f.model.trainable_parameters()) {
    EXPECT_NE(p.name.find("lora"), std::string::npos) << p.name;
  }
  EXPECT_GT(f.model.trainable_parameter_count(), 0u);
  EXPECT_LT(f.model.trainable_parameter_count(), f.model.parameter_count());
}

TEST(Model, BackwardReachesEveryTrainableParam) {
  Fixture f;
  ag::backward(f.model.loss_batch({{1, 2, 3, 4, 5}, {6, 7, 8, 9, 1}}));
  std::size_t without = 0;
  for (const auto& p : f.model.trainable_parameters()) {
    if (!p.var.has_grad()) ++without;
  }
  EXPECT_EQ(without, 0u);
}

TEST(Model, TrainingStepReducesLossOnFixedBatch) {
  Fixture f;
  std::vector<std::vector<std::size_t>> batch{{1, 2, 3, 1, 2, 3, 1, 2},
                                              {4, 5, 6, 4, 5, 6, 4, 5}};
  std::vector<nn::Parameter> params = f.model.trainable_parameters();
  for (const auto& bp : f.backend.trainable_parameters()) params.push_back(bp);
  nn::SGD sgd(params, 0.05f);
  const float initial = f.model.loss_batch(batch).value()[0];
  float final_loss = initial;
  for (int i = 0; i < 30; ++i) {
    sgd.zero_grad();
    ag::Variable loss = f.model.loss_batch(batch);
    final_loss = loss.value()[0];
    ag::backward(loss);
    sgd.step();
  }
  EXPECT_LT(final_loss, initial * 0.98f);
}

TEST(Model, DeterministicConstruction) {
  auto cfg = model::ModelConfig::tiny_test();
  moe::LocalExpertBackend b1(cfg.num_layers, cfg.num_experts, cfg.model_dim,
                             cfg.hidden_dim, cfg.lora, 3);
  moe::LocalExpertBackend b2(cfg.num_layers, cfg.num_experts, cfg.model_dim,
                             cfg.hidden_dim, cfg.lora, 3);
  Rng r1(9), r2(9);
  model::MoETransformer m1(cfg, &b1, r1);
  model::MoETransformer m2(cfg, &b2, r2);
  std::vector<std::vector<std::size_t>> batch{{1, 2, 3, 4}};
  EXPECT_TRUE(ops::allclose(m1.forward_batch(batch).value(),
                            m2.forward_batch(batch).value()));
}

}  // namespace
}  // namespace vela
