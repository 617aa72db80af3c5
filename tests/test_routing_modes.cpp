// Routing-configuration coverage: top-1 (Switch-style) and top-E (dense
// mixture) routing through the full model, pre-training mode (trainable gate
// + auxiliary losses), and capacity factor inside a complete transformer.
#include <gtest/gtest.h>

#include <cmath>

#include "core/vela_system.h"
#include "model/transformer.h"
#include "moe/moe_block.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace vela {
namespace {

model::ModelConfig config_with_k(std::size_t top_k) {
  model::ModelConfig cfg = model::ModelConfig::tiny_test();
  cfg.top_k = top_k;
  return cfg;
}

class TopKSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TopKSweep, EndToEndTrainingWorksForAnyK) {
  const std::size_t k = GetParam();
  auto cfg = config_with_k(k);
  moe::LocalExpertBackend backend(cfg.num_layers, cfg.num_experts,
                                  cfg.model_dim, cfg.hidden_dim, cfg.lora, 3);
  Rng rng(7);
  model::MoETransformer model(cfg, &backend, rng);

  moe::RoutingStats stats(cfg.num_layers, cfg.num_experts);
  ag::Variable loss = model.loss_batch({{1, 2, 3, 4, 5}}, &stats);
  EXPECT_TRUE(std::isfinite(loss.value()[0]));
  // Each token selects exactly k experts.
  for (std::size_t l = 0; l < cfg.num_layers; ++l) {
    double total = 0.0;
    for (double f : stats.layer_frequencies(l)) total += f;
    EXPECT_NEAR(total, static_cast<double>(k), 1e-9);
  }
  EXPECT_NO_THROW(ag::backward(loss));
}

INSTANTIATE_TEST_SUITE_P(Ks, TopKSweep, ::testing::Values(1u, 2u, 3u, 4u));

TEST(RoutingModes, TopEEqualsWeightedDenseMixture) {
  // With k = E the combine is a full softmax mixture: weights per token sum
  // to 1 over all experts and every expert sees every token.
  auto cfg = config_with_k(4);  // tiny_test has E = 4
  moe::LocalExpertBackend backend(cfg.num_layers, cfg.num_experts,
                                  cfg.model_dim, cfg.hidden_dim,
                                  nn::LoRAConfig::disabled(), 5);
  Rng rng(9);
  moe::MoEBlock block("b", 0, cfg.model_dim, 4, 4, rng, &backend);
  Rng xr(11);
  ag::Variable x = ag::Variable::constant(ops::randn({6, cfg.model_dim}, xr));
  Tensor moe_out = block.forward(x).value();

  // Reference: explicit softmax-weighted sum of all expert outputs.
  const moe::GateOutput& gate_out = block.last_gate_output();
  Tensor expected({6, cfg.model_dim});
  for (std::size_t e = 0; e < 4; ++e) {
    Tensor ye = backend.expert(0, e).forward(x).value();
    for (std::size_t t = 0; t < 6; ++t) {
      for (std::size_t h = 0; h < cfg.model_dim; ++h) {
        expected.at(t, h) += gate_out.probs.at(t, e) * ye.at(t, h);
      }
    }
  }
  EXPECT_TRUE(ops::allclose(moe_out, expected, 1e-4f, 1e-3f));
}

TEST(RoutingModes, Top1SingleExpertPerToken) {
  auto cfg = config_with_k(1);
  moe::LocalExpertBackend backend(cfg.num_layers, cfg.num_experts,
                                  cfg.model_dim, cfg.hidden_dim,
                                  nn::LoRAConfig::disabled(), 5);
  Rng rng(13);
  moe::MoEBlock block("b", 0, cfg.model_dim, 4, 1, rng, &backend);
  Rng xr(15);
  ag::Variable x = ag::Variable::constant(ops::randn({8, cfg.model_dim}, xr));
  Tensor out = block.forward(x).value();
  const moe::RoutePlan& plan = block.last_plan();
  // Combine weight is exactly 1 (restricted softmax over one logit), so the
  // output row equals that expert's raw output.
  for (std::size_t e = 0; e < 4; ++e) {
    if (plan.expert_tokens[e].empty()) continue;
    Tensor ye = backend.expert(0, e).forward(x).value();
    for (std::size_t t : plan.expert_tokens[e]) {
      for (std::size_t h = 0; h < cfg.model_dim; ++h) {
        EXPECT_NEAR(out.at(t, h), ye.at(t, h), 1e-5f);
      }
    }
  }
}

TEST(RoutingModes, PretrainingModeBalancesFromScratch) {
  // §III pre-training: trainable gate + load-balance aux loss, starting from
  // random weights. After training, routing should be flatter than an
  // identical run WITHOUT the aux loss.
  const auto run = [](float aux_weight) {
    auto cfg = config_with_k(2);
    moe::LocalExpertBackend backend(cfg.num_layers, cfg.num_experts,
                                    cfg.model_dim, cfg.hidden_dim, cfg.lora,
                                    21);
    Rng rng(23);
    model::MoETransformer model(cfg, &backend, rng, /*trainable_gate=*/true);
    // Bias one expert so there is imbalance to correct.
    Tensor& w = model.block(0).gate().weight().mutable_value();
    for (std::size_t h = 0; h < cfg.model_dim; ++h) w.at(0, h) += 0.8f;

    auto params = model.trainable_parameters();
    for (const auto& p : backend.trainable_parameters()) params.push_back(p);
    nn::SGD sgd(params, 0.05f);
    data::SyntheticCorpus corpus(data::CorpusConfig::uniform(cfg.vocab, 4), 3);
    Rng data_rng(29);
    for (int step = 0; step < 40; ++step) {
      sgd.zero_grad();
      ag::backward(model.loss_batch(corpus.sample_batch(4, 8, data_rng),
                                    nullptr, aux_weight));
      sgd.step();
    }
    // Measure resulting block-0 imbalance on a probe batch.
    moe::RoutingStats stats(cfg.num_layers, cfg.num_experts);
    model.forward_batch(corpus.sample_batch(8, 8, data_rng), &stats);
    auto freq = stats.layer_frequencies(0);
    double mx = 0.0;
    for (double f : freq) mx = std::max(mx, f);
    return mx;
  };
  const double without_aux = run(0.0f);
  const double with_aux = run(0.5f);
  EXPECT_LE(with_aux, without_aux + 1e-9);
}

TEST(RoutingModes, CapacityFactorInsideFullModel) {
  auto cfg = config_with_k(2);
  moe::LocalExpertBackend backend(cfg.num_layers, cfg.num_experts,
                                  cfg.model_dim, cfg.hidden_dim, cfg.lora, 31);
  Rng rng(33);
  model::MoETransformer model(cfg, &backend, rng);
  for (std::size_t l = 0; l < cfg.num_layers; ++l) {
    model.block(l).gate().set_capacity_factor(1.0);
  }
  moe::RoutingStats stats(cfg.num_layers, cfg.num_experts);
  ag::Variable loss =
      model.loss_batch({{1, 2, 3, 4, 5, 6, 7, 8, 9}}, &stats);
  EXPECT_TRUE(std::isfinite(loss.value()[0]));
  // Cap = ceil(8·2/4) = 4 dispatch slots per expert (soft: the last token
  // of a tight assignment may overflow by one).
  for (std::size_t l = 0; l < cfg.num_layers; ++l) {
    for (std::size_t e = 0; e < cfg.num_experts; ++e) {
      EXPECT_LE(stats.count(l, e), 5u);
    }
  }
  EXPECT_NO_THROW(ag::backward(loss));
}

TEST(RoutingModes, DistributedTop1System) {
  // The whole distributed stack under top-1 routing.
  core::VelaSystemConfig cfg;
  cfg.model = config_with_k(1);
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.seed = 41;
  cfg.wire_dtype = comm::WireDtype::kFp32;
  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 43);
  core::VelaSystem vela(cfg, &corpus);
  auto batch = corpus.make_dataset(2, 6);
  auto report = vela.train_step(batch);
  EXPECT_TRUE(std::isfinite(report.loss));
  vela.profile(corpus.make_dataset(8, 6), 4);
  EXPECT_NO_THROW(vela.optimize_placement(2.0 * 5.0));
  EXPECT_TRUE(std::isfinite(vela.train_step(batch).loss));
}

}  // namespace
}  // namespace vela
