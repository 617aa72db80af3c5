// Tests for the executable expert-parallelism baseline: numerical
// equivalence with a dense single-process run, replica lockstep, and traffic
// behaviour.
#include "ep/runtime.h"

#include <gtest/gtest.h>

#include <cmath>

#include "autograd/ops.h"
#include "moe/moe_block.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace vela {
namespace {

ep::EpRuntimeConfig small_config(std::size_t nodes = 2,
                                 std::size_t gpus = 1) {
  ep::EpRuntimeConfig cfg;
  cfg.model = model::ModelConfig::tiny_test();
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.cluster.num_nodes = nodes;
  cfg.cluster.gpus_per_node = gpus;
  cfg.seed = 77;
  cfg.wire_dtype = comm::WireDtype::kFp32;
  cfg.adamw.lr = 1e-3f;
  return cfg;
}

data::SyntheticCorpus corpus_for(const model::ModelConfig& m,
                                 std::uint64_t seed = 5) {
  return data::SyntheticCorpus(data::CorpusConfig::wikitext_like(m.vocab, 6),
                               seed);
}

// Dense single-process twin: same seeds, one AdamW over backbone + experts.
struct DenseTwin {
  DenseTwin(const ep::EpRuntimeConfig& cfg, const data::SyntheticCorpus& c)
      : backend(cfg.model.num_layers, cfg.model.num_experts,
                cfg.model.model_dim, cfg.model.hidden_dim, cfg.model.lora,
                cfg.seed),
        rng(cfg.seed),
        model(cfg.model, &backend, rng) {
    model::plant_locality(model, c, model::PlantingConfig{});
    auto params = model.trainable_parameters();
    for (const auto& p : backend.trainable_parameters()) params.push_back(p);
    optimizer = std::make_unique<nn::AdamW>(params, cfg.adamw);
  }

  float train_step(const std::vector<std::vector<std::size_t>>& batch) {
    optimizer->zero_grad();
    ag::Variable loss = model.loss_batch(batch);
    ag::backward(loss);
    optimizer->step();
    return loss.value()[0];
  }

  moe::LocalExpertBackend backend;
  Rng rng;
  model::MoETransformer model;
  std::unique_ptr<nn::AdamW> optimizer;
};

TEST(EpRuntime, InitialLossMatchesDense) {
  auto cfg = small_config();
  auto corpus = corpus_for(cfg.model, 11);
  ep::EpRuntime ep(cfg, &corpus);
  DenseTwin dense(cfg, corpus);
  auto batch = corpus.make_dataset(4, 8);  // 2 sequences per shard

  const float dense_loss = dense.model.loss_batch(batch).value()[0];
  const float ep_loss = ep.train_step(batch).loss;
  // The FIRST EP step's loss is the pre-update loss; must match dense
  // forward (mean over equal-size shards == global mean).
  EXPECT_NEAR(ep_loss, dense_loss, 1e-5f);
}

TEST(EpRuntime, TrainingTrajectoriesTrackDense) {
  auto cfg = small_config();
  auto corpus = corpus_for(cfg.model, 13);
  ep::EpRuntime ep(cfg, &corpus);
  DenseTwin dense(cfg, corpus);
  auto batch = corpus.make_dataset(4, 8);

  for (int step = 0; step < 4; ++step) {
    const float dense_loss = dense.train_step(batch);
    const float ep_loss = ep.train_step(batch).loss;
    EXPECT_NEAR(ep_loss, dense_loss, std::abs(dense_loss) * 1e-3f + 1e-4f)
        << "step " << step;
  }
}

TEST(EpRuntime, FourShardsAlsoTrack) {
  auto cfg = small_config(2, 2);  // 4 shards
  auto corpus = corpus_for(cfg.model, 17);
  ep::EpRuntime ep(cfg, &corpus);
  ASSERT_EQ(ep.num_shards(), 4u);
  DenseTwin dense(cfg, corpus);
  auto batch = corpus.make_dataset(4, 8);  // 1 sequence per shard
  for (int step = 0; step < 3; ++step) {
    const float dense_loss = dense.train_step(batch);
    const float ep_loss = ep.train_step(batch).loss;
    EXPECT_NEAR(ep_loss, dense_loss, std::abs(dense_loss) * 2e-3f + 2e-4f);
  }
}

TEST(EpRuntime, TrainingIsBitDeterministicAcrossRuns) {
  // Backward requests from different shard threads race into each expert
  // server's inbox; the server stages gradient deltas per source shard and
  // folds them in ascending source order, so the trajectory must be
  // bit-identical run to run regardless of thread scheduling.
  auto cfg = small_config(2, 2);  // 4 shards — ≥3 contributions per expert
  auto corpus = corpus_for(cfg.model, 19);
  auto batch = corpus.make_dataset(4, 8);

  std::vector<float> first;
  for (int run = 0; run < 2; ++run) {
    ep::EpRuntime ep(cfg, &corpus);
    std::vector<float> losses;
    for (int step = 0; step < 3; ++step) {
      losses.push_back(ep.train_step(batch).loss);
    }
    if (run == 0) {
      first = losses;
    } else {
      for (std::size_t i = 0; i < losses.size(); ++i) {
        EXPECT_EQ(first[i], losses[i]) << "step " << i;  // bit-exact
      }
    }
  }
}

TEST(EpRuntime, CrossNodeTrafficMeasuredAndAllReducePaid) {
  auto cfg = small_config();  // 2 nodes × 1 GPU
  auto corpus = corpus_for(cfg.model, 19);
  ep::EpRuntime ep(cfg, &corpus);
  auto batch = corpus.make_dataset(2, 8);
  auto report = ep.train_step(batch);
  // Shards sit on different nodes: expert all-to-all AND the gradient ring
  // both cross the boundary.
  EXPECT_GT(report.external_mb_per_node, 0.0);

  // Lower bound: the ring all-reduce alone moves 2·(N−1)/N·B bytes per
  // shard of backbone gradients (fp32).
  const std::size_t lora_params = [&] {
    moe::LocalExpertBackend backend(1, 1, cfg.model.model_dim,
                                    cfg.model.hidden_dim, cfg.model.lora, 1);
    Rng rng(cfg.seed);
    model::MoETransformer m(cfg.model, &backend, rng);
    return m.trainable_parameter_count();
  }();
  const double ring_bytes = 2.0 * (2.0 - 1.0) / 2.0 *
                            double(lora_params) * sizeof(float) * 2.0;
  EXPECT_GT(report.external_mb_per_node * 1e6 *
                static_cast<double>(ep.topology().num_nodes()),
            ring_bytes);
}

TEST(EpRuntime, SingleNodeHasNoExternalTraffic) {
  auto cfg = small_config(1, 2);  // both shards on one node
  auto corpus = corpus_for(cfg.model, 23);
  ep::EpRuntime ep(cfg, &corpus);
  auto batch = corpus.make_dataset(2, 8);
  EXPECT_DOUBLE_EQ(ep.train_step(batch).external_mb_per_node, 0.0);
}

TEST(EpRuntime, RejectsBadBatches) {
  auto cfg = small_config();
  auto corpus = corpus_for(cfg.model, 29);
  ep::EpRuntime ep(cfg, &corpus);
  // Not divisible by shard count.
  auto odd = corpus.make_dataset(3, 8);
  EXPECT_THROW(ep.train_step(odd), CheckError);
  // Ragged lengths.
  std::vector<std::vector<std::size_t>> ragged{{1, 2, 3, 4}, {1, 2, 3}};
  EXPECT_THROW(ep.train_step(ragged), CheckError);
}

TEST(EpRuntime, EvaluationThroughReplicaWorks) {
  auto cfg = small_config();
  auto corpus = corpus_for(cfg.model, 31);
  ep::EpRuntime ep(cfg, &corpus);
  auto batch = corpus.make_dataset(2, 8);
  const float before = ep.replica().loss_batch(batch).value()[0];
  EXPECT_TRUE(std::isfinite(before));
  // Forward-only evaluation must not poison subsequent training steps.
  auto report = ep.train_step(batch);
  EXPECT_TRUE(std::isfinite(report.loss));
}

TEST(EpRuntime, LossDecreasesOverSteps) {
  auto cfg = small_config();
  cfg.adamw.lr = 3e-3f;
  auto corpus = corpus_for(cfg.model, 37);
  ep::EpRuntime ep(cfg, &corpus);
  auto batch = corpus.make_dataset(4, 8);
  float first = 0.0f, last = 0.0f;
  for (int i = 0; i < 12; ++i) {
    const float loss = ep.train_step(batch).loss;
    if (i == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first);
}

}  // namespace
}  // namespace vela
