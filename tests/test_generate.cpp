#include "model/generate.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/vela_system.h"
#include "moe/moe_block.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace vela {
namespace {

struct Fixture {
  Fixture()
      : cfg(model::ModelConfig::tiny_test()),
        backend(cfg.num_layers, cfg.num_experts, cfg.model_dim, cfg.hidden_dim,
                cfg.lora, 31),
        rng(33),
        model(cfg, &backend, rng) {}

  model::ModelConfig cfg;
  moe::LocalExpertBackend backend;
  Rng rng;
  model::MoETransformer model;
};

TEST(Generate, ProducesRequestedLengthInVocab) {
  Fixture f;
  Rng gen_rng(1);
  model::GenerateOptions options;
  options.max_new_tokens = 12;
  auto out = model::generate(f.model, {1, 2, 3}, options, gen_rng);
  ASSERT_EQ(out.size(), 3u + 12u);
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[2], 3u);
  for (std::size_t id : out) EXPECT_LT(id, f.cfg.vocab);
}

TEST(Generate, GreedyIsDeterministic) {
  Fixture f;
  Rng r1(1), r2(999);  // greedy ignores the rng
  model::GenerateOptions options;
  options.max_new_tokens = 8;
  EXPECT_EQ(model::generate(f.model, {5, 6}, options, r1),
            model::generate(f.model, {5, 6}, options, r2));
}

TEST(Generate, TemperatureSamplingVaries) {
  Fixture f;
  model::GenerateOptions options;
  options.max_new_tokens = 10;
  options.temperature = 2.0f;
  Rng r1(1), r2(2);
  auto a = model::generate(f.model, {5, 6}, options, r1);
  auto b = model::generate(f.model, {5, 6}, options, r2);
  EXPECT_NE(a, b);  // different sampling streams
  Rng r3(1);
  EXPECT_EQ(a, model::generate(f.model, {5, 6}, options, r3));  // same seed
}

TEST(Generate, TopKRestrictsSupport) {
  Fixture f;
  // With top_k = 1, temperature sampling degenerates to greedy.
  model::GenerateOptions greedy;
  greedy.max_new_tokens = 8;
  model::GenerateOptions topk1;
  topk1.max_new_tokens = 8;
  topk1.temperature = 1.5f;
  topk1.top_k = 1;
  Rng r1(1), r2(1);
  EXPECT_EQ(model::generate(f.model, {4}, greedy, r1),
            model::generate(f.model, {4}, topk1, r2));
}

TEST(Generate, RecordsRoutingStats) {
  Fixture f;
  moe::RoutingStats stats(f.cfg.num_layers, f.cfg.num_experts);
  Rng gen_rng(3);
  model::GenerateOptions options;
  options.max_new_tokens = 4;
  model::generate(f.model, {1, 2}, options, gen_rng, &stats);
  // 4 decoding passes over prefixes of length 2,3,4,5 = 14 tokens per block.
  EXPECT_EQ(stats.tokens_seen(0), 2u + 3u + 4u + 5u);
}

TEST(Generate, RejectsEmptyPrompt) {
  Fixture f;
  Rng gen_rng(1);
  EXPECT_THROW(model::generate(f.model, {}, {}, gen_rng), CheckError);
}

TEST(Generate, WorksThroughDistributedBroker) {
  core::VelaSystemConfig cfg;
  cfg.model = model::ModelConfig::tiny_test();
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.seed = 31;
  cfg.wire_dtype = comm::WireDtype::kFp32;
  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 3);
  core::VelaSystem vela(cfg, &corpus);

  // Dense twin with the same seeds: distributed generation must match.
  moe::LocalExpertBackend backend(cfg.model.num_layers, cfg.model.num_experts,
                                  cfg.model.model_dim, cfg.model.hidden_dim,
                                  cfg.model.lora, cfg.seed);
  Rng mr(cfg.seed);
  model::MoETransformer dense(cfg.model, &backend, mr);
  model::plant_locality(dense, corpus, model::PlantingConfig{});

  model::GenerateOptions options;
  options.max_new_tokens = 6;
  Rng r1(5), r2(5);
  const auto remote = model::generate(vela.model(), {7, 8, 9}, options, r1);
  const auto local = model::generate(dense, {7, 8, 9}, options, r2);
  EXPECT_EQ(remote, local);
}

}  // namespace
}  // namespace vela
