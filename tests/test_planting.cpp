#include "model/router_planting.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/profiler.h"
#include "moe/moe_block.h"
#include "util/check.h"
#include "util/stats.h"

namespace vela {
namespace {

TEST(PlantedRouting, GenerateShapesAndDistinctPairs) {
  auto routing = moe::PlantedRouting::generate(4, 6, 8, 1.0, 1);
  EXPECT_EQ(routing.num_layers(), 4u);
  EXPECT_EQ(routing.num_experts(), 6u);
  EXPECT_EQ(routing.num_domains(), 8u);
  for (std::size_t l = 0; l < 4; ++l) {
    for (std::size_t d = 0; d < 8; ++d) {
      auto [p, s] = routing.preference(l, d);
      EXPECT_LT(p, 6u);
      EXPECT_LT(s, 6u);
      EXPECT_NE(p, s);
    }
  }
}

TEST(PlantedRouting, DeterministicInSeed) {
  auto a = moe::PlantedRouting::generate(3, 4, 5, 1.0, 7);
  auto b = moe::PlantedRouting::generate(3, 4, 5, 1.0, 7);
  for (std::size_t l = 0; l < 3; ++l) {
    for (std::size_t d = 0; d < 5; ++d) {
      EXPECT_EQ(a.preference(l, d), b.preference(l, d));
    }
  }
}

TEST(PlantedRouting, HotExpertsVaryAcrossLayers) {
  auto routing = moe::PlantedRouting::generate(8, 8, 16, 1.2, 3);
  // Count each layer's most popular primary expert; they should not all be
  // the same expert id.
  std::vector<std::size_t> tops;
  for (std::size_t l = 0; l < 8; ++l) {
    std::vector<int> counts(8, 0);
    for (std::size_t d = 0; d < 16; ++d) {
      ++counts[routing.preference(l, d).first];
    }
    tops.push_back(static_cast<std::size_t>(
        std::max_element(counts.begin(), counts.end()) - counts.begin()));
  }
  std::sort(tops.begin(), tops.end());
  tops.erase(std::unique(tops.begin(), tops.end()), tops.end());
  EXPECT_GT(tops.size(), 1u);
}

TEST(PlantedRouting, ExpectedProbabilityRowsSumToTwo) {
  auto routing = moe::PlantedRouting::generate(3, 5, 6, 1.0, 2);
  std::vector<double> dist(6, 1.0 / 6.0);
  Tensor p = routing.expected_probability(dist);
  for (std::size_t l = 0; l < 3; ++l) {
    float row = 0.0f;
    for (std::size_t e = 0; e < 5; ++e) row += p.at(l, e);
    EXPECT_NEAR(row, 2.0f, 1e-5);
  }
}

TEST(PlantedRouting, SkewedDomainsYieldSkewedExperts) {
  auto routing = moe::PlantedRouting::generate(1, 6, 6, 1.5, 4);
  std::vector<double> dist{0.7, 0.1, 0.05, 0.05, 0.05, 0.05};
  Tensor p = routing.expected_probability(dist);
  float mx = 0.0f, mn = 1.0f;
  for (std::size_t e = 0; e < 6; ++e) {
    mx = std::max(mx, p.at(0, e));
    mn = std::min(mn, p.at(0, e));
  }
  EXPECT_GT(mx, 0.5f);
  EXPECT_LT(mn, 0.2f);
}

// End-to-end planting: a planted model must actually route according to the
// planted preferences — the empirical Fig. 3(a) phenomenon.
class PlantedModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_ = model::ModelConfig::tiny_test();
    cfg_.model_dim = 16;
    corpus_ = std::make_unique<data::SyntheticCorpus>(
        data::CorpusConfig::wikitext_like(cfg_.vocab, 6), 11);
    backend_ = std::make_unique<moe::LocalExpertBackend>(
        cfg_.num_layers, cfg_.num_experts, cfg_.model_dim, cfg_.hidden_dim,
        cfg_.lora, 5);
    Rng rng(13);
    model_ = std::make_unique<model::MoETransformer>(cfg_, backend_.get(), rng);
    // A confidently pre-trained router (the small test model has fewer
    // dims, so the domain signal needs a stronger gate to dominate).
    model::PlantingConfig planting;
    planting.gate_gain = 1.2f;
    routing_ = model::plant_locality(*model_, *corpus_, planting);
  }

  model::ModelConfig cfg_;
  std::unique_ptr<data::SyntheticCorpus> corpus_;
  std::unique_ptr<moe::LocalExpertBackend> backend_;
  std::unique_ptr<model::MoETransformer> model_;
  moe::PlantedRouting routing_;
};

TEST_F(PlantedModelTest, AccessFrequencyIsVisiblySkewed) {
  auto dataset = corpus_->make_dataset(24, 12);
  auto stats = core::profile_expert_access(*model_, dataset, 8);
  // In every layer the hottest expert must see clearly more traffic than
  // the coldest (Fig. 3(a) "disparity in access frequency").
  std::size_t skewed_layers = 0;
  for (std::size_t l = 0; l < cfg_.num_layers; ++l) {
    auto freq = stats.layer_frequencies(l);
    const double mx = *std::max_element(freq.begin(), freq.end());
    const double mn = *std::min_element(freq.begin(), freq.end());
    if (mx > 2.5 * std::max(mn, 1e-9) || mx > mn + 0.4) ++skewed_layers;
  }
  EXPECT_EQ(skewed_layers, cfg_.num_layers);
}

TEST_F(PlantedModelTest, ProfiledMatrixTracksAnalyticMatrix) {
  auto dataset = corpus_->make_dataset(48, 12);
  auto stats = core::profile_expert_access(*model_, dataset, 8);
  Tensor profiled = stats.probability_matrix();
  Tensor analytic = routing_.expected_probability(corpus_->domain_distribution());
  // Per-layer L1 distance between the two distributions must be modest; the
  // planted signal dominates but attention noise keeps them from matching
  // exactly.
  for (std::size_t l = 0; l < cfg_.num_layers; ++l) {
    double l1 = 0.0;
    for (std::size_t e = 0; e < cfg_.num_experts; ++e) {
      l1 += std::abs(double(profiled.at(l, e)) - double(analytic.at(l, e)));
    }
    EXPECT_LT(l1, 1.2) << "layer " << l;  // out of a max possible 4.0
  }
}

TEST_F(PlantedModelTest, RouterIsConfident) {
  // Fig. 3(b): the summed softmax score of the selected experts should be
  // far above the uninformative 2/E baseline for most tokens.
  auto dataset = corpus_->make_dataset(16, 12);
  auto stats = core::profile_expert_access(*model_, dataset, 8);
  const auto& sums = stats.score_sums(0);
  ASSERT_FALSE(sums.empty());
  std::size_t confident = 0;
  for (float s : sums) {
    if (s > 0.5f) ++confident;
  }
  EXPECT_GT(static_cast<double>(confident) / static_cast<double>(sums.size()),
            0.8);
}

TEST_F(PlantedModelTest, PlantingRequiresEnoughDims) {
  model::ModelConfig cfg = model::ModelConfig::tiny_test();
  cfg.model_dim = 4;
  moe::LocalExpertBackend backend(cfg.num_layers, cfg.num_experts,
                                  cfg.model_dim, cfg.hidden_dim, cfg.lora, 5);
  Rng rng(13);
  model::MoETransformer model(cfg, &backend, rng);
  data::SyntheticCorpus corpus(data::CorpusConfig::uniform(cfg.vocab, 6), 1);
  EXPECT_THROW(model::plant_locality(model, corpus, model::PlantingConfig{}),
               CheckError);
}

}  // namespace
}  // namespace vela
