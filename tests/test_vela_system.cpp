#include "core/vela_system.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/batch.h"
#include "placement/sequential.h"
#include "util/check.h"

namespace vela {
namespace {

core::VelaSystemConfig small_config() {
  core::VelaSystemConfig cfg;
  cfg.model = model::ModelConfig::tiny_test();
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.seed = 3;
  cfg.wire_dtype = comm::WireDtype::kFp32;
  cfg.clock.compute_seconds = 0.5;
  return cfg;
}

data::SyntheticCorpus small_corpus(const model::ModelConfig& m) {
  return data::SyntheticCorpus(data::CorpusConfig::wikitext_like(m.vocab, 6),
                               17);
}

TEST(VelaSystem, ConstructsAndTrainsOneStep) {
  auto cfg = small_config();
  auto corpus = small_corpus(cfg.model);
  core::VelaSystem vela(cfg, &corpus);
  auto batch = corpus.make_dataset(2, 6);
  auto report = vela.train_step(batch);
  EXPECT_TRUE(std::isfinite(report.loss));
  EXPECT_GT(report.loss, 0.0f);
  EXPECT_GT(report.external_mb_per_node, 0.0);
  EXPECT_GT(report.comm_seconds, 0.0);
  EXPECT_NEAR(report.step_seconds, report.comm_seconds + 0.5, 1e-9);
  EXPECT_EQ(vela.steps_taken(), 1u);
}

TEST(VelaSystem, LossDecreasesOverRepeatedSteps) {
  auto cfg = small_config();
  cfg.adamw.lr = 3e-3f;  // faster learning for a short test
  auto corpus = small_corpus(cfg.model);
  core::VelaSystem vela(cfg, &corpus);
  auto batch = corpus.make_dataset(2, 8);
  float first = 0.0f, last = 0.0f;
  for (int i = 0; i < 15; ++i) {
    auto report = vela.train_step(batch);
    if (i == 0) first = report.loss;
    last = report.loss;
  }
  EXPECT_LT(last, first);
}

TEST(VelaSystem, ProfileThenOptimizeReducesExternalTraffic) {
  auto cfg = small_config();
  auto corpus = small_corpus(cfg.model);
  core::VelaSystem vela(cfg, &corpus);
  auto dataset = corpus.make_dataset(16, 8);

  // Baseline: a few steps under the initial sequential placement.
  data::BatchIterator it(dataset, 4, 5);
  double seq_traffic = 0.0;
  const int kSteps = 4;
  for (int i = 0; i < kSteps; ++i) {
    seq_traffic += vela.train_step(it.next()).external_mb_per_node;
  }

  // Profile → optimize placement → same number of steps.
  vela.profile(dataset, 4);
  EXPECT_TRUE(vela.profiled_stats().has_value());
  vela.optimize_placement(/*tokens_per_step=*/4.0 * 7.0);
  EXPECT_EQ(vela.placement_report().lp_status, lp::LpStatus::kOptimal);

  double vela_traffic = 0.0;
  for (int i = 0; i < kSteps; ++i) {
    vela_traffic += vela.train_step(it.next()).external_mb_per_node;
  }
  EXPECT_LT(vela_traffic, seq_traffic);
}

TEST(VelaSystem, OptimizeWithoutProfileThrows) {
  auto cfg = small_config();
  auto corpus = small_corpus(cfg.model);
  core::VelaSystem vela(cfg, &corpus);
  EXPECT_THROW(vela.optimize_placement(64.0), CheckError);
}

TEST(VelaSystem, SetPlacementInstallsBaseline) {
  auto cfg = small_config();
  auto corpus = small_corpus(cfg.model);
  core::VelaSystem vela(cfg, &corpus);
  placement::Placement manual(cfg.model.num_layers, cfg.model.num_experts);
  for (std::size_t l = 0; l < cfg.model.num_layers; ++l) {
    for (std::size_t e = 0; e < cfg.model.num_experts; ++e) {
      manual.assign(l, e, 0);  // everything on the master-node worker
    }
  }
  vela.set_placement(manual);
  auto batch = corpus.make_dataset(2, 6);
  auto report = vela.train_step(batch);
  // All experts co-located with the master: the only cross-node traffic
  // left is the end-of-step optimizer broadcast — one header-only round
  // trip for each of the 4 off-node workers.
  const double control_mb =
      4.0 * 2.0 * comm::Message::kHeaderBytes / 1e6 / 3.0;
  EXPECT_NEAR(report.external_mb_per_node, control_mb, 1e-12);
}

TEST(VelaSystem, HistoryAccumulates) {
  auto cfg = small_config();
  auto corpus = small_corpus(cfg.model);
  core::VelaSystem vela(cfg, &corpus);
  auto batch = corpus.make_dataset(2, 6);
  vela.train_step(batch);
  vela.train_step(batch);
  EXPECT_EQ(vela.history().size(), 2u);
  EXPECT_EQ(vela.history()[1].step, 1u);
}

TEST(VelaSystem, ProfiledFrequenciesSumToTopK) {
  auto cfg = small_config();
  auto corpus = small_corpus(cfg.model);
  core::VelaSystem vela(cfg, &corpus);
  const auto& stats = vela.profile(corpus.make_dataset(8, 8), 4);
  for (std::size_t l = 0; l < cfg.model.num_layers; ++l) {
    double total = 0.0;
    for (double f : stats.layer_frequencies(l)) total += f;
    EXPECT_NEAR(total, static_cast<double>(cfg.model.top_k), 1e-9);
  }
}

}  // namespace
}  // namespace vela
