// The load-bearing integration tests: the distributed VELA system must be
// numerically equivalent to a single-process dense run (the paper's claim
// that VELA "maintains identical computation logic to single-device
// fine-tuning"), and the analytic traffic model must reproduce the measured
// byte counts exactly.
#include <gtest/gtest.h>

#include <cmath>

#include "core/step_simulator.h"
#include "core/vela_system.h"
#include "data/batch.h"
#include "moe/moe_block.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace vela {
namespace {

constexpr std::uint64_t kSeed = 9;

core::VelaSystemConfig system_config() {
  core::VelaSystemConfig cfg;
  cfg.model = model::ModelConfig::tiny_test();
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.seed = kSeed;
  cfg.wire_dtype = comm::WireDtype::kFp32;  // exact transport for bit-equivalence
  return cfg;
}

// A single-process twin of VelaSystem: same seeds, dense local experts, one
// AdamW over backbone + expert adapters (AdamW state is per-parameter, so
// one optimizer over the union is mathematically identical to VELA's split
// master/worker optimizers).
struct DenseTwin {
  explicit DenseTwin(const core::VelaSystemConfig& cfg,
                     const data::SyntheticCorpus& corpus)
      : backend(cfg.model.num_layers, cfg.model.num_experts,
                cfg.model.model_dim, cfg.model.hidden_dim, cfg.model.lora,
                cfg.seed),
        rng(cfg.seed),
        model(cfg.model, &backend, rng) {
    model::plant_locality(model, corpus, model::PlantingConfig{});
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

TEST(Equivalence, InitialLossMatchesDenseTwin) {
  auto cfg = system_config();
  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 31);
  core::VelaSystem vela(cfg, &corpus);
  DenseTwin dense(cfg, corpus);

  auto batch = corpus.make_dataset(3, 6);
  const float dense_loss = dense.model.loss_batch(batch).value()[0];
  const float vela_loss = vela.model().loss_batch(batch).value()[0];
  EXPECT_NEAR(vela_loss, dense_loss, 1e-5f);
}

TEST(Equivalence, TrainingTrajectoriesTrack) {
  auto cfg = system_config();
  cfg.adamw.lr = 1e-3f;
  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 33);
  core::VelaSystem vela(cfg, &corpus);
  DenseTwin dense(cfg, corpus);

  data::BatchIterator it(corpus.make_dataset(6, 8), 3, 4,
                         /*shuffle=*/false);
  for (int step = 0; step < 4; ++step) {
    auto batch = it.next();
    const float dense_loss = dense.train_step(batch);
    const float vela_loss = vela.train_step(batch).loss;
    EXPECT_NEAR(vela_loss, dense_loss,
                std::abs(dense_loss) * 1e-3f + 1e-4f)
        << "step " << step;
  }
}

TEST(Equivalence, TrajectoriesTrackAcrossMigration) {
  auto cfg = system_config();
  cfg.adamw.lr = 1e-3f;
  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 35);
  core::VelaSystem vela(cfg, &corpus);
  DenseTwin dense(cfg, corpus);

  data::BatchIterator it(corpus.make_dataset(6, 8), 3, 4, /*shuffle=*/false);
  auto warm = it.next();
  // Profile + optimized placement BEFORE any optimizer state accrues — the
  // migration path that the paper's workflow uses.
  vela.profile(corpus.make_dataset(6, 8), 3);
  vela.optimize_placement(3.0 * 7.0);
  for (int step = 0; step < 3; ++step) {
    auto batch = it.next();
    const float dense_loss = dense.train_step(batch);
    const float vela_loss = vela.train_step(batch).loss;
    EXPECT_NEAR(vela_loss, dense_loss, std::abs(dense_loss) * 1e-3f + 1e-4f);
  }
}

// Every dispatch codec: the analytic model charges b from the same codec the
// live broker stamps its messages with, so its bytes are the measured bytes.
constexpr comm::WireDtype kAllDtypes[] = {
    comm::WireDtype::kFp32, comm::WireDtype::kFp16Accounted,
    comm::WireDtype::kFp16, comm::WireDtype::kInt8};

core::VelaTrafficModel traffic_model_of(core::VelaSystem& vela) {
  return core::VelaTrafficModel(
      &vela.topology(), {vela.master().broker().codec().row_bytes(
                            vela.model().config().model_dim)});
}

TEST(Equivalence, TrafficModelReproducesMeasuredBytesExactly) {
  for (const comm::WireDtype dtype : kAllDtypes) {
    SCOPED_TRACE(comm::wire_dtype_name(dtype));
    auto cfg = system_config();
    cfg.wire_dtype = dtype;
    data::SyntheticCorpus corpus(
        data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 37);
    core::VelaSystem vela(cfg, &corpus);
    auto batch = corpus.make_dataset(4, 8);

    const std::uint64_t external_before =
        vela.master().meter().lifetime_external_bytes();
    vela.train_step(batch);
    const std::uint64_t measured =
        vela.master().meter().lifetime_external_bytes() - external_before;

    const core::VelaTrafficModel traffic = traffic_model_of(vela);
    const std::uint64_t simulated = traffic.external_bytes(
        traffic.account_step(vela.model().last_plans(),
                             vela.master().placement()));

    // The only traffic the analytic model does not account for is the
    // end-of-step optimizer broadcast: one header-only round trip per
    // cross-node worker (4 of the 6 workers in the paper testbed).
    const std::uint64_t control = 4u * 2u * comm::Message::kHeaderBytes;
    EXPECT_EQ(measured, simulated + control);
  }
}

TEST(Equivalence, StepRecordMatchesTrafficModelPhases) {
  for (const comm::WireDtype dtype : kAllDtypes) {
    SCOPED_TRACE(comm::wire_dtype_name(dtype));
    auto cfg = system_config();
    cfg.wire_dtype = dtype;
    data::SyntheticCorpus corpus(
        data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 39);
    core::VelaSystem vela(cfg, &corpus);
    auto batch = corpus.make_dataset(4, 8);

    vela.master().broker().begin_step();
    ag::Variable loss = vela.model().loss_batch(batch);
    ag::backward(loss);
    auto live = vela.master().broker().finish_step();

    auto simulated = traffic_model_of(vela).account_step(
        vela.model().last_plans(), vela.master().placement());

    ASSERT_EQ(live.phases.size(), simulated.phases.size());
    for (std::size_t i = 0; i < live.phases.size(); ++i) {
      for (std::size_t w = 0; w < live.phases[i].bytes.size(); ++w) {
        EXPECT_EQ(live.phases[i].bytes[w], simulated.phases[i].bytes[w])
            << "phase " << i << " worker " << w;
      }
    }
  }
}

}  // namespace
}  // namespace vela
