// Integration tests for the trainer-side features: wire quantization,
// gradient accumulation and LR-schedule propagation to workers.
#include <gtest/gtest.h>

#include <cmath>

#include "core/vela_system.h"
#include "data/batch.h"
#include "moe/moe_block.h"
#include "nn/optimizer.h"
#include "nn/schedule.h"
#include "util/check.h"

namespace vela {
namespace {

core::VelaSystemConfig base_config() {
  core::VelaSystemConfig cfg;
  cfg.model = model::ModelConfig::tiny_test();
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.seed = 21;
  cfg.wire_dtype = comm::WireDtype::kFp32;
  return cfg;
}

data::SyntheticCorpus corpus_for(const model::ModelConfig& m,
                                 std::uint64_t seed = 5) {
  return data::SyntheticCorpus(data::CorpusConfig::wikitext_like(m.vocab, 6),
                               seed);
}

TEST(WireQuantization, HalfPrecisionTransportStaysCloseToExact) {
  auto exact_cfg = base_config();
  auto quant_cfg = base_config();
  quant_cfg.wire_dtype = comm::WireDtype::kFp16;

  auto corpus = corpus_for(exact_cfg.model);
  core::VelaSystem exact(exact_cfg, &corpus);
  core::VelaSystem quant(quant_cfg, &corpus);
  auto batch = corpus.make_dataset(3, 8);

  const float exact_loss = exact.model().loss_batch(batch).value()[0];
  const float quant_loss = quant.model().loss_batch(batch).value()[0];
  // fp16 rounding on features/outputs perturbs the loss only slightly.
  EXPECT_NE(exact_loss, quant_loss);
  EXPECT_NEAR(quant_loss, exact_loss, std::abs(exact_loss) * 5e-3f);
}

TEST(WireQuantization, ConvergencePreserved) {
  // The paper's claim: exchanging intermediate data at b=16 does not break
  // fine-tuning. Losses under quantized transport must track the exact run.
  auto exact_cfg = base_config();
  exact_cfg.adamw.lr = 1e-3f;
  auto quant_cfg = exact_cfg;
  quant_cfg.wire_dtype = comm::WireDtype::kFp16;

  auto corpus = corpus_for(exact_cfg.model, 11);
  core::VelaSystem exact(exact_cfg, &corpus);
  core::VelaSystem quant(quant_cfg, &corpus);
  auto batch = corpus.make_dataset(3, 8);

  float exact_final = 0.0f, quant_final = 0.0f, exact_first = 0.0f,
        quant_first = 0.0f;
  for (int i = 0; i < 10; ++i) {
    const float e = exact.train_step(batch).loss;
    const float q = quant.train_step(batch).loss;
    if (i == 0) {
      exact_first = e;
      quant_first = q;
    }
    exact_final = e;
    quant_final = q;
  }
  EXPECT_LT(exact_final, exact_first);
  EXPECT_LT(quant_final, quant_first);
  EXPECT_NEAR(quant_final, exact_final, std::abs(exact_final) * 0.02f);
}

TEST(GradAccumulation, EquivalentToLargeBatch) {
  // One step over {A, B} as a single batch must equal one accumulated step
  // over micro-batches {A} and {B} (same sequence lengths ⇒ the mean-CE of
  // the union is the mean of the two micro means).
  auto cfg = base_config();
  cfg.adamw.lr = 1e-3f;
  auto corpus = corpus_for(cfg.model, 13);
  auto data = corpus.make_dataset(4, 8);
  std::vector<std::vector<std::size_t>> micro_a{data[0], data[1]};
  std::vector<std::vector<std::size_t>> micro_b{data[2], data[3]};
  std::vector<std::vector<std::size_t>> full{data[0], data[1], data[2],
                                             data[3]};

  core::VelaSystem one_shot(cfg, &corpus);
  core::VelaSystem accumulated(cfg, &corpus);
  auto full_report = one_shot.train_step(full);
  auto accum_report = accumulated.train_step_accumulated({micro_a, micro_b});
  EXPECT_NEAR(accum_report.loss, full_report.loss, 1e-5f);

  // Post-step parameters must coincide (same gradients → same AdamW step).
  const float full_after = one_shot.model().loss_batch(full).value()[0];
  const float accum_after = accumulated.model().loss_batch(full).value()[0];
  EXPECT_NEAR(accum_after, full_after, std::abs(full_after) * 1e-4f);
}

TEST(GradAccumulation, RejectsEmpty) {
  auto cfg = base_config();
  auto corpus = corpus_for(cfg.model);
  core::VelaSystem vela(cfg, &corpus);
  EXPECT_THROW(vela.train_step_accumulated({}), CheckError);
}

TEST(LrSchedule, AppliedToBackboneAndWorkers) {
  auto cfg = base_config();
  auto corpus = corpus_for(cfg.model, 17);
  core::VelaSystem vela(cfg, &corpus);
  nn::WarmupCosineLr schedule(1e-2f, 2, 20, 1e-4f);
  vela.set_lr_schedule(&schedule);
  auto batch = corpus.make_dataset(2, 6);
  for (int i = 0; i < 3; ++i) vela.train_step(batch);
  // After 3 steps the system asked the schedule for steps 0..2; no crash
  // and training still progresses. (Worker-side application is covered by
  // the large-LR divergence check below.)
  SUCCEED();
}

TEST(LrSchedule, WorkerLrActuallyChangesUpdates) {
  // Two identical systems, same batches; one under a near-zero schedule.
  // The near-zero-LR system's loss must barely move while the other learns —
  // this fails if the scheduled LR never reaches the workers.
  auto cfg = base_config();
  cfg.adamw.lr = 5e-3f;
  auto corpus = corpus_for(cfg.model, 19);
  core::VelaSystem fast(cfg, &corpus);
  core::VelaSystem frozen(cfg, &corpus);
  nn::ConstantLr tiny(1e-9f);
  frozen.set_lr_schedule(&tiny);

  auto batch = corpus.make_dataset(3, 8);
  const float initial = fast.model().loss_batch(batch).value()[0];
  for (int i = 0; i < 8; ++i) {
    fast.train_step(batch);
    frozen.train_step(batch);
  }
  const float fast_after = fast.model().loss_batch(batch).value()[0];
  const float frozen_after = frozen.model().loss_batch(batch).value()[0];
  EXPECT_LT(fast_after, initial - 0.01f);
  EXPECT_NEAR(frozen_after, initial, 1e-3f);
}

TEST(DynamicReplacement, RunsInsideTrainingLoop) {
  auto cfg = base_config();
  auto corpus = corpus_for(cfg.model, 23);
  core::VelaSystem vela(cfg, &corpus);
  core::ReplanConfig rp;
  rp.interval = 2;
  rp.window = 2;
  rp.min_improvement = 0.0;  // always adopt the LP's proposal when due
  vela.enable_dynamic_replacement(rp, 2.0 * 5.0);

  data::BatchIterator batches(corpus.make_dataset(8, 6), 2, 3);
  for (int i = 0; i < 6; ++i) vela.train_step(batches.next());
  ASSERT_NE(vela.replanner(), nullptr);
  EXPECT_EQ(vela.replanner()->steps_observed(), 6u);
  EXPECT_GT(vela.replanner()->replans_evaluated(), 0u);
  // Training is still sound after migrations.
  EXPECT_TRUE(std::isfinite(vela.history().back().loss));
}

}  // namespace
}  // namespace vela
