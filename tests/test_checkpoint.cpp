#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/vela_system.h"
#include "nn/expert.h"
#include "tensor/ops.h"
#include "util/check.h"
#include "temp_path.h"

namespace vela {
namespace {

using testutil::temp_path;

TEST(Checkpoint, NamedTensorRoundTrip) {
  core::NamedTensors tensors;
  Rng rng(1);
  tensors.emplace_back("alpha", ops::randn({7}, rng));
  tensors.emplace_back("beta", ops::randn({32}, rng));
  const std::string path = temp_path("roundtrip.ckpt");
  core::save_named_tensors(path, tensors);
  auto loaded = core::load_named_tensors(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].first, "alpha");
  EXPECT_TRUE(ops::allclose(loaded[0].second, tensors[0].second));
  EXPECT_TRUE(ops::allclose(loaded[1].second, tensors[1].second));
}

TEST(Checkpoint, RejectsGarbageFile) {
  const std::string path = temp_path("garbage.ckpt");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("this is not a checkpoint", f);
    std::fclose(f);
  }
  EXPECT_THROW(core::load_named_tensors(path), CheckError);
  EXPECT_THROW(core::load_named_tensors(temp_path("missing.ckpt")),
               CheckError);
}

TEST(Checkpoint, ModuleSnapshotRestore) {
  Rng rng(2);
  nn::SwiGLUExpert a("e", 8, 16, nn::LoRAConfig{2, 4.0f, true}, rng);
  for (auto& p : a.trainable_parameters()) p.var.mutable_value().fill(0.7f);
  auto snapshot = core::snapshot_trainable(a);

  Rng rng2(3);
  nn::SwiGLUExpert b("e", 8, 16, nn::LoRAConfig{2, 4.0f, true}, rng2);
  core::restore_trainable(snapshot, b);
  for (const auto& p : b.trainable_parameters()) {
    for (std::size_t i = 0; i < p.var.value().size(); ++i) {
      EXPECT_FLOAT_EQ(p.var.value()[i], 0.7f);
    }
  }
}

TEST(Checkpoint, RestoreRejectsUnknownOrMismatched) {
  Rng rng(4);
  nn::SwiGLUExpert module("e", 8, 16, nn::LoRAConfig{2, 4.0f, true}, rng);
  core::NamedTensors unknown{{"nonexistent", Tensor::ones({3})}};
  EXPECT_THROW(core::restore_trainable(unknown, module), CheckError);

  auto snapshot = core::snapshot_trainable(module);
  snapshot[0].second = Tensor::ones({1});  // wrong size
  EXPECT_THROW(core::restore_trainable(snapshot, module), CheckError);
}

TEST(Checkpoint, SystemRoundTripRestoresTraining) {
  core::VelaSystemConfig cfg;
  cfg.model = model::ModelConfig::tiny_test();
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.seed = 5;
  cfg.wire_dtype = comm::WireDtype::kFp32;
  cfg.adamw.lr = 1e-3f;
  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 6);
  core::VelaSystem vela(cfg, &corpus);
  auto batch = corpus.make_dataset(2, 6);

  // Train, checkpoint, train more, restore, and verify the loss returns to
  // the checkpointed value.
  for (int i = 0; i < 3; ++i) vela.train_step(batch);
  const std::string path = temp_path("system.ckpt");
  vela.save_checkpoint(path);
  const float loss_at_ckpt = vela.model().loss_batch(batch).value()[0];

  for (int i = 0; i < 3; ++i) vela.train_step(batch);
  const float loss_later = vela.model().loss_batch(batch).value()[0];
  EXPECT_NE(loss_later, loss_at_ckpt);

  vela.load_checkpoint(path);
  const float loss_restored = vela.model().loss_batch(batch).value()[0];
  EXPECT_FLOAT_EQ(loss_restored, loss_at_ckpt);
}

TEST(Checkpoint, SurvivesMigration) {
  // Checkpoint saved under one placement must load under another: states
  // are keyed by expert identity, not by hosting worker.
  core::VelaSystemConfig cfg;
  cfg.model = model::ModelConfig::tiny_test();
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.seed = 7;
  cfg.wire_dtype = comm::WireDtype::kFp32;
  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 8);
  core::VelaSystem vela(cfg, &corpus);
  auto batch = corpus.make_dataset(2, 6);
  vela.train_step(batch);

  const std::string path = temp_path("migrate.ckpt");
  vela.save_checkpoint(path);
  const float loss_at_ckpt = vela.model().loss_batch(batch).value()[0];

  // Move everything to worker 0, train (diverge), then restore.
  placement::Placement manual(cfg.model.num_layers, cfg.model.num_experts);
  for (std::size_t l = 0; l < cfg.model.num_layers; ++l) {
    for (std::size_t e = 0; e < cfg.model.num_experts; ++e) {
      manual.assign(l, e, 0);
    }
  }
  vela.set_placement(manual);
  vela.train_step(batch);
  vela.load_checkpoint(path);
  EXPECT_FLOAT_EQ(vela.model().loss_batch(batch).value()[0], loss_at_ckpt);
}

}  // namespace
}  // namespace vela
