// Cross-commit numerics pins: the exact float bit patterns of short
// fine-tunes through both runtimes' expert compute paths.
//
// The other EP tests compare run against run (determinism) or against a
// dense twin within a tolerance, and the golden CSVs print six decimals — a
// change in expert summation order would pass all of them. These constants
// were recorded from the runtimes as they stood and must not move: a
// refactor of the expert forward/backward/optimizer path that changes one
// low-order bit fails here. Every env-resolved knob is set explicitly, so
// the pins hold under any VELA_* environment the suite runs with (transport
// and thread count are bit-invariant by their own gates).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/vela_system.h"
#include "data/batch.h"
#include "data/corpus.h"
#include "ep/runtime.h"

namespace vela {
namespace {

constexpr int kSteps = 4;

std::vector<std::uint32_t> bits_of(const std::vector<float>& losses) {
  std::vector<std::uint32_t> out;
  out.reserve(losses.size());
  for (const float l : losses) out.push_back(std::bit_cast<std::uint32_t>(l));
  return out;
}

// 4 shards (2 nodes × 2 GPUs), the TrainingIsBitDeterministicAcrossRuns
// shape: every expert collects backward contributions from ≥3 sources.
std::vector<float> ep_losses(comm::WireDtype dtype) {
  ep::EpRuntimeConfig cfg;
  cfg.model = model::ModelConfig::tiny_test();
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.cluster.num_nodes = 2;
  cfg.cluster.gpus_per_node = 2;
  cfg.seed = 77;
  cfg.wire_dtype = dtype;
  cfg.q8_block = 64;
  cfg.adamw.lr = 1e-3f;
  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 19);
  ep::EpRuntime ep(cfg, &corpus);
  const auto batch = corpus.make_dataset(4, 8);
  std::vector<float> losses;
  for (int step = 0; step < kSteps; ++step) {
    losses.push_back(ep.train_step(batch).loss);
  }
  return losses;
}

std::vector<float> vela_losses(int overlap_chunks, long long expert_budget) {
  core::VelaSystemConfig cfg;
  cfg.model = model::ModelConfig::tiny_test();
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.seed = 13;
  cfg.wire_dtype = comm::WireDtype::kFp32;
  cfg.adamw.lr = 1e-3f;
  cfg.overlap_chunks = overlap_chunks;
  cfg.expert_budget = expert_budget;
  cfg.store_dtype = store::StoreDtype::kFp32;
  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 31);
  core::VelaSystem vela(cfg, &corpus);
  data::BatchIterator it(corpus.make_dataset(6, 8), 3, 4, /*shuffle=*/false);
  std::vector<float> losses;
  for (int step = 0; step < kSteps; ++step) {
    losses.push_back(vela.train_step(it.next()).loss);
  }
  return losses;
}

TEST(NumericsPin, EpFourShardsFp32) {
  EXPECT_EQ(bits_of(ep_losses(comm::WireDtype::kFp32)),
            (std::vector<std::uint32_t>{1084877661u, 1084581944u,
                                        1084282089u, 1083978422u}));
}

TEST(NumericsPin, EpFourShardsInt8) {
  EXPECT_EQ(bits_of(ep_losses(comm::WireDtype::kInt8)),
            (std::vector<std::uint32_t>{1084820531u, 1084530668u,
                                        1084230956u, 1083945684u}));
}

TEST(NumericsPin, VelaOverlapPipeline) {
  EXPECT_EQ(bits_of(vela_losses(/*overlap_chunks=*/4, /*expert_budget=*/0)),
            (std::vector<std::uint32_t>{1082879285u, 1082782738u,
                                        1082616844u, 1082555423u}));
}

TEST(NumericsPin, VelaOneSlotExpertStore) {
  EXPECT_EQ(bits_of(vela_losses(/*overlap_chunks=*/0, /*expert_budget=*/1)),
            (std::vector<std::uint32_t>{1082879285u, 1082782738u,
                                        1082616844u, 1082555423u}));
}

}  // namespace
}  // namespace vela
