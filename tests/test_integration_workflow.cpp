// End-to-end workflow tests: the complete paper pipeline and cross-cutting
// system properties that only show up when everything runs together.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "core/profiler.h"
#include "core/step_simulator.h"
#include "core/vela_system.h"
#include "data/batch.h"
#include "ep/expert_parallel.h"
#include "moe/trace.h"
#include "placement/evaluator.h"
#include "placement/sequential.h"
#include "util/check.h"
#include "util/stats.h"
#include "scoped_env.h"
#include "temp_path.h"

namespace vela {
namespace {

core::VelaSystemConfig small_config(std::uint64_t seed) {
  core::VelaSystemConfig cfg;
  cfg.model = model::ModelConfig::tiny_test();
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.seed = seed;
  cfg.wire_dtype = comm::WireDtype::kFp32;
  return cfg;
}

TEST(Workflow, FullPaperPipelineEndToEnd) {
  // profile → optimize → fine-tune → verify: loss falls AND traffic falls,
  // in one run, through the real distributed machinery.
  auto cfg = small_config(51);
  cfg.adamw.lr = 2e-3f;
  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 52);
  core::VelaSystem vela(cfg, &corpus);
  const auto dataset = corpus.make_dataset(24, 10);
  data::BatchIterator batches(dataset, 4, 53);

  RunningStat seq_traffic, vela_traffic, losses;
  for (int i = 0; i < 6; ++i) {
    auto r = vela.train_step(batches.next());
    seq_traffic.add(r.external_mb_per_node);
    losses.add(r.loss);
  }
  vela.profile(dataset, 4);
  vela.optimize_placement(4.0 * 9.0);
  float last_loss = 0.0f;
  for (int i = 0; i < 6; ++i) {
    auto r = vela.train_step(batches.next());
    vela_traffic.add(r.external_mb_per_node);
    last_loss = r.loss;
  }
  EXPECT_LT(vela_traffic.mean(), seq_traffic.mean());
  EXPECT_LT(last_loss, losses.max());
  EXPECT_TRUE(std::isfinite(last_loss));
}

TEST(Workflow, TwoSystemsRunConcurrently) {
  // Distinct VelaSystem instances must be fully isolated: run two on
  // separate threads and check both converge on their own data.
  auto run_one = [](std::uint64_t seed, float* final_loss) {
    auto cfg = small_config(seed);
    cfg.adamw.lr = 2e-3f;
    data::SyntheticCorpus corpus(
        data::CorpusConfig::alpaca_like(cfg.model.vocab, 6), seed + 1);
    core::VelaSystem vela(cfg, &corpus);
    auto batch = corpus.make_dataset(3, 8);
    float loss = 0.0f;
    for (int i = 0; i < 6; ++i) loss = vela.train_step(batch).loss;
    *final_loss = loss;
  };
  float loss_a = 0.0f, loss_b = 0.0f;
  std::thread ta(run_one, 60, &loss_a);
  std::thread tb(run_one, 61, &loss_b);
  ta.join();
  tb.join();
  EXPECT_TRUE(std::isfinite(loss_a));
  EXPECT_TRUE(std::isfinite(loss_b));
}

TEST(Workflow, TraceDrivenPlacementPipeline) {
  // Record routing from a live fine-tuning run, aggregate the trace into P,
  // and solve the placement offline — the "production traces" path.
  auto cfg = small_config(70);
  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 71);
  core::VelaSystem vela(cfg, &corpus);
  auto batch = corpus.make_dataset(4, 8);

  moe::RoutingTrace trace;
  for (int i = 0; i < 5; ++i) {
    vela.train_step(batch);
    trace.push_back(vela.model().last_plans());
  }
  const std::string path = testutil::temp_path("workflow.trace");
  moe::save_routing_trace(path, trace);

  // Offline: load, build the problem, place, serialize the placement.
  const auto loaded = moe::load_routing_trace(path);
  const Tensor p = moe::trace_probability(loaded);
  const auto problem = core::build_placement_problem(
      p, cfg.model, vela.topology(), 4.0 * 7.0, 1.34);
  placement::LocalityAwarePlacement strategy;
  const auto offline = strategy.place(problem);
  const std::string wire = offline.serialize();
  const auto restored = placement::Placement::deserialize(wire);

  // Online: install the offline placement and keep training.
  vela.set_placement(restored);
  auto report = vela.train_step(batch);
  EXPECT_TRUE(std::isfinite(report.loss));
  EXPECT_LE(placement::expected_comm_seconds(problem, restored),
            placement::expected_comm_seconds(
                problem, placement::SequentialPlacement{}.place(problem)) +
                1e-12);
}

TEST(Workflow, PlacementProblemTakesBFromTheCodec) {
  const model::ModelConfig shape = model::ModelConfig::mixtral_8x7b_shape();
  const cluster::ClusterTopology topology(
      cluster::ClusterConfig::paper_testbed());
  Tensor p({shape.num_layers, shape.num_experts});
  p.fill(0.25f);
  const comm::WireCodec int8{comm::WireDtype::kInt8, 32};
  const auto problem = core::build_placement_problem(
      p, shape, topology, 2048.0, 1.34, int8);
  EXPECT_EQ(problem.bytes_per_token,
            static_cast<double>(int8.row_bytes(shape.model_dim)));
  EXPECT_EQ(problem.bytes_per_token, 4096.0 + 4.0 * 4096.0 / 32.0);
  // Without a codec the builder prices what a default-config VelaSystem
  // resolves: the paper's b = 16.
  testutil::ScopedEnv unset("VELA_WIRE_DTYPE", nullptr);
  EXPECT_EQ(core::build_placement_problem(p, shape, topology, 2048.0, 1.34)
                .bytes_per_token,
            2.0 * 4096.0);
}

TEST(Workflow, PlacementSerializationRoundTrip) {
  placement::Placement p(2, 3);
  for (std::size_t l = 0; l < 2; ++l) {
    for (std::size_t e = 0; e < 3; ++e) p.assign(l, e, (l + e) % 4);
  }
  auto restored = placement::Placement::deserialize(p.serialize());
  EXPECT_EQ(restored.to_string(), p.to_string());
  EXPECT_THROW(placement::Placement::deserialize("2 3\n0 1"), CheckError);
  EXPECT_THROW(placement::Placement::deserialize("garbage"), CheckError);
  placement::Placement partial(1, 2);
  partial.assign(0, 0, 1);
  EXPECT_THROW(partial.serialize(), CheckError);
}

TEST(Workflow, EpAndVelaAccountSameRoutingConsistently) {
  // With every expert forced onto the master-node worker, VELA's external
  // traffic is zero while EP — input-sharded across all six devices — still
  // pays cross-node dispatches: the architectural difference in one assert.
  cluster::ClusterTopology topology(cluster::ClusterConfig::paper_testbed());
  moe::RoutePlan plan;
  plan.num_tokens = 12;
  plan.num_experts = 4;
  plan.top_k = 1;
  plan.expert_tokens.assign(4, {});
  for (std::size_t t = 0; t < 12; ++t) {
    plan.expert_tokens[t % 4].push_back(t);
  }
  placement::Placement local(1, 4);
  for (std::size_t e = 0; e < 4; ++e) local.assign(0, e, 0);

  core::VelaTrafficModel vela_model(&topology, {128, 0});
  ep::ExpertParallelModel ep_model(&topology, {128, 0, 0});
  EXPECT_EQ(vela_model.external_bytes(
                vela_model.account_step({plan}, local)),
            0u);
  EXPECT_GT(ep_model.external_bytes(ep_model.account_step({plan})), 0u);
}

}  // namespace
}  // namespace vela
