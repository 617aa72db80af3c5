#include "core/replanner.h"

#include <gtest/gtest.h>

#include "model/router_planting.h"
#include "moe/synthetic_router.h"
#include "placement/evaluator.h"
#include "placement/sequential.h"
#include "util/check.h"

namespace vela {
namespace {

model::ModelConfig shape() {
  model::ModelConfig cfg = model::ModelConfig::mixtral_8x7b_shape();
  cfg.num_layers = 8;  // keep the LP small for test speed
  return cfg;
}

// The paper's b = 16 (8192 B per Mixtral token row).
const comm::WireCodec kPaperWire{comm::WireDtype::kFp16Accounted};

cluster::ClusterTopology topo() {
  return cluster::ClusterTopology(cluster::ClusterConfig::paper_testbed());
}

moe::SyntheticRouter make_router(const moe::PlantedRouting* routing,
                                 double noise, std::uint64_t seed) {
  moe::SyntheticRouterConfig cfg;
  cfg.domain_dist.assign(routing->num_domains(), 1.0);
  cfg.domain_dist[0] = 6.0;
  cfg.routing_noise = noise;
  cfg.seed = seed;
  return moe::SyntheticRouter(routing, cfg);
}

TEST(Replanner, WindowedProbabilityMatchesObservedCounts) {
  auto cfg = shape();
  auto topology = topo();
  core::Replanner replanner({10, 4, 0.0, 1.34}, cfg, &topology, 256.0,
                            kPaperWire);
  auto routing = moe::PlantedRouting::generate(cfg.num_layers,
                                               cfg.num_experts, 8, 1.0, 1);
  auto router = make_router(&routing, 0.05, 2);
  for (int i = 0; i < 4; ++i) replanner.observe(router.sample_step(256));

  Tensor p = replanner.windowed_probability();
  for (std::size_t l = 0; l < cfg.num_layers; ++l) {
    float row = 0.0f;
    for (std::size_t e = 0; e < cfg.num_experts; ++e) row += p.at(l, e);
    EXPECT_NEAR(row, 2.0f, 1e-4f);  // top-2 routing
  }
}

float flat_sum(const Tensor& t) {
  float s = 0.0f;
  for (std::size_t i = 0; i < t.size(); ++i) s += t[i];
  return s;
}

TEST(Replanner, EmptyWindowGivesZeros) {
  auto cfg = shape();
  auto topology = topo();
  core::Replanner replanner({10, 4, 0.0, 1.34}, cfg, &topology, 256.0,
                            kPaperWire);
  Tensor p = replanner.windowed_probability();
  EXPECT_EQ(flat_sum(p), 0.0f);
}

TEST(Replanner, NoReplanBeforeWindowFull) {
  auto cfg = shape();
  auto topology = topo();
  core::Replanner replanner({2, 8, 0.0, 1.34}, cfg, &topology, 256.0,
                            kPaperWire);
  auto routing = moe::PlantedRouting::generate(cfg.num_layers,
                                               cfg.num_experts, 8, 1.0, 3);
  auto router = make_router(&routing, 0.05, 4);
  placement::Placement seq(cfg.num_layers, cfg.num_experts);
  for (std::size_t l = 0; l < cfg.num_layers; ++l) {
    for (std::size_t e = 0; e < cfg.num_experts; ++e) {
      seq.assign(l, e, e % topology.num_workers());
    }
  }
  for (int i = 0; i < 4; ++i) {
    replanner.observe(router.sample_step(128));
    EXPECT_FALSE(replanner.maybe_replan(seq).has_value())
        << "window not yet full at step " << i;
  }
}

TEST(Replanner, ReplansAwayFromSequentialUnderLocality) {
  auto cfg = shape();
  auto topology = topo();
  core::Replanner replanner({4, 4, 0.02, 1.34}, cfg, &topology, 256.0,
                            kPaperWire);
  auto routing = moe::PlantedRouting::generate(cfg.num_layers,
                                               cfg.num_experts, 8, 1.3, 5);
  auto router = make_router(&routing, 0.03, 6);
  placement::Placement seq(cfg.num_layers, cfg.num_experts);
  for (std::size_t l = 0; l < cfg.num_layers; ++l) {
    for (std::size_t e = 0; e < cfg.num_experts; ++e) {
      seq.assign(l, e, e % topology.num_workers());
    }
  }
  std::optional<placement::Placement> result;
  for (int i = 0; i < 4 && !result; ++i) {
    replanner.observe(router.sample_step(256));
    result = replanner.maybe_replan(seq);
  }
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(replanner.replans_proposed(), 0u);
}

TEST(Replanner, HysteresisKeepsGoodPlacement) {
  // A placement that is already (near-)optimal for the routing must not be
  // churned. The threshold must sit above the LP-rounding jitter (re-solves
  // of near-identical instances can land on vertices a few percent apart),
  // so use a comfortably large 15%.
  auto cfg = shape();
  auto topology = topo();
  core::Replanner replanner({4, 4, 0.15, 1.34}, cfg, &topology, 256.0,
                            kPaperWire);
  auto routing = moe::PlantedRouting::generate(cfg.num_layers,
                                               cfg.num_experts, 8, 1.3, 7);
  auto router = make_router(&routing, 0.03, 8);

  // Warm the window, take the replanner's own proposal...
  placement::Placement seq(cfg.num_layers, cfg.num_experts);
  for (std::size_t l = 0; l < cfg.num_layers; ++l) {
    for (std::size_t e = 0; e < cfg.num_experts; ++e) {
      seq.assign(l, e, e % topology.num_workers());
    }
  }
  std::optional<placement::Placement> proposal;
  for (int i = 0; i < 4 && !proposal; ++i) {
    replanner.observe(router.sample_step(256));
    proposal = replanner.maybe_replan(seq);
  }
  ASSERT_TRUE(proposal.has_value());
  // ...then keep observing the SAME distribution: no further re-plan.
  for (int i = 0; i < 8; ++i) {
    replanner.observe(router.sample_step(256));
    EXPECT_FALSE(replanner.maybe_replan(*proposal).has_value());
  }
}

TEST(Replanner, RejectsBadConfig) {
  auto cfg = shape();
  auto topology = topo();
  const auto make = [&](core::ReplanConfig rc, double tokens_per_step) {
    core::Replanner r(rc, cfg, &topology, tokens_per_step, kPaperWire);
  };
  EXPECT_THROW(make({0, 4, 0.0, 1.34}, 256.0), CheckError);
  EXPECT_THROW(make({4, 0, 0.0, 1.34}, 256.0), CheckError);
  EXPECT_THROW(make({4, 4, 0.0, 1.34}, 0.0), CheckError);
}

}  // namespace
}  // namespace vela
