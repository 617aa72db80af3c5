#include "moe/trace.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>

#include "model/router_planting.h"
#include "moe/synthetic_router.h"
#include "tensor/ops.h"
#include "util/check.h"
#include "temp_path.h"

namespace vela {
namespace {

using testutil::temp_path;

moe::RoutingTrace sample_trace(std::size_t steps, std::size_t tokens = 32) {
  auto routing = moe::PlantedRouting::generate(3, 6, 8, 1.1, 5);
  moe::SyntheticRouterConfig cfg;
  cfg.domain_dist.assign(8, 1.0);
  cfg.domain_dist[0] = 4.0;
  cfg.routing_noise = 0.1;
  cfg.seed = 9;
  moe::SyntheticRouter router(&routing, cfg);
  moe::RoutingTrace trace;
  for (std::size_t s = 0; s < steps; ++s) {
    trace.push_back(router.sample_step(tokens));
  }
  return trace;
}

TEST(Trace, SaveLoadRoundTrip) {
  const auto trace = sample_trace(4);
  const std::string path = temp_path("routing.trace");
  moe::save_routing_trace(path, trace);
  const auto loaded = moe::load_routing_trace(path);
  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t s = 0; s < trace.size(); ++s) {
    ASSERT_EQ(loaded[s].size(), trace[s].size());
    for (std::size_t l = 0; l < trace[s].size(); ++l) {
      EXPECT_EQ(loaded[s][l].num_tokens, trace[s][l].num_tokens);
      EXPECT_EQ(loaded[s][l].top_k, trace[s][l].top_k);
      EXPECT_EQ(loaded[s][l].expert_tokens, trace[s][l].expert_tokens);
    }
  }
}

TEST(Trace, LoadedPlansAreValid) {
  const auto trace = sample_trace(2);
  const std::string path = temp_path("valid.trace");
  moe::save_routing_trace(path, trace);
  for (const auto& step : moe::load_routing_trace(path)) {
    for (const auto& plan : step) EXPECT_NO_THROW(plan.validate());
  }
}

TEST(Trace, RejectsGarbage) {
  const std::string path = temp_path("junk.trace");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("not a trace at all, sorry", f);
    std::fclose(f);
  }
  EXPECT_THROW(moe::load_routing_trace(path), CheckError);
  EXPECT_THROW(moe::load_routing_trace(temp_path("nope.trace")), CheckError);
}

TEST(Trace, TruncationDetected) {
  const auto trace = sample_trace(2);
  const std::string path = temp_path("trunc.trace");
  moe::save_routing_trace(path, trace);
  // Truncate the file.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_GT(size, 64);
  EXPECT_EQ(truncate(path.c_str(), size / 2), 0);
  EXPECT_THROW(moe::load_routing_trace(path), CheckError);
}

TEST(TraceRouter, ReplaysInOrderAndWraps) {
  const auto trace = sample_trace(3);
  moe::TraceRouter router(trace);
  EXPECT_EQ(router.num_steps(), 3u);
  const auto& s0 = router.next_step();
  EXPECT_EQ(s0[0].expert_tokens, trace[0][0].expert_tokens);
  router.next_step();
  router.next_step();
  // Wrap-around.
  const auto& again = router.next_step();
  EXPECT_EQ(again[0].expert_tokens, trace[0][0].expert_tokens);
  EXPECT_EQ(router.steps_replayed(), 4u);
}

TEST(TraceRouter, RejectsEmptyTrace) {
  EXPECT_THROW(moe::TraceRouter(moe::RoutingTrace{}), CheckError);
}

TEST(Trace, ProbabilityMatchesManualAggregation) {
  const auto trace = sample_trace(5, 64);
  Tensor p = moe::trace_probability(trace);
  EXPECT_EQ(p.rows(), 3u);
  EXPECT_EQ(p.cols(), 6u);
  // Rows sum to top-k = 2.
  for (std::size_t l = 0; l < 3; ++l) {
    float row = 0.0f;
    for (std::size_t e = 0; e < 6; ++e) row += p.at(l, e);
    EXPECT_NEAR(row, 2.0f, 1e-4f);
  }
  // Spot-check one cell against a manual count.
  std::uint64_t count = 0, tokens = 0;
  for (const auto& step : trace) {
    count += step[1].expert_tokens[2].size();
    tokens += step[1].num_tokens;
  }
  EXPECT_NEAR(p.at(1, 2), float(count) / float(tokens), 1e-6f);
}

}  // namespace
}  // namespace vela
