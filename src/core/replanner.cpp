#include "core/replanner.h"

#include <algorithm>

#include "core/profiler.h"
#include "placement/evaluator.h"
#include "util/check.h"
#include "util/logging.h"

namespace vela::core {

Replanner::Replanner(ReplanConfig cfg, const model::ModelConfig& model,
                     const cluster::ClusterTopology* topology,
                     double tokens_per_step, const comm::WireCodec& codec)
    : cfg_(cfg),
      model_(model),
      topology_(topology),
      tokens_per_step_(tokens_per_step),
      codec_(codec) {
  VELA_CHECK(topology != nullptr);
  VELA_CHECK(cfg_.interval > 0 && cfg_.window > 0);
  VELA_CHECK(cfg_.min_improvement >= 0.0);
  VELA_CHECK(tokens_per_step > 0.0);
}

void Replanner::observe(const std::vector<moe::RoutePlan>& plans) {
  VELA_CHECK(plans.size() == model_.num_layers);
  std::vector<std::vector<std::uint64_t>> counts(
      model_.num_layers, std::vector<std::uint64_t>(model_.num_experts, 0));
  std::uint64_t tokens = 0;
  for (std::size_t l = 0; l < plans.size(); ++l) {
    VELA_CHECK(plans[l].num_experts == model_.num_experts);
    for (std::size_t e = 0; e < model_.num_experts; ++e) {
      counts[l][e] = plans[l].expert_tokens[e].size();
    }
    tokens = std::max<std::uint64_t>(tokens, plans[l].num_tokens);
  }
  window_counts_.push_back(std::move(counts));
  window_tokens_.push_back(tokens);
  if (window_counts_.size() > cfg_.window) {
    window_counts_.pop_front();
    window_tokens_.pop_front();
  }
  ++steps_;
}

Tensor Replanner::windowed_probability() const {
  Tensor p({model_.num_layers, model_.num_experts});
  std::uint64_t total_tokens = 0;
  for (std::uint64_t t : window_tokens_) total_tokens += t;
  if (total_tokens == 0) return p;
  for (const auto& step : window_counts_) {
    for (std::size_t l = 0; l < model_.num_layers; ++l) {
      for (std::size_t e = 0; e < model_.num_experts; ++e) {
        p.at(l, e) += static_cast<float>(step[l][e]);
      }
    }
  }
  p.scale_(1.0f / static_cast<float>(total_tokens));
  return p;
}

std::optional<placement::Placement> Replanner::maybe_replan(
    const placement::Placement& current) {
  if (steps_ == 0 || steps_ % cfg_.interval != 0) return std::nullopt;
  if (window_counts_.size() < cfg_.window) return std::nullopt;
  ++evaluations_;

  const Tensor p = windowed_probability();
  const placement::PlacementProblem problem = build_placement_problem(
      p, model_, *topology_, tokens_per_step_, cfg_.capacity_slack, codec_);
  placement::LocalityAwarePlacement strategy;
  placement::Placement candidate = strategy.place(problem);

  const double t_current = placement::expected_comm_seconds(problem, current);
  const double t_candidate =
      placement::expected_comm_seconds(problem, candidate);
  const double improvement = 1.0 - t_candidate / t_current;
  if (improvement < cfg_.min_improvement) {
    VELA_LOG_DEBUG("replanner")
        << "step " << steps_ << ": predicted gain "
        << improvement * 100.0 << "% below threshold, keeping placement";
    return std::nullopt;
  }
  ++proposals_;
  VELA_LOG_INFO("replanner") << "step " << steps_ << ": re-placing experts ("
                             << improvement * 100.0 << "% predicted gain)";
  return candidate;
}

}  // namespace vela::core
