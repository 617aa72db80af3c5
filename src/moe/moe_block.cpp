#include "moe/moe_block.h"

#include <numeric>

#include "util/check.h"

namespace vela::moe {

LocalExpertBackend::LocalExpertBackend(std::size_t num_layers,
                                       std::size_t num_experts,
                                       std::size_t model_dim,
                                       std::size_t hidden_dim,
                                       const nn::LoRAConfig& lora,
                                       std::uint64_t base_seed)
    : layers_(num_layers), experts_per_layer_(num_experts) {
  experts_.reserve(layers_ * experts_per_layer_);
  for (std::size_t l = 0; l < layers_; ++l) {
    for (std::size_t e = 0; e < experts_per_layer_; ++e) {
      auto name =
          "layer" + std::to_string(l) + ".expert" + std::to_string(e);
      Rng rng(nn::expert_seed(base_seed, l, e));
      experts_.push_back(std::make_unique<nn::SwiGLUExpert>(
          name, model_dim, hidden_dim, lora, rng));
      register_module(name, experts_.back().get());
    }
  }
}

ag::Variable ExpertBackend::expert_forward(std::size_t layer,
                                           std::size_t expert,
                                           const ag::Variable& xs) {
  std::vector<std::vector<std::size_t>> tokens(expert + 1);
  tokens[expert].resize(xs.value().rows());
  std::iota(tokens[expert].begin(), tokens[expert].end(), std::size_t{0});
  return experts_forward(layer, xs, tokens).at(0);
}

std::vector<ag::Variable> LocalExpertBackend::experts_forward(
    std::size_t layer, const ag::Variable& x,
    const std::vector<std::vector<std::size_t>>& expert_tokens) {
  std::vector<ag::Variable> out;
  for (std::size_t e = 0; e < expert_tokens.size(); ++e) {
    if (expert_tokens[e].empty()) continue;
    out.push_back(
        expert(layer, e).forward(ag::gather_rows(x, expert_tokens[e])));
  }
  return out;
}

nn::SwiGLUExpert& LocalExpertBackend::expert(std::size_t layer,
                                             std::size_t e) {
  VELA_CHECK(layer < layers_ && e < experts_per_layer_);
  return *experts_[layer * experts_per_layer_ + e];
}

MoEBlock::MoEBlock(std::string name, std::size_t layer_index,
                   std::size_t model_dim, std::size_t num_experts,
                   std::size_t top_k, Rng& rng, ExpertBackend* backend,
                   bool trainable_gate)
    : layer_(layer_index), backend_(backend) {
  VELA_CHECK(backend != nullptr);
  gate_ = std::make_unique<TopKGate>(name + ".gate", model_dim, num_experts,
                                     top_k, rng, trainable_gate);
  register_module("gate", gate_.get());
}

ag::Variable MoEBlock::forward(const ag::Variable& x, RoutingStats* stats) {
  last_gate_output_ = gate_->forward(x);
  const GateOutput& gate_out = last_gate_output_;
  const RoutePlan& plan = gate_out.plan;
  if (stats != nullptr) {
    stats->record(layer_, plan);
    stats->record_score_sums(layer_, gate_out.selected_score_sums);
  }

  const std::size_t n = plan.num_tokens;

  // Dispatch: hand the whole block to the backend at once so a distributed
  // backend can overlap workers, in forward and in backward.
  const std::vector<ag::Variable> outputs =
      backend_->experts_forward(layer_, x, plan.expert_tokens);

  // Combine: weight each expert output by its (differentiable) gate share
  // and scatter back to token positions (Eq. (1)).
  ag::Variable result;
  std::size_t offset = 0, gi = 0;
  for (std::size_t e = 0; e < plan.num_experts; ++e) {
    const auto& tokens = plan.expert_tokens[e];
    if (tokens.empty()) continue;
    ag::Variable w =
        ag::slice_vec(gate_out.combine_weights, offset, tokens.size());
    ag::Variable contribution =
        ag::scatter_rows(ag::scale_rows(outputs.at(gi), w), tokens, n);
    result = result.defined() ? ag::add(result, contribution) : contribution;
    offset += tokens.size();
    ++gi;
  }
  VELA_CHECK(gi == outputs.size());
  VELA_CHECK_MSG(result.defined(), "MoE block produced no expert output");
  return result;
}

}  // namespace vela::moe
