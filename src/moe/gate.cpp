#include "moe/gate.h"

#include <cmath>
#include <limits>

#include "tensor/ops.h"
#include "util/check.h"

namespace vela::moe {

std::size_t RoutePlan::group_offset(std::size_t e) const {
  VELA_CHECK(e < expert_tokens.size());
  std::size_t off = 0;
  for (std::size_t i = 0; i < e; ++i) off += expert_tokens[i].size();
  return off;
}

std::size_t RoutePlan::total_assignments() const {
  std::size_t total = 0;
  for (const auto& group : expert_tokens) total += group.size();
  return total;
}

void RoutePlan::validate() const {
  VELA_CHECK(expert_tokens.size() == num_experts);
  VELA_CHECK(top_k >= 1 && top_k <= num_experts);
  std::vector<std::size_t> token_count(num_tokens, 0);
  for (std::size_t e = 0; e < num_experts; ++e) {
    std::size_t prev = 0;
    bool first = true;
    for (std::size_t t : expert_tokens[e]) {
      VELA_CHECK_MSG(t < num_tokens, "route plan token index out of range");
      VELA_CHECK_MSG(first || t > prev,
                     "route plan expert group must be strictly ascending");
      first = false;
      prev = t;
      ++token_count[t];
    }
  }
  for (std::size_t t = 0; t < num_tokens; ++t) {
    VELA_CHECK_MSG(token_count[t] == top_k,
                   "token " << t << " routed " << token_count[t]
                            << " times, expected " << top_k);
  }
}

TopKGate::TopKGate(std::string name, std::size_t model_dim,
                   std::size_t num_experts, std::size_t top_k, Rng& rng,
                   bool trainable)
    : experts_(num_experts), k_(top_k) {
  VELA_CHECK(top_k >= 1 && top_k <= num_experts);
  proj_ = std::make_unique<nn::Linear>(name + ".proj", model_dim, num_experts,
                                       rng, trainable, /*bias=*/false);
  register_module("proj", proj_.get());
}

void TopKGate::set_capacity_factor(double factor) {
  VELA_CHECK(factor >= 0.0);
  // factor < 1 would guarantee dropped tokens; this gate reroutes instead of
  // dropping, which needs at least the average load per expert. 0 is the
  // assigned "off" sentinel, so exact compare is sound.
  // vela-lint: allow(float-equality)
  VELA_CHECK_MSG(factor == 0.0 || factor >= 1.0,
                 "capacity factor must be 0 (off) or >= 1");
  capacity_factor_ = factor;
}

GateOutput TopKGate::forward(const ag::Variable& x) const {
  const ag::Variable logits = proj_->forward(x);  // [n, E]
  const std::size_t n = logits.value().rows();

  GateOutput out;
  out.logits = logits;
  out.probs = ops::softmax_rows(logits.value());
  // Rank ALL experts per token so capacity overflow can fall through to the
  // next-best choice.
  const auto ranked = ops::topk_rows(logits.value(), experts_);

  std::size_t capacity = n * k_;  // unlimited
  if (capacity_factor_ > 0.0) {
    capacity = static_cast<std::size_t>(
        std::ceil(capacity_factor_ * static_cast<double>(n * k_) /
                  static_cast<double>(experts_)));
  }

  out.plan.num_tokens = n;
  out.plan.num_experts = experts_;
  out.plan.top_k = k_;
  out.plan.expert_tokens.assign(experts_, {});
  out.selected_score_sums.resize(n, 0.0f);
  for (std::size_t t = 0; t < n; ++t) {
    std::vector<bool> taken(experts_, false);
    std::size_t chosen = 0;
    for (std::size_t rank = 0; rank < experts_ && chosen < k_; ++rank) {
      const std::size_t e = ranked[t][rank];
      if (out.plan.expert_tokens[e].size() >= capacity) continue;  // full
      out.plan.expert_tokens[e].push_back(t);
      out.selected_score_sums[t] += out.probs.at(t, e);
      taken[e] = true;
      ++chosen;
    }
    // The cap is soft, never lossy: with k > 1 and tight capacity the free
    // slots left for the last tokens can all sit on already-selected
    // experts, so the remaining selections overflow onto the least-loaded
    // unselected experts (in preference order on ties).
    for (std::size_t rank = 0; rank < experts_ && chosen < k_; ++rank) {
      std::size_t best = experts_;
      std::size_t best_load = static_cast<std::size_t>(-1);
      for (std::size_t r2 = 0; r2 < experts_; ++r2) {
        const std::size_t e = ranked[t][r2];
        if (taken[e]) continue;
        if (out.plan.expert_tokens[e].size() < best_load) {
          best_load = out.plan.expert_tokens[e].size();
          best = e;
        }
      }
      VELA_CHECK_MSG(best < experts_, "gate could not place token " << t);
      out.plan.expert_tokens[best].push_back(t);
      out.selected_score_sums[t] += out.probs.at(t, best);
      taken[best] = true;
      ++chosen;
    }
  }
  // Groups are ascending because tokens are visited in order.
  out.combine_weights = routing_weights(logits, out.plan);
  return out;
}

ag::Variable load_balance_loss(const GateOutput& gate_out) {
  const RoutePlan& plan = gate_out.plan;
  VELA_CHECK(gate_out.logits.defined() && plan.num_tokens > 0);
  const std::size_t n = plan.num_tokens;
  const std::size_t num_experts = plan.num_experts;
  const double slots = static_cast<double>(plan.total_assignments());

  // f_e: detached dispatch fractions, broadcast column-wise and pre-scaled
  // by E so the loss is sum(probs ⊙ F) / n.
  Tensor f({n, num_experts});
  for (std::size_t e = 0; e < num_experts; ++e) {
    const float fe = static_cast<float>(
        static_cast<double>(plan.expert_tokens[e].size()) / slots *
        static_cast<double>(num_experts));
    for (std::size_t t = 0; t < n; ++t) f.at(t, e) = fe;
  }
  ag::Variable probs = ag::softmax_rows(gate_out.logits);
  return ag::scale(ag::sum(ag::mul(probs, ag::Variable::constant(f))),
                   1.0f / static_cast<float>(n));
}

ag::Variable router_z_loss(const GateOutput& gate_out) {
  VELA_CHECK(gate_out.logits.defined());
  ag::Variable lse = ag::logsumexp_rows(gate_out.logits);
  return ag::mean(ag::mul(lse, lse));
}

ag::Variable routing_weights(const ag::Variable& logits,
                             const RoutePlan& plan) {
  const Tensor& z = logits.value();
  VELA_CHECK(z.rank() == 2 && z.rows() == plan.num_tokens &&
             z.cols() == plan.num_experts);
  const std::size_t n = plan.num_tokens;
  const std::size_t total = plan.total_assignments();
  VELA_CHECK(total == n * plan.top_k);

  // Flat (token, expert) pairs in dispatch order.
  auto pairs =
      std::make_shared<std::vector<std::pair<std::size_t, std::size_t>>>();
  pairs->reserve(total);
  for (std::size_t e = 0; e < plan.num_experts; ++e) {
    for (std::size_t t : plan.expert_tokens[e]) pairs->emplace_back(t, e);
  }

  // Per-token restricted softmax over the selected logits. Two passes: first
  // accumulate each token's max and partition function, then normalize.
  std::vector<float> token_max(n, -std::numeric_limits<float>::infinity());
  for (const auto& [t, e] : *pairs)
    token_max[t] = std::max(token_max[t], z.at(t, e));
  std::vector<double> token_z(n, 0.0);
  for (const auto& [t, e] : *pairs)
    token_z[t] += std::exp(z.at(t, e) - token_max[t]);

  Tensor value({total});
  for (std::size_t i = 0; i < total; ++i) {
    const auto& [t, e] = (*pairs)[i];
    value[i] = static_cast<float>(std::exp(z.at(t, e) - token_max[t]) /
                                  token_z[t]);
  }

  const std::size_t num_experts = plan.num_experts;
  return ag::make_op(
      std::move(value), {logits},
      [pairs, n, num_experts](ag::detail::Node& node) {
        // Restricted-softmax Jacobian per token: dz_e = w_e (dw_e − Σ w dw).
        const Tensor& w = node.value;
        const Tensor& dw = node.grad;
        std::vector<double> inner(n, 0.0);
        for (std::size_t i = 0; i < pairs->size(); ++i)
          inner[(*pairs)[i].first] += double(dw[i]) * w[i];
        Tensor dz({n, num_experts});
        for (std::size_t i = 0; i < pairs->size(); ++i) {
          const auto& [t, e] = (*pairs)[i];
          dz.at(t, e) = w[i] * (dw[i] - static_cast<float>(inner[t]));
        }
        node.parents[0]->accumulate_grad(std::move(dz));
      });
}

}  // namespace vela::moe
