#include "model/transformer.h"

#include <functional>
#include <numeric>

#include "util/check.h"
#include "util/thread_pool.h"

namespace vela::model {

MoETransformer::MoETransformer(const ModelConfig& cfg,
                               moe::ExpertBackend* backend, Rng& rng,
                               bool trainable_gate)
    : cfg_(cfg) {
  VELA_CHECK(backend != nullptr);
  embed_ = std::make_unique<nn::Embedding>("embed", cfg.vocab, cfg.model_dim,
                                           rng, /*trainable=*/false);
  register_module("embed", embed_.get());
  for (std::size_t l = 0; l < cfg.num_layers; ++l) {
    const std::string prefix = "layer" + std::to_string(l);
    attn_norms_.push_back(
        std::make_unique<nn::RMSNorm>(prefix + ".attn_norm", cfg.model_dim));
    attns_.push_back(std::make_unique<nn::CausalSelfAttention>(
        prefix + ".attn", cfg.model_dim, cfg.num_heads, cfg.lora, rng));
    moe_norms_.push_back(
        std::make_unique<nn::RMSNorm>(prefix + ".moe_norm", cfg.model_dim));
    blocks_.push_back(std::make_unique<moe::MoEBlock>(
        prefix + ".moe", l, cfg.model_dim, cfg.num_experts, cfg.top_k, rng,
        backend, trainable_gate));
    register_module(prefix + ".attn_norm", attn_norms_.back().get());
    register_module(prefix + ".attn", attns_.back().get());
    register_module(prefix + ".moe_norm", moe_norms_.back().get());
    register_module(prefix + ".moe", blocks_.back().get());
  }
  final_norm_ = std::make_unique<nn::RMSNorm>("final_norm", cfg.model_dim);
  register_module("final_norm", final_norm_.get());
  lm_head_ = std::make_unique<nn::LoRALinear>("lm_head", cfg.model_dim,
                                              cfg.vocab, cfg.lora, rng);
  register_module("lm_head", lm_head_.get());
}

ag::Variable MoETransformer::forward_batch(
    const std::vector<std::vector<std::size_t>>& seqs,
    moe::RoutingStats* stats) {
  VELA_CHECK(!seqs.empty());
  // Per-sequence embeddings.
  std::vector<ag::Variable> xs;
  xs.reserve(seqs.size());
  std::vector<std::size_t> lens;
  for (const auto& seq : seqs) {
    VELA_CHECK_MSG(!seq.empty(), "empty sequence in batch");
    xs.push_back(embed_->forward(seq));
    lens.push_back(seq.size());
  }

  for (std::size_t l = 0; l < blocks_.size(); ++l) {
    // Attention is per sequence (causal structure is intra-sequence), so
    // each sequence's block is one pool task writing only its own xs[s].
    // The modules are const and every op inside a task runs inline, so the
    // arithmetic is the serial loop's whatever the lane count.
    std::vector<std::function<void()>> tasks;
    tasks.reserve(xs.size());
    for (auto& x : xs) {
      tasks.push_back([this, l, &x] {
        x = ag::add(x, attns_[l]->forward(attn_norms_[l]->forward(x)));
      });
    }
    util::ThreadPool::global().run(tasks);
    // MoE pre-processing reshape: flatten all sequences into one token list.
    ag::Variable flat = xs.size() == 1 ? xs[0] : ag::concat_rows(xs);
    ag::Variable moe_out =
        ag::add(flat, blocks_[l]->forward(moe_norms_[l]->forward(flat), stats));
    // Post-processing: split back into sequences.
    if (xs.size() == 1) {
      xs[0] = moe_out;
    } else {
      std::size_t offset = 0;
      for (std::size_t s = 0; s < xs.size(); ++s) {
        std::vector<std::size_t> range(lens[s]);
        std::iota(range.begin(), range.end(), offset);
        xs[s] = ag::gather_rows(moe_out, range);
        offset += lens[s];
      }
    }
  }

  ag::Variable flat = xs.size() == 1 ? xs[0] : ag::concat_rows(xs);
  return lm_head_->forward(final_norm_->forward(flat));
}

ag::Variable MoETransformer::loss_batch(
    const std::vector<std::vector<std::size_t>>& seqs,
    moe::RoutingStats* stats, float aux_loss_weight) {
  std::vector<std::vector<std::size_t>> inputs;
  std::vector<std::size_t> targets;
  inputs.reserve(seqs.size());
  for (const auto& seq : seqs) {
    VELA_CHECK_MSG(seq.size() >= 2,
                   "next-token loss needs sequences of length >= 2");
    inputs.emplace_back(seq.begin(), seq.end() - 1);
    targets.insert(targets.end(), seq.begin() + 1, seq.end());
  }
  ag::Variable logits = forward_batch(inputs, stats);
  ag::Variable loss = ag::cross_entropy(logits, targets);
  if (aux_loss_weight > 0.0f) {
    for (auto& block : blocks_) {
      loss = ag::add(loss, ag::scale(moe::load_balance_loss(
                                         block->last_gate_output()),
                                     aux_loss_weight));
    }
  }
  return loss;
}

moe::MoEBlock& MoETransformer::block(std::size_t l) {
  VELA_CHECK(l < blocks_.size());
  return *blocks_[l];
}

std::vector<moe::RoutePlan> MoETransformer::last_plans() const {
  std::vector<moe::RoutePlan> plans;
  plans.reserve(blocks_.size());
  for (const auto& b : blocks_) plans.push_back(b->last_plan());
  return plans;
}

}  // namespace vela::model
