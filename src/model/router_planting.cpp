#include "model/router_planting.h"

#include "tensor/ops.h"
#include "util/check.h"
#include "util/rng.h"

namespace vela::model {

moe::PlantedRouting plant_locality(MoETransformer& model,
                                   const data::SyntheticCorpus& corpus,
                                   const PlantingConfig& cfg) {
  const ModelConfig& mc = model.config();
  const std::size_t domains = corpus.num_domains();
  VELA_CHECK_MSG(domains <= mc.model_dim,
                 "planting needs one embedding dim per domain");

  moe::PlantedRouting routing = moe::PlantedRouting::generate(
      mc.num_layers, mc.num_experts, domains, cfg.popularity_zipf, cfg.seed);

  // 1) Embedding: add a strong component on the domain-signal coordinate.
  //    Coordinate d carries the signal of domain d.
  Tensor& emb = model.embedding().weight().mutable_value();
  for (std::size_t t = 0; t < mc.vocab; ++t) {
    emb.at(t, corpus.domain_of_token(t)) += cfg.embed_gain;
  }

  // 2) Gate weights: rewrite each block's router so preferred experts read
  //    the domain coordinate with a confidently large weight.
  Rng noise_rng(cfg.seed ^ 0x9A7EULL);
  for (std::size_t l = 0; l < mc.num_layers; ++l) {
    Tensor& w = model.block(l).gate().weight().mutable_value();  // [E, H]
    for (std::size_t e = 0; e < mc.num_experts; ++e) {
      for (std::size_t h = 0; h < mc.model_dim; ++h) {
        w.at(e, h) = static_cast<float>(noise_rng.normal(0.0, cfg.gate_noise));
      }
    }
    const float gain =
        cfg.gate_gain *
        (1.0f + cfg.depth_compensation * static_cast<float>(l));
    for (std::size_t d = 0; d < domains; ++d) {
      const auto [primary, secondary] = routing.preference(l, d);
      w.at(primary, d) += gain;
      w.at(secondary, d) += gain * cfg.secondary_ratio;
    }
  }

  // 3) Damp the attention out-projections so the residual stream keeps the
  //    planted embedding signal dominant across all L blocks (a property
  //    real pre-trained models have by virtue of training; we install it).
  for (auto& p : model.parameters()) {
    if (p.name.find(".wo.weight") != std::string::npos) {
      p.var.mutable_value().scale_(cfg.residual_damp);
    }
  }
  return routing;
}

}  // namespace vela::model
