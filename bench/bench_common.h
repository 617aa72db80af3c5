// Shared helpers for the figure-reproduction benches.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "comm/wire_codec.h"
#include "core/profiler.h"
#include "data/corpus.h"
#include "model/config.h"
#include "model/router_planting.h"
#include "moe/synthetic_router.h"
#include "placement/evaluator.h"
#include "placement/locality_aware.h"
#include "placement/placement.h"
#include "placement/random.h"
#include "placement/sequential.h"

namespace vela::bench {

// One evaluation setting of §V: a model shape + a dataset character.
struct Setting {
  std::string name;
  model::ModelConfig model;
  // Prices one token row (b·H/8). The paper's settings account b = 16.
  comm::WireCodec codec{comm::WireDtype::kFp16Accounted};
  data::CorpusConfig corpus;
  std::size_t num_domains = 64;
  double popularity_zipf = 1.1;   // per-layer expert popularity skew
  double routing_noise = 0.06;
  double drift_sigma = 0.03;      // slow per-step drift (Fig. 5 dynamics)
  std::uint64_t seed = 1;
};

inline std::vector<Setting> paper_settings() {
  std::vector<Setting> settings;
  {
    Setting s;
    s.name = "mixtral-wikitext";
    s.model = model::ModelConfig::mixtral_8x7b_shape();
    s.corpus = data::CorpusConfig::wikitext_like(32000, 64);
    // At Mixtral scale the corpus covers many more topics than the tiny
    // presets; temper the head of the topic law accordingly.
    s.corpus.domain_zipf = 0.8;
    s.popularity_zipf = 0.7;
    s.routing_noise = 0.09;
    s.seed = 101;
    settings.push_back(s);
  }
  {
    Setting s;
    s.name = "mixtral-alpaca";
    s.model = model::ModelConfig::mixtral_8x7b_shape();
    s.corpus = data::CorpusConfig::alpaca_like(32000, 64);
    s.popularity_zipf = 0.62;
    s.routing_noise = 0.13;
    s.seed = 102;
    settings.push_back(s);
  }
  {
    Setting s;
    s.name = "gritlm-wikitext";
    s.model = model::ModelConfig::gritlm_8x7b_shape();
    s.corpus = data::CorpusConfig::wikitext_like(32000, 64);
    // GritLM is Mixtral fine-tuned further: slightly sharper routing.
    s.corpus.domain_zipf = 0.85;
    s.popularity_zipf = 0.75;
    s.routing_noise = 0.08;
    s.seed = 103;
    settings.push_back(s);
  }
  {
    Setting s;
    s.name = "gritlm-alpaca";
    s.model = model::ModelConfig::gritlm_8x7b_shape();
    s.corpus = data::CorpusConfig::alpaca_like(32000, 64);
    s.popularity_zipf = 0.65;
    s.routing_noise = 0.12;
    s.seed = 104;
    settings.push_back(s);
  }
  return settings;
}

// The paper's fine-tune workload: batch 8, sequence 256 → K = 2048 tokens.
inline constexpr std::size_t kTokensPerStep = 2048;
inline constexpr std::size_t kFineTuneSteps = 500;

struct SettingRuntime {
  moe::PlantedRouting routing;
  std::vector<double> domain_dist;
  moe::SyntheticRouter router;
  Tensor probability;  // profiled P (pre-fine-tuning pass)

  explicit SettingRuntime(const Setting& s)
      : routing(moe::PlantedRouting::generate(
            s.model.num_layers, s.model.num_experts, s.num_domains,
            s.popularity_zipf, s.seed)),
        domain_dist(
            data::SyntheticCorpus(s.corpus, s.seed + 7).domain_distribution()),
        router(&routing, make_router_config(s)),
        probability(router.estimate_probability(50000)) {}

 private:
  moe::SyntheticRouterConfig make_router_config(const Setting& s) const {
    moe::SyntheticRouterConfig cfg;
    cfg.domain_dist = domain_dist;
    cfg.routing_noise = s.routing_noise;
    cfg.drift_sigma = s.drift_sigma;
    cfg.seed = s.seed + 13;
    return cfg;
  }
};

inline placement::PlacementProblem make_problem(
    const Setting& s, const cluster::ClusterTopology& topology,
    const Tensor& probability, double capacity_slack = 1.34) {
  return core::build_placement_problem(probability, s.model, topology,
                                       static_cast<double>(kTokensPerStep),
                                       capacity_slack, s.codec);
}

struct StrategySet {
  placement::Placement sequential;
  placement::Placement random;
  placement::Placement vela;
};

inline StrategySet make_placements(const placement::PlacementProblem& problem,
                                   std::uint64_t seed) {
  StrategySet set;
  placement::SequentialPlacement seq;
  placement::RandomPlacement rnd(seed);
  placement::LocalityAwarePlacement la;
  set.sequential = seq.place(problem);
  set.random = rnd.place(problem);
  set.vela = la.place(problem);
  return set;
}

// Backbone LoRA gradient volume for the EP all-reduce: 4 attention
// projections (r=8 adapters, fp32 gradients) per layer + lm-head adapters.
inline std::uint64_t backbone_lora_grad_bytes(const model::ModelConfig& m) {
  const std::uint64_t rank = m.lora.rank == 0 ? 8 : m.lora.rank;
  const std::uint64_t per_proj = 2ULL * m.model_dim * rank;  // A + B
  const std::uint64_t attn = 4ULL * per_proj * m.num_layers;
  const std::uint64_t head = (m.model_dim + m.vocab) * rank;
  return (attn + head) * sizeof(float);
}

}  // namespace vela::bench
