// Pre-trained router construction ("router planting").
//
// The paper studies models whose routers were *already trained*: each expert
// has acquired domain specializations, so expert access is biased and stable
// (§III). We cannot download Mixtral's weights here, so we construct the same
// phenomenon: every corpus domain d gets, per MoE block, a (primary,
// secondary) expert preference sampled from a Zipf popularity law, and the
// gate/embedding weights are written so that tokens of domain d produce
// confidently-high logits for exactly those experts. On top of this planted
// initialization, fine-tuning then proceeds with real gradients — Theorem 1's
// stability is *verified*, not assumed.
//
// The preference model itself (moe::PlantedRouting) lives one layer down in
// moe/planted_routing.h, where the synthetic router can reach it without a
// moe -> model layering inversion; this header adds the weight-writing half
// that needs a runnable MoETransformer.
#pragma once

#include <cstdint>

#include "data/corpus.h"
#include "model/transformer.h"
#include "moe/planted_routing.h"

namespace vela::model {

struct PlantingConfig {
  double popularity_zipf = 1.0;  // expert popularity skew within a block
  float embed_gain = 4.0f;       // domain-signal strength in embeddings
  // Gate logit strength for preferred experts. Calibrated (not saturated):
  // with the default embedding gain, block-1 top-2 score sums land mostly in
  // 0.7–0.95, matching the paper's Fig. 3(b) distribution.
  float gate_gain = 0.6f;
  // The residual stream accumulates noise with depth, diluting the planted
  // signal after RMSNorm; the effective gain of block l is
  // gate_gain · (1 + depth_compensation · l) to keep routing confidence
  // roughly uniform across blocks.
  float depth_compensation = 0.12f;
  float secondary_ratio = 0.65f; // secondary expert's share of gate_gain
  float gate_noise = 0.02f;      // stddev of non-signal gate weights
  float residual_damp = 0.3f;    // scale applied to attention out-projections
  std::uint64_t seed = 42;
};

// Writes the planted bias into a runnable model's embedding and gate weights
// and damps the attention residual noise. Returns the ground-truth routing.
// Requires corpus.num_domains() <= model_dim.
moe::PlantedRouting plant_locality(MoETransformer& model,
                                   const data::SyntheticCorpus& corpus,
                                   const PlantingConfig& cfg);

}  // namespace vela::model
