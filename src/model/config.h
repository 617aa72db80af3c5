// Model configurations.
//
// Two kinds of presets exist:
//   * runnable presets (tiny_mistral, tiny_test) — small enough to really
//     fine-tune end-to-end with the autograd engine on a CPU; shaped after
//     the paper's TinyMistral-6x248M measurement subject (12 blocks × 6
//     experts, top-2);
//   * shape presets (mixtral_8x7b, gritlm_8x7b) — carry the real models'
//     routing-relevant dimensions (L=32, E=8, k=2, H=4096) and are
//     consumed by the traffic/time accounting paths that regenerate
//     Figs. 5–7. They are never instantiated as weight tensors.
//
// A config carries no wire precision: what one token row costs on the wire
// is the resolved comm::WireCodec's row_bytes(model_dim).
#pragma once

#include <cstddef>
#include <string>

#include "nn/linear.h"

namespace vela::model {

struct ModelConfig {
  std::string name;
  std::size_t vocab = 96;
  std::size_t model_dim = 32;    // H, the token feature size
  std::size_t hidden_dim = 64;   // expert FFN hidden size
  std::size_t num_layers = 12;   // L, number of MoE blocks
  std::size_t num_experts = 6;   // E, experts per block
  std::size_t top_k = 2;         // experts selected per token
  std::size_t num_heads = 2;
  nn::LoRAConfig lora{8, 16.0f, true};

  // Runnable: the TinyMistral-like measurement model of §III.
  static ModelConfig tiny_mistral();
  // Runnable: minimal config for unit tests.
  static ModelConfig tiny_test();
  // Shape-only: Mixtral-8x7B dimensions for traffic accounting (§V).
  static ModelConfig mixtral_8x7b_shape();
  // Shape-only: GritLM-8x7B (same architecture as Mixtral).
  static ModelConfig gritlm_8x7b_shape();

  std::string to_string() const;
};

}  // namespace vela::model
