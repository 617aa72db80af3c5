#include "model/config.h"

#include <sstream>

namespace vela::model {

ModelConfig ModelConfig::tiny_mistral() {
  ModelConfig cfg;
  cfg.name = "tiny-mistral-6x";
  cfg.vocab = 96;
  cfg.model_dim = 48;
  cfg.hidden_dim = 96;
  cfg.num_layers = 12;
  cfg.num_experts = 6;
  cfg.top_k = 2;
  cfg.num_heads = 2;
  return cfg;
}

ModelConfig ModelConfig::tiny_test() {
  ModelConfig cfg;
  cfg.name = "tiny-test";
  cfg.vocab = 40;
  cfg.model_dim = 16;
  cfg.hidden_dim = 32;
  cfg.num_layers = 2;
  cfg.num_experts = 4;
  cfg.top_k = 2;
  cfg.num_heads = 2;
  cfg.lora = nn::LoRAConfig{4, 8.0f, true};
  return cfg;
}

ModelConfig ModelConfig::mixtral_8x7b_shape() {
  ModelConfig cfg;
  cfg.name = "mixtral-8x7b";
  cfg.vocab = 32000;
  cfg.model_dim = 4096;
  cfg.hidden_dim = 14336;
  cfg.num_layers = 32;
  cfg.num_experts = 8;
  cfg.top_k = 2;
  cfg.num_heads = 32;
  return cfg;
}

ModelConfig ModelConfig::gritlm_8x7b_shape() {
  ModelConfig cfg = mixtral_8x7b_shape();
  cfg.name = "gritlm-8x7b";
  return cfg;
}

std::string ModelConfig::to_string() const {
  std::ostringstream os;
  os << name << " (L=" << num_layers << ", E=" << num_experts
     << ", k=" << top_k << ", H=" << model_dim << ", hidden=" << hidden_dim
     << ", vocab=" << vocab << ")";
  return os.str();
}

}  // namespace vela::model
