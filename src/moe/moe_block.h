// The MoE block, generic over where experts physically live.
//
// The block owns the gating mechanism (part of the model backbone, like the
// paper's Fig. 4) but delegates expert computation to an ExpertBackend:
//
//   * LocalExpertBackend  — experts in-process (dense reference execution,
//     used for correctness tests and single-device baselines);
//   * core::ExpertBroker — VELA's Expert Broker (src/core), which dispatches
//     token blocks to remote worker processes and stitches the returned
//     activations/gradients into the master tape;
//   * the EP baseline's sharded backend (src/ep).
//
// Because the block's dataflow (gate → dispatch → expert → weighted combine)
// is identical in all three cases, test equivalence between backends is a
// strong end-to-end check of the distributed protocol.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "moe/gate.h"
#include "moe/routing_stats.h"
#include "nn/expert.h"
#include "nn/module.h"

namespace vela::moe {

// Where expert sub-networks execute. `layer` identifies the MoE block so a
// single backend instance can serve the whole model.
class ExpertBackend {
 public:
  virtual ~ExpertBackend() = default;

  // Runs block `layer`'s experts on its normed input x ([n, H]): expert e
  // computes rows expert_tokens[e] of x. Returns one output per non-empty
  // group, in ascending expert order, wired into the caller's autograd tape.
  //
  // The backend owns the gather. A distributed backend dispatches every
  // group before collecting any result (the master's one-to-all pattern of
  // §V-B), and builds each output with ag::remote_rows straight on x: in
  // backward, every group of the block posts its dL/dy as the sweep passes
  // it, and the waits for dL/dx run when the sweep reaches x — after every
  // post. The sum into x's grad keeps the order per-group gather nodes give
  // it: g_{G-1} … g_1, then the gate's dx (the sweep reaches the gate
  // through group 0's combine weight, before group 0's output), then g_0.
  // One autograd node per layer owning every group would fire after the
  // gate and move the gate's term first, changing the float sum.
  virtual std::vector<ag::Variable> experts_forward(
      std::size_t layer, const ag::Variable& x,
      const std::vector<std::vector<std::size_t>>& expert_tokens) = 0;

  // One expert on every row of xs (tests). The −0 trap: dx reaches xs
  // through a scatter into zeros (gather_rows' or remote_rows' backward),
  // where −0 + +0 = +0, while an op applied to xs directly passes −0
  // through; compare such gradients with a tolerance, not bit for bit.
  ag::Variable expert_forward(std::size_t layer, std::size_t expert,
                              const ag::Variable& xs);
};

// In-process backend owning all experts of all layers. Expert (l, e) is
// initialized from nn::expert_seed(base_seed, l, e), the same derivation the
// distributed workers use — identical base_seed ⇒ identical weights.
class LocalExpertBackend : public ExpertBackend, public nn::Module {
 public:
  LocalExpertBackend(std::size_t num_layers, std::size_t num_experts,
                     std::size_t model_dim, std::size_t hidden_dim,
                     const nn::LoRAConfig& lora, std::uint64_t base_seed);

  // Gathers eagerly: each group is an ag::gather_rows of x fed to the
  // in-process expert.
  std::vector<ag::Variable> experts_forward(
      std::size_t layer, const ag::Variable& x,
      const std::vector<std::vector<std::size_t>>& expert_tokens) override;

  nn::SwiGLUExpert& expert(std::size_t layer, std::size_t e);
  std::size_t num_layers() const { return layers_; }
  std::size_t num_experts() const { return experts_per_layer_; }

 private:
  std::size_t layers_, experts_per_layer_;
  std::vector<std::unique_ptr<nn::SwiGLUExpert>> experts_;  // [L*E]
};

// The MoE block: gate + dispatch/combine around an ExpertBackend.
class MoEBlock : public nn::Module {
 public:
  MoEBlock(std::string name, std::size_t layer_index, std::size_t model_dim,
           std::size_t num_experts, std::size_t top_k, Rng& rng,
           ExpertBackend* backend, bool trainable_gate = false);

  // x: [n_tokens, model_dim]. If `stats` is non-null the routing decision is
  // recorded into it (profiling mode).
  ag::Variable forward(const ag::Variable& x, RoutingStats* stats = nullptr);

  // The routing decision of the most recent forward (per-step traffic
  // accounting reads this).
  const RoutePlan& last_plan() const { return last_gate_output_.plan; }
  // The full gate output of the most recent forward, still wired into the
  // tape — auxiliary losses (moe::load_balance_loss) differentiate through
  // it.
  const GateOutput& last_gate_output() const { return last_gate_output_; }

  TopKGate& gate() { return *gate_; }
  std::size_t layer_index() const { return layer_; }

 private:
  std::size_t layer_;
  std::unique_ptr<TopKGate> gate_;
  ExpertBackend* backend_;  // non-owning; shared across blocks
  GateOutput last_gate_output_;
};

}  // namespace vela::moe
