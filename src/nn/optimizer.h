// Optimizers over Variable leaves.
//
// Both the master (backbone LoRA params) and every expert worker (expert LoRA
// params) own an optimizer instance, mirroring Fig. 4 where the optimization
// step runs locally on whichever process holds the parameters — that is what
// lets VELA skip data parallelism's gradient all-reduce.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "autograd/variable.h"
#include "nn/module.h"

namespace vela::nn {

class Optimizer {
 public:
  explicit Optimizer(std::vector<Parameter> params);
  virtual ~Optimizer() = default;

  // Applies one update using the gradients currently stored on the params.
  // Parameters that never received a gradient this step are skipped.
  virtual void step() = 0;

  // Overrides the current learning rate (LR schedules drive this).
  virtual void set_learning_rate(float lr) = 0;
  virtual float learning_rate() const = 0;

  void zero_grad();
  std::size_t num_params() const { return params_.size(); }
  const std::vector<Parameter>& params() const { return params_; }

 protected:
  std::vector<Parameter> params_;
};

// Plain SGD: w ← w − lr · g. Used by the Theorem 1 experiments, which assume
// the SGD update rule.
class SGD : public Optimizer {
 public:
  SGD(std::vector<Parameter> params, float lr);
  void step() override;

  float learning_rate() const override { return lr_; }
  void set_learning_rate(float lr) override { lr_ = lr; }

 private:
  float lr_;
};

struct AdamWConfig {
  float lr = 3e-5f;
  float beta1 = 0.8f;   // paper's fine-tune setting
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 3e-7f;
};

// AdamW with decoupled weight decay — the paper's fine-tuning optimizer.
class AdamW : public Optimizer {
 public:
  AdamW(std::vector<Parameter> params, AdamWConfig cfg = {});
  void step() override;

  float learning_rate() const override { return cfg_.lr; }
  void set_learning_rate(float lr) override { cfg_.lr = lr; }

  const AdamWConfig& config() const { return cfg_; }
  std::size_t steps_taken() const { return t_; }

  // Packs the internal state (step count + both moment buffers) into one
  // rank-1 tensor: [t, m..., v...]. Together with the packed parameters this
  // makes a worker respawn bit-exact — Adam's bias correction depends on t,
  // so restoring moments without it would silently change every later
  // update.
  Tensor pack_state() const;
  // Inverse of pack_state; sizes must match this optimizer's parameters.
  void load_state(const Tensor& packed);

 private:
  AdamWConfig cfg_;
  std::size_t t_ = 0;
  std::vector<Tensor> m_;  // first moment, parallel to params_
  std::vector<Tensor> v_;  // second moment
};

}  // namespace vela::nn
