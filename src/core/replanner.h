// Dynamic re-placement ("online VELA") — the natural extension of the paper.
//
// Fig. 5(a) shows VELA's traffic creeping up as fine-tuning progresses: the
// placement is computed once from the pre-fine-tuning profile, while the
// routing distribution drifts slowly. The Replanner closes that loop: it
// keeps a sliding window of recent routing decisions, periodically re-solves
// the placement LP against the windowed probability estimate, and proposes a
// migration only when the predicted communication-time improvement clears a
// hysteresis threshold (migration itself costs traffic, so flapping must be
// suppressed).
#pragma once

#include <cstddef>
#include <deque>
#include <optional>

#include "cluster/topology.h"
#include "comm/wire_codec.h"
#include "model/config.h"
#include "moe/gate.h"
#include "placement/locality_aware.h"
#include "placement/placement.h"

namespace vela::core {

struct ReplanConfig {
  std::size_t interval = 100;     // steps between re-optimization attempts
  std::size_t window = 50;        // steps of routing history used for P
  // Required relative improvement of expected comm time before migrating.
  double min_improvement = 0.03;
  double capacity_slack = 1.34;
};

class Replanner {
 public:
  // `codec` is the fleet's dispatch codec; it prices the re-solved LP.
  Replanner(ReplanConfig cfg, const model::ModelConfig& model,
            const cluster::ClusterTopology* topology, double tokens_per_step,
            const comm::WireCodec& codec);

  // Feeds one step's routing decisions (one plan per MoE block).
  void observe(const std::vector<moe::RoutePlan>& plans);

  // Called once per step after observe(). Returns a new placement when a
  // re-optimization is due AND the windowed estimate predicts at least
  // min_improvement relative comm-time gain over `current`.
  std::optional<placement::Placement> maybe_replan(
      const placement::Placement& current);

  // Windowed selection-frequency estimate (empty window → zeros).
  Tensor windowed_probability() const;

  std::size_t steps_observed() const { return steps_; }
  std::size_t replans_proposed() const { return proposals_; }
  std::size_t replans_evaluated() const { return evaluations_; }

 private:
  ReplanConfig cfg_;
  model::ModelConfig model_;
  const cluster::ClusterTopology* topology_;
  double tokens_per_step_;
  comm::WireCodec codec_;
  // Sliding window of per-step per-(layer, expert) token counts.
  std::deque<std::vector<std::vector<std::uint64_t>>> window_counts_;
  std::deque<std::uint64_t> window_tokens_;
  std::size_t steps_ = 0;
  std::size_t proposals_ = 0;
  std::size_t evaluations_ = 0;
};

}  // namespace vela::core
