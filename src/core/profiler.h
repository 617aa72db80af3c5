// The pre-fine-tuning profiling pass (§IV-B, "prior to fine-tuning, we pass
// the dataset through the model to generate a probability matrix P").
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/topology.h"
#include "comm/wire_codec.h"
#include "core/protocol.h"
#include "model/transformer.h"
#include "moe/routing_stats.h"
#include "placement/placement.h"

namespace vela::core {

// Runs `dataset` through the model in inference mode (forward only, no
// parameter updates) and returns the accumulated routing statistics.
moe::RoutingStats profile_expert_access(
    model::MoETransformer& model,
    const std::vector<std::vector<std::size_t>>& dataset,
    std::size_t batch_size);

// Assembles the Eq. (8)–(11) problem instance from a probability matrix —
// the one place a PlacementProblem is built. `tokens_per_step` is K = batch
// size × sequence length; `capacity_slack` scales the uniform worker
// capacities (≥ 1); b is `codec.row_bytes(H)`, the dispatch codec's charge
// for one token row (default: what a default-config VelaSystem resolves).
placement::PlacementProblem build_placement_problem(
    const Tensor& probability, const model::ModelConfig& model_cfg,
    const cluster::ClusterTopology& topology, double tokens_per_step,
    double capacity_slack,
    const comm::WireCodec& codec = wire_codec(WorkerSpec{}));

}  // namespace vela::core
