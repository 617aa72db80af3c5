#include "core/profiler.h"

#include <algorithm>

#include "util/check.h"

namespace vela::core {

moe::RoutingStats profile_expert_access(
    model::MoETransformer& model,
    const std::vector<std::vector<std::size_t>>& dataset,
    std::size_t batch_size) {
  VELA_CHECK(!dataset.empty() && batch_size > 0);
  moe::RoutingStats stats(model.config().num_layers,
                          model.config().num_experts);
  for (std::size_t start = 0; start < dataset.size(); start += batch_size) {
    const std::size_t end = std::min(start + batch_size, dataset.size());
    std::vector<std::vector<std::size_t>> batch(dataset.begin() + start,
                                                dataset.begin() + end);
    // Forward only; the graph is dropped without a backward pass.
    model.forward_batch(batch, &stats);
  }
  return stats;
}

placement::PlacementProblem build_placement_problem(
    const Tensor& probability, const model::ModelConfig& model_cfg,
    const cluster::ClusterTopology& topology, double tokens_per_step,
    double capacity_slack, const comm::WireCodec& codec) {
  placement::PlacementProblem problem;
  problem.num_workers = topology.num_workers();
  problem.num_layers = model_cfg.num_layers;
  problem.num_experts = model_cfg.num_experts;
  problem.probability = probability;
  problem.tokens_per_step = tokens_per_step;
  problem.bytes_per_token =
      static_cast<double>(codec.row_bytes(model_cfg.model_dim));
  problem.master_node = topology.master_node();
  for (std::size_t w = 0; w < problem.num_workers; ++w) {
    problem.bandwidth.push_back(topology.worker_bandwidth(w));
    problem.worker_node.push_back(topology.worker_node(w));
  }
  problem.capacity = topology.uniform_capacities(
      model_cfg.num_layers * model_cfg.num_experts, capacity_slack);
  // The system boots under the sequential (expert e → worker e mod N)
  // layout, so each worker's capacity must at least cover its share of that
  // layout even when E is not a multiple of N.
  for (std::size_t w = 0; w < problem.num_workers; ++w) {
    std::size_t experts_on_w = 0;
    for (std::size_t e = 0; e < problem.num_experts; ++e) {
      if (e % problem.num_workers == w) ++experts_on_w;
    }
    problem.capacity[w] =
        std::max(problem.capacity[w], experts_on_w * problem.num_layers);
  }
  problem.validate();
  return problem;
}

}  // namespace vela::core
