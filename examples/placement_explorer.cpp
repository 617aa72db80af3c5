// Placement explorer: a small CLI for studying the expert-placement problem
// on a custom cluster without running any model — feed it a cluster shape
// and a locality level, and it prints what each strategy would cost.
//
// Usage: placement_explorer [nodes] [gpus_per_node] [zipf] [cross_gbps]
#include <cstdio>
#include <cstdlib>

#include "cluster/topology.h"
#include "core/profiler.h"
#include "model/router_planting.h"
#include "moe/synthetic_router.h"
#include "placement/evaluator.h"
#include "placement/annealing.h"
#include "placement/greedy.h"
#include "placement/locality_aware.h"
#include "placement/random.h"
#include "placement/sequential.h"

using namespace vela;

int main(int argc, char** argv) {
  const std::size_t nodes = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 3;
  const std::size_t gpus = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 2;
  const double zipf = argc > 3 ? std::strtod(argv[3], nullptr) : 1.15;
  const double cross = argc > 4 ? std::strtod(argv[4], nullptr) : 1.17;

  cluster::ClusterConfig ccfg;
  ccfg.num_nodes = nodes;
  ccfg.gpus_per_node = gpus;
  ccfg.cross_node_gbps = cross;
  cluster::ClusterTopology topology(ccfg);
  std::printf("cluster: %s\n", topology.to_string().c_str());

  // A Mixtral-shaped routing profile with the requested concentration.
  auto shape = model::ModelConfig::mixtral_8x7b_shape();
  auto routing = moe::PlantedRouting::generate(
      shape.num_layers, shape.num_experts, 16, zipf, 17);
  moe::SyntheticRouterConfig rcfg;
  rcfg.domain_dist.assign(16, 1.0);
  for (std::size_t d = 0; d < 16; ++d) {
    rcfg.domain_dist[d] = 1.0 / double(d + 1);  // zipfian domain usage
  }
  rcfg.routing_noise = 0.05;
  rcfg.seed = 23;
  moe::SyntheticRouter router(&routing, rcfg);

  // Priced with the codec a default VelaSystem resolves: the paper's b = 16
  // unless VELA_WIRE_DTYPE names another dtype.
  const placement::PlacementProblem problem = core::build_placement_problem(
      router.estimate_probability(50000), shape, topology,
      /*tokens_per_step=*/2048, /*capacity_slack=*/1.34);

  std::printf("\nexpected per-step communication (Eq. 7) and cross-node "
              "traffic for each strategy:\n");
  std::printf("%-16s %14s %16s %12s\n", "strategy", "comm time (s)",
              "external (MB)", "vs lower bd");
  const double lb = placement::comm_time_lower_bound(problem);

  const auto report = [&](const std::string& name,
                          const placement::Placement& p) {
    const double t = placement::expected_comm_seconds(problem, p);
    const double mb =
        placement::expected_external_bytes(problem, p) / 1e6;
    std::printf("%-16s %14.4f %16.1f %11.2fx\n", name.c_str(), t, mb, t / lb);
  };

  placement::SequentialPlacement seq;
  placement::RandomPlacement rnd(5);
  placement::GreedyLPTPlacement greedy;
  placement::AnnealingPlacement annealing;
  placement::LocalityAwarePlacement vela;
  report("sequential", seq.place(problem));
  report("random", rnd.place(problem));
  report("greedy-lpt", greedy.place(problem));
  report("annealing", annealing.place(problem));
  report("vela (LP)", vela.place(problem));
  std::printf("\n(lower bound: %.4f s — perfect load balance over the "
              "aggregate bandwidth)\n", lb);
  std::printf("LP: %zu iterations, status %s\n",
              vela.report().lp_iterations,
              lp::lp_status_name(vela.report().lp_status));
  return 0;
}
