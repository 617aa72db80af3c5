// Ablation A4: static vs dynamic expert placement under routing drift.
//
// Fig. 5(a) shows VELA's traffic creeping upward because the placement is
// computed once while the routing distribution drifts. This bench runs the
// same drifting workload against (a) the static step-0 placement and (b) a
// Replanner that re-solves the LP every `interval` steps, charging migration
// traffic to the triggering step.
#include <cstdio>

#include "bench_common.h"
#include "core/replanner.h"
#include "core/step_simulator.h"
#include "util/csv.h"
#include "util/stats.h"

using namespace vela;
using namespace vela::bench;

namespace {

// LoRA-adapter bytes shipped when one expert migrates (Mixtral-shape expert:
// three projections, rank-8 adapters, fp32).
std::uint64_t migration_bytes_per_expert(const model::ModelConfig& m) {
  const std::uint64_t rank = m.lora.rank == 0 ? 8 : m.lora.rank;
  const std::uint64_t w1 = rank * m.model_dim + m.hidden_dim * rank;
  const std::uint64_t w3 = w1;
  const std::uint64_t w2 = rank * m.hidden_dim + m.model_dim * rank;
  return (w1 + w2 + w3) * sizeof(float);
}

std::size_t count_moves(const placement::Placement& a,
                        const placement::Placement& b) {
  std::size_t moves = 0;
  for (std::size_t l = 0; l < a.num_layers(); ++l) {
    for (std::size_t e = 0; e < a.num_experts(); ++e) {
      if (a.worker_of(l, e) != b.worker_of(l, e)) ++moves;
    }
  }
  return moves;
}

}  // namespace

int main() {
  std::printf("=== Ablation A4: static vs dynamic placement under drift ===\n");
  cluster::ClusterTopology topology(cluster::ClusterConfig::paper_testbed());

  Setting setting = paper_settings()[0];  // mixtral + wikitext-like
  setting.drift_sigma = 0.06;             // pronounced drift
  SettingRuntime runtime(setting);

  const auto problem = make_problem(setting, topology, runtime.probability);
  placement::LocalityAwarePlacement la;
  placement::Placement static_placement = la.place(problem);
  placement::Placement dynamic_placement = static_placement;

  core::ReplanConfig rp_cfg;
  rp_cfg.interval = 50;
  rp_cfg.window = 40;
  rp_cfg.min_improvement = 0.05;
  core::Replanner replanner(rp_cfg, setting.model, &topology,
                            double(kTokensPerStep), setting.codec);

  core::VelaTrafficModel traffic(
      &topology, {setting.codec.row_bytes(setting.model.model_dim)});

  const double nodes = double(topology.num_nodes());
  const std::uint64_t per_expert_bytes =
      migration_bytes_per_expert(setting.model);

  RunningStat static_mb, dynamic_mb;
  RunningStat static_tail, dynamic_tail;
  std::uint64_t migrations = 0;
  CsvWriter csv("ablation_dynamic.csv",
                {"step", "static_mb", "dynamic_mb"});
  std::printf("\n%-6s %14s %14s  (MB/node)\n", "step", "static", "dynamic");
  for (std::size_t step = 0; step < kFineTuneSteps; ++step) {
    const auto plans = runtime.router.sample_step(kTokensPerStep);
    const double s_mb =
        double(traffic.external_bytes(
            traffic.account_step(plans, static_placement))) /
        1e6 / nodes;
    double d_mb = double(traffic.external_bytes(
                      traffic.account_step(plans, dynamic_placement))) /
                  1e6 / nodes;

    replanner.observe(plans);
    if (auto next = replanner.maybe_replan(dynamic_placement)) {
      const std::size_t moved = count_moves(dynamic_placement, *next);
      migrations += moved;
      // Charge adapter transfer: fetch (cross or intra) + install; count
      // the cross-node share conservatively as all-external.
      d_mb += double(moved) * 2.0 * double(per_expert_bytes) / 1e6 / nodes;
      dynamic_placement = *next;
    }
    static_mb.add(s_mb);
    dynamic_mb.add(d_mb);
    if (step + 100 >= kFineTuneSteps) {
      static_tail.add(s_mb);
      dynamic_tail.add(d_mb);
    }
    csv.row({double(step), s_mb, d_mb});
    if (step % 100 == 0 || step == kFineTuneSteps - 1) {
      std::printf("%-6zu %14.1f %14.1f\n", step, s_mb, d_mb);
    }
  }
  std::printf("\nmean MB/node/step: static %.1f, dynamic %.1f (%.1f%% better)\n",
              static_mb.mean(), dynamic_mb.mean(),
              100.0 * (1.0 - dynamic_mb.mean() / static_mb.mean()));
  std::printf("last-100-step mean: static %.1f, dynamic %.1f (%.1f%% better)\n",
              static_tail.mean(), dynamic_tail.mean(),
              100.0 * (1.0 - dynamic_tail.mean() / static_tail.mean()));
  std::printf("experts migrated over the run: %llu "
              "(replans evaluated: %zu, adopted: %zu)\n",
              static_cast<unsigned long long>(migrations),
              replanner.replans_evaluated(), replanner.replans_proposed());
  std::printf("\n=> under drift, periodic re-placement recovers the traffic\n"
              "   the static placement loses, at a small migration cost —\n"
              "   the natural 'online VELA' extension of the paper.\n");
  std::printf("CSV written: ablation_dynamic.csv\n");
  return 0;
}
