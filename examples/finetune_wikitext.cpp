// Language-modeling fine-tuning scenario (the paper's WikiText task):
// fine-tunes the TinyMistral-like model on a concentrated wikitext-like
// corpus, comparing all four systems' communication on the SAME routing by
// replaying each step's routing decisions through the traffic models.
#include <cstdio>

#include "core/step_simulator.h"
#include "core/vela_system.h"
#include "data/batch.h"
#include "ep/expert_parallel.h"
#include "placement/sequential.h"
#include "util/stats.h"

using namespace vela;

int main() {
  core::VelaSystemConfig cfg;
  cfg.model = model::ModelConfig::tiny_mistral();
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.seed = 11;
  cfg.adamw.lr = 1e-4f;

  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 21);
  core::VelaSystem vela(cfg, &corpus);
  std::printf("fine-tuning %s on %s\n", cfg.model.to_string().c_str(),
              corpus.config().name.c_str());

  const auto dataset = corpus.make_dataset(64, 20);
  data::BatchIterator batches(dataset, 8, 3);

  // The paper's workflow: profile first, then place, then fine-tune.
  vela.profile(dataset, 8);
  vela.optimize_placement(8.0 * 19.0);

  // Companion accountants replay the live routing through the baselines.
  core::VelaTrafficModelConfig tm;
  tm.bytes_per_token = cfg.model.bytes_per_token();
  core::VelaTrafficModel traffic(&vela.topology(), tm);
  placement::PlacementProblem problem = core::build_placement_problem(
      vela.profiled_stats()->probability_matrix(), cfg.model, vela.topology(),
      8.0 * 19.0, cfg.capacity_slack);
  placement::SequentialPlacement seq_strategy;
  placement::Placement seq = seq_strategy.place(problem);
  ep::EpConfig ep_cfg;
  ep_cfg.bytes_per_token = tm.bytes_per_token;
  ep::ExpertParallelModel ep_model(&vela.topology(), ep_cfg);

  RunningStat loss_stat, vela_mb, seq_mb, ep_mb;
  const int kSteps = 40;
  for (int step = 0; step < kSteps; ++step) {
    auto report = vela.train_step(batches.next());
    loss_stat.add(report.loss);
    vela_mb.add(report.external_mb_per_node);
    const auto plans = vela.model().last_plans();
    seq_mb.add(double(traffic.external_bytes(traffic.account_step(plans, seq))) /
               1e6 / 3.0);
    ep_mb.add(double(ep_model.external_bytes(ep_model.account_step(plans))) /
              1e6 / 3.0);
    if (step % 10 == 0) {
      std::printf("step %2d: loss %.4f | traffic MB/node: vela %.3f, "
                  "sequential %.3f, EP %.3f\n",
                  step, report.loss, report.external_mb_per_node,
                  seq_mb.max(), ep_mb.max());
    }
  }
  std::printf("\nafter %d steps:\n", kSteps);
  std::printf("  loss: %.4f -> %.4f\n", loss_stat.max(), loss_stat.min());
  std::printf("  mean cross-node traffic (MB/node/step): vela %.3f | "
              "sequential %.3f | EP %.3f\n",
              vela_mb.mean(), seq_mb.mean(), ep_mb.mean());
  std::printf("  vela vs sequential: %.1f%% less traffic\n",
              100.0 * (1.0 - vela_mb.mean() / seq_mb.mean()));
  return 0;
}
