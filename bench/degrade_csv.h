// Shared emitter for the degrade-and-continue recovery CSV.
//
// Both bench_fault_tolerance (paper-scale) and the golden-file regression
// test (tests/test_degrade_golden.cpp) run the kill-then-degrade scenario
// through this emitter, so the schema, row order and cell formatting cannot
// drift from what tests/golden/degrade_tiny.csv pins. Every cell is
// deterministic: losses are bit-exact run-to-run, traffic and recovery
// bytes come from the conservation-audited meter, and step time is the
// modelled clock (no wall-clock cells). The scripted kill fires at a fixed
// message index, so the CSV is identical on both VELA_TRANSPORT backends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "comm/fault_injector.h"
#include "core/vela_system.h"
#include "csv_cells.h"
#include "data/corpus.h"
#include "util/csv.h"

namespace vela::bench {

inline const std::vector<std::string>& degrade_columns() {
  static const std::vector<std::string> cols = {
      "setting",     "step",        "loss",
      "workers_lost", "live_workers", "retries",
      "recovery_mb", "traffic_mb_per_node", "step_seconds"};
  return cols;
}

struct DegradeRunStats {
  std::size_t workers_lost = 0;
  std::size_t live_workers = 0;
  double recovery_mb = 0.0;
  float final_loss = 0.0f;
};

// One kill-then-degrade fine-tune, one CSV row per step: worker
// `kill_worker` is crashed at message index `kill_message` (counted from
// injector attach) with a zero respawn budget, so the kill step pays the
// recovery migration and every later step runs on the reduced fleet.
inline DegradeRunStats emit_degrade_recovery(const std::string& setting_name,
                                             CsvWriter& csv, int steps,
                                             std::size_t kill_worker,
                                             std::uint64_t kill_message) {
  core::VelaSystemConfig cfg;
  cfg.model = model::ModelConfig::tiny_test();
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.seed = 3;
  cfg.wire_dtype = comm::WireDtype::kFp32;
  cfg.clock.compute_seconds = 0.5;

  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 17);
  comm::FaultPlan plan;
  plan.rules.push_back({kill_worker, comm::LinkDir::kToWorker, kill_message,
                        comm::FaultKind::kCrashWorker, 0.0});
  comm::FaultInjector injector(plan);  // must outlive the system
  core::VelaSystem vela(cfg, &corpus);

  core::FaultToleranceConfig ft;
  ft.retry.timeout = std::chrono::milliseconds(60);
  ft.retry.max_retries = 4;
  ft.snapshot_interval = 5;
  ft.respawn_budget = 0;  // no respawns: the kill shrinks the fleet
  vela.enable_fault_tolerance(ft);
  vela.attach_fault_injector(&injector);

  const auto batch = corpus.make_dataset(2, 6);
  DegradeRunStats out;
  for (int i = 0; i < steps; ++i) {
    const core::StepReport r = vela.train_step(batch);
    out.workers_lost += r.workers_lost;
    out.recovery_mb += r.recovery_mb;
    out.final_loss = r.loss;
    // r.loss is float — cell(float) keeps std::to_string(float)'s exact
    // formatting, so the golden CSV bytes are unchanged by the cells() move.
    csv.row(cells(setting_name, i, r.loss, r.workers_lost,
                  vela.master().num_live_workers(), r.retries, r.recovery_mb,
                  r.external_mb_per_node, r.step_seconds));
  }
  out.live_workers = vela.master().num_live_workers();
  return out;
}

}  // namespace vela::bench
