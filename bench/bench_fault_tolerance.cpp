// Fault-tolerance overhead & recovery-cost study.
//
// Runs the same short fine-tune under increasingly hostile fault plans and
// reports what resilience costs: per-step traffic (recovery bytes included),
// modelled step time (injected delays included), retry-layer activity, and
// the final loss — which stays put whenever the recovery path is lossless.
#include <chrono>
#include <cstdio>

#include "comm/fault_injector.h"
#include "core/vela_system.h"
#include "data/corpus.h"
#include "degrade_csv.h"
#include "util/csv.h"

using namespace vela;

namespace {

constexpr int kSteps = 30;

struct Scenario {
  const char* name;
  bool inject = false;
  comm::FaultPlan plan;
};

core::VelaSystemConfig config() {
  core::VelaSystemConfig cfg;
  cfg.model = model::ModelConfig::tiny_test();
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.seed = 3;
  cfg.wire_dtype = comm::WireDtype::kFp32;
  cfg.clock.compute_seconds = 0.5;
  return cfg;
}

void run_scenario(const Scenario& s, CsvWriter& csv) {
  auto cfg = config();
  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 17);
  comm::FaultInjector injector(s.plan);  // must outlive the system
  core::VelaSystem vela(cfg, &corpus);

  core::FaultToleranceConfig ft;
  ft.retry.timeout = std::chrono::milliseconds(60);
  ft.retry.max_retries = 4;
  ft.snapshot_interval = 5;
  vela.enable_fault_tolerance(ft);

  if (s.inject) vela.attach_fault_injector(&injector);

  auto batch = corpus.make_dataset(2, 6);
  const auto t0 = std::chrono::steady_clock::now();
  double traffic_mb = 0.0, recovery_mb = 0.0, step_seconds = 0.0;
  std::size_t retries = 0, recovered = 0, faults = 0;
  float final_loss = 0.0f;
  for (int i = 0; i < kSteps; ++i) {
    const core::StepReport r = vela.train_step(batch);
    traffic_mb += r.external_mb_per_node;
    recovery_mb += r.recovery_mb;
    step_seconds += r.step_seconds;
    retries += r.retries;
    recovered += r.workers_recovered;
    faults += r.faults_injected;
    final_loss = r.loss;
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  const core::FaultStats stats = vela.master().fault_stats();

  std::printf(
      "%-14s faults=%-4zu retries=%-2zu respawns=%-2zu retx=%-4llu "
      "traffic=%7.3f MB/node recovery=%6.3f MB step=%6.3f s loss=%.5f "
      "wall=%7.1f ms\n",
      s.name, faults, retries, recovered,
      static_cast<unsigned long long>(stats.retransmissions),
      traffic_mb / kSteps, recovery_mb, step_seconds / kSteps, final_loss,
      wall_ms);
  csv.row(std::vector<std::string>{
      s.name, std::to_string(faults), std::to_string(retries),
      std::to_string(recovered), std::to_string(stats.retransmissions),
      std::to_string(traffic_mb / kSteps), std::to_string(recovery_mb),
      std::to_string(step_seconds / kSteps), std::to_string(final_loss),
      std::to_string(wall_ms)});
}

}  // namespace

int main() {
  Scenario fault_free{"fault-free", false, {}};

  Scenario noise{"light-noise", true, {}};
  noise.plan.drop_rate = 0.004;
  noise.plan.corrupt_rate = 0.004;
  noise.plan.duplicate_rate = 0.01;
  noise.plan.seed = 7;

  Scenario delays{"delays", true, {}};
  delays.plan.delay_rate = 0.02;
  delays.plan.delay_seconds = 0.05;
  delays.plan.seed = 7;

  Scenario crashes{"crashes", true, {}};
  crashes.plan.rules.push_back(
      {1, comm::LinkDir::kToWorker, 20, comm::FaultKind::kCrashWorker, 0.0});
  crashes.plan.rules.push_back(
      {3, comm::LinkDir::kToWorker, 200, comm::FaultKind::kCrashWorker, 0.0});

  CsvWriter csv("bench_fault_tolerance.csv",
                {"scenario", "faults", "retries", "respawns",
                 "retransmissions", "traffic_mb_per_node", "recovery_mb",
                 "step_seconds", "final_loss", "wall_ms"});
  std::printf("fault-tolerance cost over %d fine-tune steps\n", kSteps);
  run_scenario(fault_free, csv);
  run_scenario(noise, csv);
  run_scenario(delays, csv);
  run_scenario(crashes, csv);

  // Degrade-and-continue (DESIGN.md §11): a scripted kill with a zero
  // respawn budget shrinks the fleet for good; the per-step recovery CSV
  // is shared with the golden test (tests/test_degrade_golden.cpp).
  CsvWriter degrade_csv("bench_fault_degrade.csv", bench::degrade_columns());
  const bench::DegradeRunStats d = bench::emit_degrade_recovery(
      "tiny-degrade", degrade_csv, kSteps, /*kill_worker=*/1,
      /*kill_message=*/20);
  std::printf(
      "%-14s lost=%zu live=%zu recovery=%6.3f MB loss=%.5f (per-step CSV in "
      "%s)\n",
      "degrade", d.workers_lost, d.live_workers, d.recovery_mb,
      static_cast<double>(d.final_loss), degrade_csv.path().c_str());
  return 0;
}
