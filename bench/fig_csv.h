// Shared per-setting emitters for the Fig. 5 / Fig. 6 CSV series.
//
// Both the paper-scale bench binaries and the golden-file regression test
// (tests/test_bench_golden.cpp) run settings through these emitters, so the
// CSV schema, series order and cell formatting cannot drift from what the
// golden files pin. Cells are formatted through bench/csv_cells.h (fixed,
// six decimals) — deterministic across runs and thread counts.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "comm/comm_clock.h"
#include "core/step_simulator.h"
#include "csv_cells.h"
#include "ep/expert_parallel.h"
#include "tensor/qblock.h"
#include "util/csv.h"
#include "util/stats.h"

namespace vela::bench {

inline const std::vector<std::string>& fig5_columns() {
  static const std::vector<std::string> cols = {
      "setting",     "step",  "sequential_mb", "random_mb",
      "vela_mb",     "ep_mb", "vela_f16_mb",   "vela_q8_mb"};
  return cols;
}

inline const std::vector<std::string>& fig6_columns() {
  static const std::vector<std::string> cols = {
      "setting", "ep_s",           "sequential_s", "random_s",
      "vela_s",  "vela_overlap_s", "vela_f16_s",   "vela_q8_s"};
  return cols;
}

// The byte models of one setting (DESIGN.md §13): the setting's codec
// prices the vela placements and the EP baseline; the f16 / q8 tier models
// rerun the SAME vela accounting at the fp16 and block-int8 (default block)
// row sizes, so the tier series isolate the wire-format effect. For a
// setting whose codec already charges 16 bits, vela_f16_mb == vela_mb
// cell-for-cell — pinned by tests/test_bench_golden.cpp as a sanity check.
struct SettingModels {
  SettingModels(const Setting& s, const cluster::ClusterTopology* topology)
      : vela(topology, traffic(s.codec, s)),
        f16(topology, traffic(comm::WireCodec{comm::WireDtype::kFp16}, s)),
        q8(topology, traffic(comm::WireCodec{comm::WireDtype::kInt8,
                                             qblock::kDefaultBlock},
                             s)),
        ep(topology, ep::EpConfig{s.codec.row_bytes(s.model.model_dim),
                                  backbone_lora_grad_bytes(s.model)}) {}

  core::VelaTrafficModel vela, f16, q8;
  ep::ExpertParallelModel ep;

 private:
  static core::VelaTrafficModelConfig traffic(const comm::WireCodec& codec,
                                              const Setting& s) {
    return core::VelaTrafficModelConfig{codec.row_bytes(s.model.model_dim)};
  }
};

struct Fig5SettingStats {
  RunningStat seq, rnd, vela, ep;
  RunningStat vela_f16, vela_q8;     // quantized wire tiers, vela placement
  RunningStat vela_head, vela_tail;  // first/last window (drift check)
};

// One Fig. 5 setting: per-step cross-node MB/node for the four systems plus
// the two wire tiers, one CSV row per step. The routing decisions of every
// step are sampled once and fed to all systems, so series differ purely by
// placement (and, for the tier columns, bytes/token).
inline Fig5SettingStats emit_fig5_setting(
    const Setting& setting, const cluster::ClusterTopology& topology,
    CsvWriter& csv, std::size_t steps, std::size_t tokens_per_step,
    bool print_progress = false) {
  SettingRuntime runtime(setting);
  const auto problem = make_problem(setting, topology, runtime.probability);
  StrategySet placements = make_placements(problem, setting.seed + 99);

  const SettingModels models(setting, &topology);

  const double nodes = static_cast<double>(topology.num_nodes());
  const std::size_t window = std::min<std::size_t>(100, steps);
  Fig5SettingStats stats;
  for (std::size_t step = 0; step < steps; ++step) {
    const auto plans = runtime.router.sample_step(tokens_per_step);
    const auto mb = [&](const core::VelaTrafficModel& m,
                        const placement::Placement& p) {
      return double(m.external_bytes(m.account_step(plans, p))) / 1e6 / nodes;
    };
    const double seq_mb = mb(models.vela, placements.sequential);
    const double rnd_mb = mb(models.vela, placements.random);
    const double vela_mb = mb(models.vela, placements.vela);
    const double ep_mb =
        double(models.ep.external_bytes(models.ep.account_step(plans))) / 1e6 /
        nodes;
    const double f16_mb = mb(models.f16, placements.vela);
    const double q8_mb = mb(models.q8, placements.vela);
    stats.seq.add(seq_mb);
    stats.rnd.add(rnd_mb);
    stats.vela.add(vela_mb);
    stats.ep.add(ep_mb);
    stats.vela_f16.add(f16_mb);
    stats.vela_q8.add(q8_mb);
    if (step < window) stats.vela_head.add(vela_mb);
    if (step + window >= steps) stats.vela_tail.add(vela_mb);
    csv.row(cells(setting.name, step, seq_mb, rnd_mb, vela_mb, ep_mb, f16_mb,
                  q8_mb));
    if (print_progress && (step % 100 == 0 || step == steps - 1)) {
      std::printf("%-6zu %12.1f %12.1f %12.1f %12.1f %12.1f\n", step, seq_mb,
                  rnd_mb, vela_mb, ep_mb, q8_mb);
    }
  }
  return stats;
}

struct Fig6SettingStats {
  RunningStat ep, seq, rnd, vela, vela_overlap;
  RunningStat vela_f16, vela_q8;  // quantized wire tiers, vela placement
};

// One Fig. 6 setting: mean modeled step time of the four systems plus the
// vela+overlap series — the SAME vela byte record pushed through the
// overlap-pipelined clock at depth `overlap_chunks` (byte counts are
// invariant in the pipeline depth; only the step-time model changes) — and
// the two wire-tier series (vela placement, fp16/int8 bytes, no overlap).
inline Fig6SettingStats emit_fig6_setting(
    const Setting& setting, const cluster::ClusterTopology& topology,
    CsvWriter& csv, std::size_t steps, std::size_t tokens_per_step,
    double compute_seconds, std::size_t overlap_chunks) {
  SettingRuntime runtime(setting);
  const auto problem = make_problem(setting, topology, runtime.probability);
  StrategySet placements = make_placements(problem, setting.seed + 99);

  const SettingModels models(setting, &topology);

  comm::CommClockConfig clock_cfg;
  clock_cfg.compute_seconds = compute_seconds;
  comm::CommClock clock(&topology, clock_cfg);

  Fig6SettingStats stats;
  for (std::size_t step = 0; step < steps; ++step) {
    const auto plans = runtime.router.sample_step(tokens_per_step);
    stats.seq.add(clock.vela_step_seconds(
        models.vela.account_step(plans, placements.sequential)));
    stats.rnd.add(clock.vela_step_seconds(
        models.vela.account_step(plans, placements.random)));
    const comm::VelaStepRecord vela_record =
        models.vela.account_step(plans, placements.vela);
    const core::ModeledStepTimes times =
        core::modeled_step_times(clock, vela_record, overlap_chunks);
    stats.vela.add(times.sequential_s);
    stats.vela_overlap.add(times.overlap_s);
    stats.ep.add(clock.ep_step_seconds(models.ep.account_step(plans)));
    stats.vela_f16.add(clock.vela_step_seconds(
        models.f16.account_step(plans, placements.vela)));
    stats.vela_q8.add(clock.vela_step_seconds(
        models.q8.account_step(plans, placements.vela)));
  }
  csv.row(cells(setting.name, stats.ep.mean(), stats.seq.mean(),
                stats.rnd.mean(), stats.vela.mean(), stats.vela_overlap.mean(),
                stats.vela_f16.mean(), stats.vela_q8.mean()));
  return stats;
}

}  // namespace vela::bench
