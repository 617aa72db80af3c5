#include "workloads.h"

#include "ep/runtime.h"

namespace perfbench {

namespace {

using namespace vela;

constexpr std::uint64_t kCorpusSeed = 19;
// Steps of routing history the drift workload's replanner estimates P from.
constexpr std::size_t kReplanWindow = 8;

class VelaRunner final : public Runner {
 public:
  VelaRunner(const core::VelaSystemConfig& cfg,
             const data::SyntheticCorpus& corpus)
      : system_(cfg, &corpus) {}

  StepOutcome step(const Batch& batch) override {
    const core::StepReport r = system_.train_step(batch);
    return {r.loss, r.external_mb_per_node, r.step_seconds, r.paged_mb};
  }

  Counters counters() override {
    auto& master = system_.master();
    Counters c;
    c.requests = master.broker().requests_sent();
    for (std::size_t w = 0; w < master.num_workers(); ++w) {
      c.messages += master.link(w).to_worker.messages_sent() +
                    master.link(w).to_master.messages_sent();
    }
    c.total_bytes = master.meter().lifetime_total_bytes();
    if (const core::Replanner* rp = system_.replanner()) {
      c.replans_evaluated = rp->replans_evaluated();
      c.replans_adopted = rp->replans_proposed();
    }
    return c;
  }

  core::VelaSystem* vela() override { return &system_; }

 private:
  core::VelaSystem system_;
};

class EpRunner final : public Runner {
 public:
  EpRunner(const ep::EpRuntimeConfig& cfg, const data::SyntheticCorpus& corpus)
      : runtime_(cfg, &corpus) {}

  StepOutcome step(const Batch& batch) override {
    const ep::EpStepReport r = runtime_.train_step(batch);
    return {r.loss, r.external_mb_per_node, r.step_seconds, 0.0};
  }

  Counters counters() override {
    Counters c;
    c.total_bytes = runtime_.meter().lifetime_total_bytes();
    return c;
  }

 private:
  ep::EpRuntime runtime_;
};

}  // namespace

std::optional<Workload> find_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "vela_bulk") {
    w.input = InputSpec{12, 32, false};
  } else if (name == "vela_drift") {
    w.transport = comm::TransportKind::kSocket;
    w.input = InputSpec{4, 16, true};
    w.expert_budget = kPagedBudget;
    w.replan = true;
    w.warmup_steps = kReplanWindow + 1;
  } else if (name == "ep_bulk") {
    w.ep = true;
    w.input = InputSpec{12, 32, false};
  } else {
    return std::nullopt;
  }
  return w;
}

model::ModelConfig bench_model() { return model::ModelConfig::tiny_mistral(); }

data::SyntheticCorpus bench_corpus() {
  return data::SyntheticCorpus(
      data::CorpusConfig::wikitext_like(bench_model().vocab, 6), kCorpusSeed);
}

std::unique_ptr<Runner> make_runner(const Workload& w,
                                    const data::SyntheticCorpus& corpus,
                                    const Batch& profile_set,
                                    double tokens_per_step,
                                    const std::string& store_dir,
                                    Tracer& tracer) {
  if (w.ep) {
    ep::EpRuntimeConfig cfg;
    cfg.model = bench_model();
    cfg.cluster = cluster::ClusterConfig::paper_testbed();
    cfg.seed = kModelSeed;
    cfg.transport = w.transport;
    Span span(tracer, "ep.construct");
    return std::make_unique<EpRunner>(cfg, corpus);
  }

  core::VelaSystemConfig cfg;
  cfg.model = bench_model();
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.seed = kModelSeed;
  cfg.transport = w.transport;
  cfg.overlap_chunks = 0;
  cfg.expert_budget = w.expert_budget;
  cfg.store_dir = store_dir;
  cfg.store_dtype = store::StoreDtype::kFp32;

  std::unique_ptr<VelaRunner> runner;
  {
    Span span(tracer, "core.construct");
    runner = std::make_unique<VelaRunner>(cfg, corpus);
  }
  core::VelaSystem& sys = *runner->vela();
  {
    Span span(tracer, "core.profile");
    sys.profile(profile_set, w.input.batch_size);
  }
  {
    Span span(tracer, "core.optimize_placement");
    sys.optimize_placement(tokens_per_step);
  }
  if (w.replan) {
    core::ReplanConfig replan;
    replan.interval = 1;
    replan.window = kReplanWindow;
    replan.min_improvement = 0.2;
    sys.enable_dynamic_replacement(replan, tokens_per_step);
  }
  return runner;
}

}  // namespace perfbench
