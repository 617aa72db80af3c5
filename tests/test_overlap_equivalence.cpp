// Overlap-pipeline equivalence (`ctest -L overlap`).
//
// The contract that makes VELA_OVERLAP a pure performance knob: at any
// pipeline depth K the micro-chunked dispatch produces bit-identical losses,
// gradients, adapter weights and per-step byte ledgers to the sequential
// exchange — threading and fragmentation may change only *when* bytes move,
// never which bytes move or what is computed from them. A run with the
// FaultInjector active additionally proves retransmitted fragments are
// charged exactly like first transmissions (no header double-count).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "comm/fault_injector.h"
#include "core/expert_broker.h"
#include "core/expert_worker.h"
#include "core/fault_tolerance.h"
#include "core/master.h"
#include "core/vela_system.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace vela {
namespace {

template <typename Fn>
auto with_threads(std::size_t threads, Fn&& fn) {
  util::ThreadPool::set_global_threads(threads);
  auto result = fn();
  util::ThreadPool::set_global_threads(0);
  return result;
}

core::VelaSystemConfig sys_config(int overlap_chunks) {
  core::VelaSystemConfig cfg;
  cfg.model = model::ModelConfig::tiny_test();
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.seed = 3;
  cfg.wire_dtype = comm::WireDtype::kFp32;
  cfg.clock.compute_seconds = 0.5;
  cfg.overlap_chunks = overlap_chunks;  // explicit: env must not leak in
  return cfg;
}

struct RunTrace {
  std::vector<float> losses;
  std::vector<double> external_mb;
  std::vector<double> step_seconds;
  std::vector<double> overlap_step_seconds;
  std::vector<std::size_t> faults_injected;
  std::vector<Tensor> expert_states;  // all (layer, expert) adapter tensors
  std::size_t retransmissions = 0;
};

RunTrace run_finetune(int overlap_chunks, int steps,
                      const comm::FaultPlan* plan = nullptr) {
  auto cfg = sys_config(overlap_chunks);
  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 17);
  comm::FaultInjector injector(plan != nullptr ? *plan : comm::FaultPlan{});
  core::VelaSystem vela(cfg, &corpus);
  if (plan != nullptr) {
    core::FaultToleranceConfig ft;
    ft.retry.timeout = std::chrono::milliseconds(60);
    ft.retry.max_retries = 4;
    ft.retry.backoff = 2.0;
    ft.snapshot_interval = 0;  // no snapshot traffic: ledgers stay comparable
    vela.enable_fault_tolerance(ft);
    vela.attach_fault_injector(&injector);
  }
  const auto batch = corpus.make_dataset(2, 6);
  RunTrace trace;
  for (int i = 0; i < steps; ++i) {
    const auto report = vela.train_step(batch);
    trace.losses.push_back(report.loss);
    trace.external_mb.push_back(report.external_mb_per_node);
    trace.step_seconds.push_back(report.step_seconds);
    trace.overlap_step_seconds.push_back(report.overlap_step_seconds);
    trace.faults_injected.push_back(report.faults_injected);
    EXPECT_EQ(report.overlap_chunks,
              static_cast<std::size_t>(overlap_chunks > 1 ? overlap_chunks : 0));
  }
  for (std::size_t l = 0; l < cfg.model.num_layers; ++l) {
    for (std::size_t e = 0; e < cfg.model.num_experts; ++e) {
      trace.expert_states.push_back(vela.master().query_expert_state(l, e));
    }
  }
  trace.retransmissions = vela.master().fault_stats().retransmissions;
  return trace;
}

void expect_traces_bit_exact(const RunTrace& a, const RunTrace& b,
                             const char* what) {
  ASSERT_EQ(a.losses.size(), b.losses.size()) << what;
  for (std::size_t i = 0; i < a.losses.size(); ++i) {
    EXPECT_TRUE(std::isfinite(a.losses[i])) << what;
    EXPECT_EQ(a.losses[i], b.losses[i]) << what << ": loss, step " << i;
    EXPECT_EQ(a.external_mb[i], b.external_mb[i])
        << what << ": metered bytes, step " << i;
    EXPECT_EQ(a.step_seconds[i], b.step_seconds[i])
        << what << ": sequential-model step time, step " << i;
  }
  ASSERT_EQ(a.expert_states.size(), b.expert_states.size()) << what;
  for (std::size_t i = 0; i < a.expert_states.size(); ++i) {
    ASSERT_EQ(a.expert_states[i].size(), b.expert_states[i].size()) << what;
    EXPECT_EQ(0, std::memcmp(a.expert_states[i].data(),
                             b.expert_states[i].data(),
                             a.expert_states[i].size() * sizeof(float)))
        << what << ": expert adapter state " << i << " differs bitwise";
  }
}

TEST(OverlapEquivalence, FullTrainingRunIsBitExactAcrossPipelineDepths) {
  // Two full fine-tuning steps (forward, backward, optimizer) at K = 0 and
  // K ∈ {2, 4, 8}: losses, per-step metered bytes and every expert adapter
  // tensor must match the sequential run bit-for-bit.
  const RunTrace sequential = run_finetune(0, 2);
  for (const int k : {2, 4, 8}) {
    const RunTrace piped = run_finetune(k, 2);
    expect_traces_bit_exact(sequential, piped,
                            ("K=" + std::to_string(k)).c_str());
    // The overlap clock must actually credit the pipeline: strictly below
    // the sequential model, never below the compute floor.
    for (std::size_t i = 0; i < piped.losses.size(); ++i) {
      EXPECT_LT(piped.overlap_step_seconds[i], piped.step_seconds[i]);
      EXPECT_GE(piped.overlap_step_seconds[i], 0.5);
    }
  }
  // With the pipeline off, the overlap series is the sequential series.
  for (std::size_t i = 0; i < sequential.losses.size(); ++i) {
    EXPECT_EQ(sequential.overlap_step_seconds[i], sequential.step_seconds[i]);
  }
}

TEST(OverlapEquivalence, ThreadedPipelineMatchesSerialSequential) {
  // The strongest cross: serial pool + sequential dispatch vs 8-lane pool +
  // depth-8 pipeline. Neither the pool size nor the pipeline depth may
  // change a single bit or byte.
  const RunTrace serial = with_threads(1, [] { return run_finetune(0, 2); });
  const RunTrace piped = with_threads(8, [] { return run_finetune(8, 2); });
  expect_traces_bit_exact(serial, piped, "serial/K=0 vs 8-lane/K=8");
}

TEST(OverlapEquivalence, EnvVarControlsPipelineDepth) {
  const auto with_env = [](const char* value) {
    if (value == nullptr) {
      ::unsetenv("VELA_OVERLAP");
    } else {
      ::setenv("VELA_OVERLAP", value, 1);
    }
    const std::size_t k = core::overlap_chunks_from_env();
    ::unsetenv("VELA_OVERLAP");
    return k;
  };
  EXPECT_EQ(with_env(nullptr), 0u);
  EXPECT_EQ(with_env("0"), 0u);
  EXPECT_EQ(with_env("1"), 0u);  // depth 1 is the sequential exchange
  EXPECT_EQ(with_env("4"), 4u);
  EXPECT_EQ(with_env("8"), 8u);
  EXPECT_EQ(with_env("999"), 255u);  // clamped: fragment header is one byte
  EXPECT_EQ(with_env("junk"), 0u);
  EXPECT_EQ(with_env("-3"), 0u);

  // The system honours the env var when the config says "ask the env", and
  // an explicit config value overrides it.
  ::setenv("VELA_OVERLAP", "4", 1);
  {
    auto cfg = sys_config(-1);
    data::SyntheticCorpus corpus(
        data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 17);
    core::VelaSystem from_env(cfg, &corpus);
    EXPECT_EQ(from_env.overlap_chunks(), 4u);
    core::VelaSystem overridden(sys_config(0), &corpus);
    EXPECT_EQ(overridden.overlap_chunks(), 0u);
  }
  ::unsetenv("VELA_OVERLAP");
}

TEST(OverlapEquivalence, FaultedOverlapRunStaysBitExact) {
  // Drop two in-flight training messages under a depth-4 pipeline. Reliable
  // retransmission must keep the run bit-identical to BOTH the fault-free
  // pipelined run and the fault-free sequential run; the retransmitted
  // bytes are metered on top.
  comm::FaultPlan plan;
  plan.rules.push_back(
      {0, comm::LinkDir::kToWorker, 2, comm::FaultKind::kDrop, 0.0});
  plan.rules.push_back(
      {2, comm::LinkDir::kToWorker, 5, comm::FaultKind::kDrop, 0.0});
  const RunTrace faulted = run_finetune(4, 2, &plan);
  const RunTrace clean = run_finetune(4, 2);
  const RunTrace sequential = run_finetune(0, 2);

  ASSERT_EQ(faulted.losses.size(), 2u);
  std::size_t faults = 0;
  for (const std::size_t f : faulted.faults_injected) faults += f;
  EXPECT_EQ(faults, 2u);
  EXPECT_GE(faulted.retransmissions, 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(faulted.losses[i], clean.losses[i]);
    EXPECT_EQ(faulted.losses[i], sequential.losses[i]);
    // Retransmissions are real wire traffic: metered once more, never less.
    EXPECT_GE(faulted.external_mb[i], clean.external_mb[i]);
  }
  double faulted_total = 0.0, clean_total = 0.0;
  for (std::size_t i = 0; i < 2; ++i) {
    faulted_total += faulted.external_mb[i];
    clean_total += clean.external_mb[i];
  }
  EXPECT_GT(faulted_total, clean_total);
  for (std::size_t i = 0; i < faulted.expert_states.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(faulted.expert_states[i].data(),
                             sequential.expert_states[i].data(),
                             faulted.expert_states[i].size() * sizeof(float)))
        << "faulted pipelined weights diverged from sequential, expert " << i;
  }
}

// --- fragment-level ledger precision -----------------------------------------

core::WorkerSpec broker_spec() {
  core::WorkerSpec s;
  s.model_dim = 8;
  s.hidden_dim = 16;
  s.lora = nn::LoRAConfig{2, 4.0f, true};
  s.base_seed = 3;
  s.wire_dtype = comm::WireDtype::kFp32;
  return s;
}

struct BrokerRun {
  Tensor output;
  comm::VelaStepRecord record;
  std::uint64_t retransmissions = 0;
};

// One chunked expert_forward against a single worker hosting one expert;
// 8 rows at depth 4 → four 2-row fragments, message order on the link is
// chunk 0, 1, 2, 3 (then the replies).
BrokerRun run_chunked_forward(const comm::FaultPlan* plan) {
  comm::FaultInjector injector(plan != nullptr ? *plan : comm::FaultPlan{});
  comm::DuplexLink link(comm::TransportKind::kDefault, 0, 0, nullptr);
  if (plan != nullptr) link.set_fault_injector(&injector, 0);
  core::ExpertWorker worker(broker_spec(), &link, {{0, 0}});
  worker.start();
  core::RetryPolicy policy;
  policy.timeout = std::chrono::milliseconds(60);
  policy.max_retries = 4;
  policy.backoff = 2.0;
  core::ReliableLink rlink(0, &link, &policy);
  placement::Placement placement(1, 1);
  placement.assign(0, 0, 0);
  core::ExpertBroker broker({&rlink}, &placement, 1, comm::WireCodec{});
  broker.set_overlap_chunks(4);
  broker.begin_step();
  Rng xr(5);
  const Tensor x = ops::randn({8, 8}, xr);
  BrokerRun run;
  run.output = broker.expert_forward(0, 0, ag::Variable::constant(x)).value();
  run.record = broker.finish_step();
  run.retransmissions = rlink.stats().retransmissions;
  link.to_worker.close();
  worker.join();
  return run;
}

TEST(OverlapEquivalence, RetransmittedContinuationChargesPayloadOnly) {
  // Drop the second fragment (a header-free continuation) of a 4-chunk
  // dispatch. The retransmission must be charged to the ledger exactly like
  // the first transmission of that fragment: payload-only bytes, zero
  // additional messages — the logical transfer's header and message count
  // were already paid by fragment 0.
  comm::FaultPlan plan;
  plan.rules.push_back(
      {0, comm::LinkDir::kToWorker, 1, comm::FaultKind::kDrop, 0.0});
  const BrokerRun faulted = run_chunked_forward(&plan);
  const BrokerRun clean = run_chunked_forward(nullptr);

  EXPECT_EQ(faulted.retransmissions, 1u);
  ASSERT_EQ(faulted.output.shape(), clean.output.shape());
  EXPECT_EQ(0, std::memcmp(faulted.output.data(), clean.output.data(),
                           clean.output.size() * sizeof(float)));

  // Expected delta: the wire size of exactly one continuation fragment —
  // rows [2, 4) of the 8×8 input, chunk_index 1 → no header bytes.
  Rng xr(5);
  const Tensor x = ops::randn({8, 8}, xr);
  comm::Message frag;
  frag.type = comm::MessageType::kExpertForward;
  frag.wire_bits = 32;
  frag.chunk_index = 1;
  frag.chunk_count = 4;
  frag.payload = ops::slice_rows(x, 2, 2);
  const std::uint64_t continuation_bytes = frag.wire_size();
  EXPECT_GT(continuation_bytes, 0u);

  ASSERT_EQ(faulted.record.phases.size(), clean.record.phases.size());
  // One layer → phases[0] is the forward ledger, phases[1] the (empty)
  // backward ledger.
  ASSERT_EQ(faulted.record.phases[0].bytes.size(), 1u);
  EXPECT_EQ(faulted.record.phases[0].bytes[0],
            clean.record.phases[0].bytes[0] + continuation_bytes);
  // No header double-count: the message tally is identical.
  EXPECT_EQ(faulted.record.phases[0].messages, clean.record.phases[0].messages);
  EXPECT_EQ(faulted.record.phases[1].bytes, clean.record.phases[1].bytes);
}

TEST(OverlapEquivalence, ChunkedForwardLedgerMatchesSequential) {
  // Byte invariance at the ledger level, not just the MB roll-up: the
  // chunked dispatch must record the same per-phase bytes AND messages as
  // the sequential dispatch of the same group.
  const auto run_at_depth = [](std::size_t k) {
    comm::DuplexLink link(comm::TransportKind::kDefault, 0, 0, nullptr);
    core::ExpertWorker worker(broker_spec(), &link, {{0, 0}});
    worker.start();
    core::RetryPolicy policy;
    policy.timeout = std::chrono::milliseconds(500);
    policy.max_retries = 2;
    core::ReliableLink rlink(0, &link, &policy);
    placement::Placement placement(1, 1);
    placement.assign(0, 0, 0);
    core::ExpertBroker broker({&rlink}, &placement, 1, comm::WireCodec{});
    broker.set_overlap_chunks(k);
    broker.begin_step();
    Rng xr(5);
    const Tensor x = ops::randn({8, 8}, xr);
    BrokerRun run;
    run.output =
        broker.expert_forward(0, 0, ag::Variable::constant(x)).value();
    run.record = broker.finish_step();
    link.to_worker.close();
    worker.join();
    return run;
  };
  const BrokerRun sequential = run_at_depth(0);
  for (const std::size_t k : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const BrokerRun chunked = run_at_depth(k);
    ASSERT_EQ(chunked.output.shape(), sequential.output.shape());
    EXPECT_EQ(0,
              std::memcmp(chunked.output.data(), sequential.output.data(),
                          sequential.output.size() * sizeof(float)))
        << "depth " << k;
    ASSERT_EQ(chunked.record.phases.size(), sequential.record.phases.size());
    for (std::size_t p = 0; p < sequential.record.phases.size(); ++p) {
      EXPECT_EQ(chunked.record.phases[p].bytes,
                sequential.record.phases[p].bytes)
          << "depth " << k << ", phase " << p;
      EXPECT_EQ(chunked.record.phases[p].messages,
                sequential.record.phases[p].messages)
          << "depth " << k << ", phase " << p;
    }
  }
}

}  // namespace
}  // namespace vela
