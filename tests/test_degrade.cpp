// Degrade-and-continue tests (`ctest -L degrade`, DESIGN.md §11).
//
// The elastic-fault-tolerance contract: a worker that exhausts its respawn
// budget is declared dead, the placement is re-solved for the survivors
// (degrade_placement — healthy assignments kept, orphans to the cheapest
// survivor), orphaned experts are live-migrated from the freshest recovery
// source with their bytes charged to the recovery phase, and training
// continues at reduced capacity. The equivalence gate at the bottom pins
// the strongest form: a kill-then-degrade run matches a fresh
// reduced-topology run's loss trajectory bit for bit.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "cluster/topology.h"
#include "comm/fault_injector.h"
#include "core/master.h"
#include "core/vela_system.h"
#include "data/corpus.h"
#include "placement/degrade.h"
#include "placement/placement.h"
#include "tensor/tensor.h"
#include "util/audit.h"
#include "util/clock.h"

namespace vela {
namespace {

core::WorkerSpec spec() {
  core::WorkerSpec s;
  s.model_dim = 8;
  s.hidden_dim = 16;
  s.lora = nn::LoRAConfig{2, 4.0f, true};
  s.base_seed = 3;
  s.wire_dtype = comm::WireDtype::kFp32;
  return s;
}

placement::Placement one_layer_placement(std::size_t experts,
                                         std::size_t workers) {
  placement::Placement p(1, experts);
  for (std::size_t e = 0; e < experts; ++e) p.assign(0, e, e % workers);
  return p;
}

core::RetryPolicy fast_policy() {
  core::RetryPolicy policy;
  policy.timeout = std::chrono::milliseconds(60);
  policy.max_retries = 4;
  policy.backoff = 2.0;
  return policy;
}

void expect_same_placement(const placement::Placement& a,
                           const placement::Placement& b) {
  ASSERT_EQ(a.num_layers(), b.num_layers());
  ASSERT_EQ(a.num_experts(), b.num_experts());
  for (std::size_t l = 0; l < a.num_layers(); ++l) {
    for (std::size_t e = 0; e < a.num_experts(); ++e) {
      EXPECT_EQ(a.worker_of(l, e), b.worker_of(l, e))
          << "expert (" << l << ", " << e << ")";
    }
  }
}

// --- degrade_placement -------------------------------------------------------

TEST(DegradePlacement, OrphansGoToTheLeastLoadedSurvivor) {
  placement::Placement cur(1, 4);
  cur.assign(0, 0, 0);
  cur.assign(0, 1, 1);
  cur.assign(0, 2, 2);
  cur.assign(0, 3, 0);  // w0 carries 2, w1 and w2 carry 1 each
  const std::vector<bool> dead = {false, true, false};

  const placement::Placement next =
      placement::degrade_placement(cur, dead, nullptr);
  // Healthy assignments are untouched …
  EXPECT_EQ(next.worker_of(0, 0), 0u);
  EXPECT_EQ(next.worker_of(0, 2), 2u);
  EXPECT_EQ(next.worker_of(0, 3), 0u);
  // … and the orphan goes to the least-loaded survivor (w2: 1 < w0: 2).
  EXPECT_EQ(next.worker_of(0, 1), 2u);
}

TEST(DegradePlacement, LoadTiesBreakTowardTheLowerWorkerId) {
  placement::Placement cur(1, 3);
  cur.assign(0, 0, 0);
  cur.assign(0, 1, 1);
  cur.assign(0, 2, 2);
  const std::vector<bool> dead = {false, true, false};

  const placement::Placement next =
      placement::degrade_placement(cur, dead, nullptr);
  EXPECT_EQ(next.worker_of(0, 1), 0u);  // w0 and w2 tie at load 1
}

placement::PlacementProblem three_worker_problem() {
  placement::PlacementProblem pb;
  pb.num_workers = 3;
  pb.num_layers = 1;
  pb.num_experts = 3;
  pb.probability = Tensor::ones({1, 3});
  // Worker 2's fat pipe makes it the cheapest host for any orphan.
  pb.bandwidth = {1e6, 1e6, 8e6};
  pb.capacity = {2, 2, 2};
  pb.worker_node = {0, 1, 2};
  pb.master_node = 0;
  pb.tokens_per_step = 64.0;
  pb.bytes_per_token = 4.0;
  return pb;
}

TEST(DegradePlacement, CostModelPrefersTheCheapSurvivor) {
  placement::Placement cur(1, 3);
  cur.assign(0, 0, 0);
  cur.assign(0, 1, 1);
  cur.assign(0, 2, 2);
  const std::vector<bool> dead = {false, true, false};
  const placement::PlacementProblem pb = three_worker_problem();

  const placement::Placement next =
      placement::degrade_placement(cur, dead, &pb);
  // Without the cost model the load tie broke toward w0; with it the
  // orphan pays the lower coefficient on w2's faster link.
  EXPECT_EQ(next.worker_of(0, 1), 2u);
  EXPECT_EQ(next.worker_of(0, 0), 0u);
  EXPECT_EQ(next.worker_of(0, 2), 2u);
}

TEST(DegradePlacement, FullSurvivorsRelaxCapacityInsteadOfStalling) {
  placement::Placement cur(1, 3);
  cur.assign(0, 0, 0);
  cur.assign(0, 1, 1);
  cur.assign(0, 2, 2);
  const std::vector<bool> dead = {false, true, false};
  placement::PlacementProblem pb = three_worker_problem();
  pb.capacity = {1, 1, 1};  // every survivor is already full

  const placement::Placement next =
      placement::degrade_placement(cur, dead, &pb);
  // Training at reduced capacity beats stalling: the cap is relaxed and
  // the orphan still lands on the cheapest survivor.
  EXPECT_EQ(next.worker_of(0, 1), 2u);
  const auto loads = next.worker_loads(3);
  EXPECT_EQ(loads[2], 2u);
}

TEST(DegradePlacement, DeterministicAcrossCallsAndMultipleDeaths) {
  placement::Placement cur(2, 4);
  for (std::size_t l = 0; l < 2; ++l) {
    for (std::size_t e = 0; e < 4; ++e) cur.assign(l, e, e % 4);
  }
  const std::vector<bool> dead = {false, true, false, true};

  const placement::Placement a =
      placement::degrade_placement(cur, dead, nullptr);
  const placement::Placement b =
      placement::degrade_placement(cur, dead, nullptr);
  expect_same_placement(a, b);
  for (std::size_t l = 0; l < 2; ++l) {
    for (std::size_t e = 0; e < 4; ++e) {
      const std::size_t w = a.worker_of(l, e);
      EXPECT_TRUE(w == 0 || w == 2) << "expert (" << l << ", " << e
                                    << ") placed on dead worker " << w;
    }
  }
}

// --- MasterProcess degrade path ----------------------------------------------

TEST(MasterDegrade, MigratesOrphansAndMetersRecoveryBytes) {
  cluster::ClusterTopology topology(cluster::ClusterConfig::paper_testbed());
  core::MasterProcess master(topology, spec(), one_layer_placement(4, 5), 1,
                             4);
  master.set_retry_policy(fast_policy());
  master.snapshot_experts();
  const Tensor before = master.query_expert_state(0, 1);
  const std::size_t recovery_before = master.recovery_bytes();

  master.mark_worker_dead(1);
  EXPECT_TRUE(master.dead_mask()[1]);
  EXPECT_EQ(master.num_live_workers(), 4u);
  EXPECT_FALSE(master.probe_worker(1));

  const placement::Placement next = placement::degrade_placement(
      master.placement(), master.dead_mask(), nullptr);
  master.degrade_to(next);
  EXPECT_NE(master.placement().worker_of(0, 1), 1u);

  // The orphan was restored bit-exactly from the snapshot on its new host.
  const Tensor after = master.query_expert_state(0, 1);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i], before[i]);
  }
  // Migration bytes were tallied and charged to the recovery phase.
  EXPECT_GT(master.recovery_bytes(), recovery_before);
  EXPECT_GT(master.meter().lifetime_recovery_bytes(), 0u);
  master.shutdown();
  master.shutdown();  // robust with a dead worker, twice
}

TEST(MasterDegrade, DeadStandbyHostIsSkippedAsRecoverySource) {
  cluster::ClusterTopology topology(cluster::ClusterConfig::paper_testbed());
  core::MasterProcess master(topology, spec(), one_layer_placement(4, 5), 1,
                             4);
  master.set_retry_policy(fast_policy());
  master.add_standby_replica(0, 1, 4);  // worker 4 hosts no primaries
  master.snapshot_experts();
  const Tensor before = master.query_expert_state(0, 1);

  // The standby's host dies first, then the primary's: recovery must fall
  // back to the snapshot without ever touching the dead standby.
  master.mark_worker_dead(4);
  master.mark_worker_dead(1);
  EXPECT_EQ(master.num_live_workers(), 3u);
  const placement::Placement next = placement::degrade_placement(
      master.placement(), master.dead_mask(), nullptr);
  master.degrade_to(next);

  const Tensor after = master.query_expert_state(0, 1);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i], before[i]);
  }
  master.shutdown();
}

// A scripted connection death (sever + refuse every reconnect) must kill a
// worker identically on both backends: the probe that hits the sever fails
// at the same index, and the degrade that follows computes the same
// placement and restores the same bytes.
TEST(MasterDegrade, ScriptedSeverKillsIdenticallyOnBothBackends) {
  ::setenv("VELA_RECONNECT_ATTEMPTS", "2", 1);
  struct Outcome {
    int first_failed_probe = -1;
    std::vector<std::size_t> declared_dead;
    placement::Placement placement;
    std::vector<Tensor> states;
  };
  std::vector<Outcome> outcomes;

  const comm::TransportKind kinds[] = {comm::TransportKind::kInProc,
                                       comm::TransportKind::kSocket};
  for (const auto kind : kinds) {
    SCOPED_TRACE(comm::transport_kind_name(kind));
    cluster::ClusterTopology topology(
        cluster::ClusterConfig::paper_testbed());
    core::MasterProcess master(topology, spec(), one_layer_placement(4, 5),
                               1, 4, kind);
    master.set_retry_policy(fast_policy());
    master.set_respawn_budget(0);
    master.snapshot_experts();

    comm::FaultPlan plan;
    comm::ConnectionFaultRule rule;
    rule.link = 2;
    rule.dir = comm::LinkDir::kToWorker;
    rule.script.severs.push_back({40, 0});
    rule.script.refuse_reconnects = 99;
    plan.connection_rules.push_back(rule);
    comm::FaultInjector injector(plan);
    master.attach_fault_injector(&injector);

    Outcome out;
    for (int i = 0; i < 80; ++i) {
      if (!master.probe_worker(2)) {
        out.first_failed_probe = i;
        break;
      }
    }
    ASSERT_NE(out.first_failed_probe, -1) << "scripted sever never fired";

    const core::RecoveryReport report = master.recover_step();
    EXPECT_EQ(report.respawned, 0u);
    out.declared_dead = report.declared_dead;
    ASSERT_EQ(out.declared_dead.size(), 1u);
    EXPECT_EQ(out.declared_dead[0], 2u);

    master.degrade_to(placement::degrade_placement(
        master.placement(), master.dead_mask(), nullptr));
    out.placement = master.placement();
    for (std::size_t e = 0; e < 4; ++e) {
      out.states.push_back(master.query_expert_state(0, e));
    }
    master.shutdown();
    outcomes.push_back(std::move(out));
  }
  ::unsetenv("VELA_RECONNECT_ATTEMPTS");

  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].first_failed_probe, outcomes[1].first_failed_probe);
  EXPECT_EQ(outcomes[0].declared_dead, outcomes[1].declared_dead);
  expect_same_placement(outcomes[0].placement, outcomes[1].placement);
  for (std::size_t e = 0; e < 4; ++e) {
    ASSERT_EQ(outcomes[0].states[e].size(), outcomes[1].states[e].size());
    for (std::size_t i = 0; i < outcomes[0].states[e].size(); ++i) {
      EXPECT_EQ(outcomes[0].states[e][i], outcomes[1].states[e][i])
          << "expert " << e << " diverged across backends at element " << i;
    }
  }
}

// --- VelaSystem: kill, degrade, continue -------------------------------------

core::VelaSystemConfig sys_config() {
  core::VelaSystemConfig cfg;
  cfg.model = model::ModelConfig::tiny_test();
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.seed = 3;
  cfg.wire_dtype = comm::WireDtype::kFp32;
  cfg.clock.compute_seconds = 0.5;
  return cfg;
}

core::FaultToleranceConfig degrade_ft() {
  core::FaultToleranceConfig ft;
  ft.retry = fast_policy();
  ft.snapshot_interval = 1;
  ft.respawn_budget = 0;  // first failure degrades
  return ft;
}

TEST(VelaDegrade, KillMidStepDegradesAndTrainingContinues) {
  auto cfg = sys_config();
  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 17);
  comm::FaultPlan plan;
  plan.rules.push_back(
      {1, comm::LinkDir::kToWorker, 0, comm::FaultKind::kCrashWorker, 0.0});
  comm::FaultInjector injector(plan);
  core::VelaSystem vela(cfg, &corpus);
  vela.enable_fault_tolerance(degrade_ft());
  vela.attach_fault_injector(&injector);

  const std::size_t fleet = vela.master().num_workers();
  auto batch = corpus.make_dataset(2, 6);
  std::vector<core::StepReport> reports;
  for (int i = 0; i < 3; ++i) reports.push_back(vela.train_step(batch));

  // The first training message to worker 1 was a poison pill: step 0 hit
  // the failure, declared the worker dead (budget 0) and completed on the
  // survivors.
  EXPECT_EQ(reports[0].workers_lost, 1u);
  EXPECT_GE(reports[0].retries, 1u);
  EXPECT_GT(reports[0].recovery_mb, 0.0);
  EXPECT_EQ(reports[1].workers_lost, 0u);
  EXPECT_EQ(reports[2].workers_lost, 0u);
  for (const auto& r : reports) EXPECT_TRUE(std::isfinite(r.loss));

  EXPECT_TRUE(vela.master().dead_mask()[1]);
  EXPECT_EQ(vela.master().num_live_workers(), fleet - 1);
  const auto& placement = vela.master().placement();
  for (std::size_t l = 0; l < placement.num_layers(); ++l) {
    for (std::size_t e = 0; e < placement.num_experts(); ++e) {
      EXPECT_NE(placement.worker_of(l, e), 1u);
    }
  }
}

// The equivalence gate: killing a worker during step 0 and degrading must
// produce the exact loss trajectory of a run that started on the degraded
// placement. The kill lands before any optimizer step, so both paths carry
// identical expert state (initial adapters, zero moments) onto the
// survivors — from the migration step onward the runs are the same
// computation bit for bit.
TEST(VelaDegrade, DegradedRunMatchesReducedTopologyRunBitForBit) {
  auto cfg = sys_config();
  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 17);
  auto batch = corpus.make_dataset(2, 6);

  // Run A: worker 1 dies mid-step-0, budget 0 → degrade → retry.
  std::vector<float> losses_a;
  placement::Placement degraded;
  {
    comm::FaultPlan plan;
    plan.rules.push_back({1, comm::LinkDir::kToWorker, 0,
                          comm::FaultKind::kCrashWorker, 0.0});
    comm::FaultInjector injector(plan);
    core::VelaSystem vela(cfg, &corpus);
    vela.enable_fault_tolerance(degrade_ft());
    vela.attach_fault_injector(&injector);
    for (int i = 0; i < 3; ++i) losses_a.push_back(vela.train_step(batch).loss);
    ASSERT_TRUE(vela.master().dead_mask()[1]);
    degraded = vela.master().placement();
  }

  // Run B: a healthy fleet that starts step 0 on A's degraded placement.
  std::vector<float> losses_b;
  {
    core::VelaSystem vela(cfg, &corpus);
    core::FaultToleranceConfig ft;
    ft.retry = fast_policy();
    ft.snapshot_interval = 1;
    vela.enable_fault_tolerance(ft);
    vela.set_placement(degraded);
    for (int i = 0; i < 3; ++i) losses_b.push_back(vela.train_step(batch).loss);
  }

  ASSERT_EQ(losses_a.size(), losses_b.size());
  for (std::size_t i = 0; i < losses_a.size(); ++i) {
    EXPECT_EQ(losses_a[i], losses_b[i]) << "loss diverged at step " << i;
  }
}

TEST(VelaDegrade, KillThenDegradeIsBackendInvariant) {
  struct Outcome {
    std::vector<float> losses;
    std::vector<bool> dead;
    placement::Placement placement;
  };
  std::vector<Outcome> outcomes;
  const comm::TransportKind kinds[] = {comm::TransportKind::kInProc,
                                       comm::TransportKind::kSocket};
  for (const auto kind : kinds) {
    SCOPED_TRACE(comm::transport_kind_name(kind));
    auto cfg = sys_config();
    cfg.transport = kind;
    data::SyntheticCorpus corpus(
        data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 17);
    comm::FaultPlan plan;
    plan.rules.push_back({2, comm::LinkDir::kToWorker, 1,
                          comm::FaultKind::kCrashWorker, 0.0});
    comm::FaultInjector injector(plan);
    core::VelaSystem vela(cfg, &corpus);
    vela.enable_fault_tolerance(degrade_ft());
    vela.attach_fault_injector(&injector);
    auto batch = corpus.make_dataset(2, 6);
    Outcome out;
    for (int i = 0; i < 2; ++i) out.losses.push_back(vela.train_step(batch).loss);
    out.dead = vela.master().dead_mask();
    out.placement = vela.master().placement();
    outcomes.push_back(std::move(out));
  }
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].losses, outcomes[1].losses);
  EXPECT_EQ(outcomes[0].dead, outcomes[1].dead);
  expect_same_placement(outcomes[0].placement, outcomes[1].placement);
}

// Soak: 200 steps with two scripted kills at different depths. Training
// must neither wedge nor diverge — every step completes with a finite
// loss, both kills degrade cleanly, and the run ends with two workers
// gone. (Run under TSan in the sanitizer build; the degrade path crosses
// the broker, the retry layer and the worker join.)
TEST(VelaDegrade, TwoHundredStepKillSoakStaysStable) {
  auto cfg = sys_config();
  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 17);
  comm::FaultPlan plan;
  plan.rules.push_back(
      {1, comm::LinkDir::kToWorker, 5, comm::FaultKind::kCrashWorker, 0.0});
  plan.rules.push_back({3, comm::LinkDir::kToWorker, 450,
                        comm::FaultKind::kCrashWorker, 0.0});
  comm::FaultInjector injector(plan);
  core::VelaSystem vela(cfg, &corpus);
  core::FaultToleranceConfig ft = degrade_ft();
  ft.snapshot_interval = 5;
  vela.enable_fault_tolerance(ft);
  vela.attach_fault_injector(&injector);

  const std::size_t fleet = vela.master().num_workers();
  auto batch = corpus.make_dataset(2, 6);
  std::size_t lost = 0;
  for (int i = 0; i < 200; ++i) {
    const auto r = vela.train_step(batch);
    ASSERT_TRUE(std::isfinite(r.loss)) << "step " << i;
    lost += r.workers_lost;
  }
  EXPECT_EQ(lost, 2u);
  EXPECT_EQ(vela.master().num_live_workers(), fleet - 2);
  EXPECT_TRUE(vela.master().dead_mask()[1]);
  EXPECT_TRUE(vela.master().dead_mask()[3]);
}

// The acceptance gate of DESIGN.md §11 in one test: on the socket backend,
// a scripted connection sever with every reconnect refused walks the full
// path — sever → reconnect refused → worker dead → re-placement →
// continue — under VELA_AUDIT, with zero conservation violations.
TEST(VelaDegrade, AuditedSeverKillAndDegradeBalancesOnSocket) {
  ::setenv("VELA_RECONNECT_ATTEMPTS", "2", 1);
  audit::set_enabled_for_testing(true);
  audit::ConservationLedger::instance().reset_for_testing();
  std::vector<std::pair<std::string, std::string>> violations;
  audit::set_violation_handler(
      [&violations](const std::string& category, const std::string& detail) {
        violations.emplace_back(category, detail);
      });
  std::size_t lost = 0;
  {
    auto cfg = sys_config();
    cfg.transport = comm::TransportKind::kSocket;
    data::SyntheticCorpus corpus(
        data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 17);
    comm::FaultPlan plan;
    comm::ConnectionFaultRule rule;
    rule.link = 1;
    rule.dir = comm::LinkDir::kToWorker;
    rule.script.severs.push_back({60, 0});
    rule.script.refuse_reconnects = 99;
    plan.connection_rules.push_back(rule);
    comm::FaultInjector injector(plan);
    core::VelaSystem vela(cfg, &corpus);
    vela.enable_fault_tolerance(degrade_ft());
    vela.attach_fault_injector(&injector);
    auto batch = corpus.make_dataset(2, 6);
    for (int i = 0; i < 15; ++i) {
      const auto r = vela.train_step(batch);
      ASSERT_TRUE(std::isfinite(r.loss)) << "step " << i;
      lost += r.workers_lost;
    }
    EXPECT_EQ(lost, 1u);
    EXPECT_TRUE(vela.master().dead_mask()[1]);
  }
  audit::set_violation_handler(nullptr);
  audit::ConservationLedger::instance().reset_for_testing();
  audit::set_enabled_for_testing(false);
  ::unsetenv("VELA_RECONNECT_ATTEMPTS");
  EXPECT_TRUE(violations.empty())
      << violations.size() << " audit violation(s), first: "
      << violations.front().first << ": " << violations.front().second;
}

}  // namespace
}  // namespace vela
