// Heartbeat/liveness protocol tests (`ctest -L degrade`, DESIGN.md §11).
//
// Three layers:
//  * PeerHealth — the per-peer state machine in isolation, driven by
//    explicit time points (healthy → suspect → dead, snap-back, terminal
//    dead, probe scheduling);
//  * HeartbeatMonitor — the fleet view on an injected FakeClock;
//  * MasterProcess / VelaSystem — probes ride the real ReliableLink, a
//    worker that dies while idle is detected by the tick, respawned within
//    budget or declared dead and degraded around.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "comm/fault_injector.h"
#include "core/expert_worker.h"
#include "core/liveness.h"
#include "core/master.h"
#include "core/vela_system.h"
#include "data/corpus.h"
#include "placement/degrade.h"
#include "util/clock.h"

namespace vela {
namespace {

using std::chrono::milliseconds;
using core::LivenessConfig;
using core::PeerState;

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
  policy.timeout = milliseconds(60);
  policy.max_retries = 4;
  policy.backoff = 2.0;
  return policy;
}

LivenessConfig beat(std::int64_t interval_ms, int suspect_after,
                    int dead_after) {
  LivenessConfig cfg;
  cfg.interval = milliseconds(interval_ms);
  cfg.suspect_after = suspect_after;
  cfg.dead_after = dead_after;
  return cfg;
}

// --- PeerHealth state machine ------------------------------------------------

TEST(PeerHealth, WalksHealthySuspectDead) {
  const auto t0 = util::Clock::time_point{} + std::chrono::hours(1);
  core::PeerHealth h(beat(100, 1, 3), t0);
  EXPECT_EQ(h.state(), PeerState::kHealthy);
  EXPECT_EQ(h.consecutive_misses(), 0);

  h.on_miss(t0 + milliseconds(100));
  EXPECT_EQ(h.state(), PeerState::kSuspect);
  EXPECT_EQ(h.consecutive_misses(), 1);
  h.on_miss(t0 + milliseconds(200));
  EXPECT_EQ(h.state(), PeerState::kSuspect);
  h.on_miss(t0 + milliseconds(300));
  EXPECT_EQ(h.state(), PeerState::kDead);
  EXPECT_EQ(h.consecutive_misses(), 3);
}

TEST(PeerHealth, AckSnapsSuspectBackToHealthy) {
  const auto t0 = util::Clock::time_point{} + std::chrono::hours(1);
  core::PeerHealth h(beat(100, 1, 3), t0);
  h.on_miss(t0 + milliseconds(100));
  ASSERT_EQ(h.state(), PeerState::kSuspect);
  h.on_ack(t0 + milliseconds(150));
  EXPECT_EQ(h.state(), PeerState::kHealthy);
  EXPECT_EQ(h.consecutive_misses(), 0);
}

TEST(PeerHealth, DeadIsTerminalUntilReset) {
  const auto t0 = util::Clock::time_point{} + std::chrono::hours(1);
  core::PeerHealth h(beat(100, 1, 2), t0);
  h.on_miss(t0 + milliseconds(100));
  h.on_miss(t0 + milliseconds(200));
  ASSERT_EQ(h.state(), PeerState::kDead);
  // Neither acks nor further misses move a dead peer.
  h.on_ack(t0 + milliseconds(300));
  EXPECT_EQ(h.state(), PeerState::kDead);
  h.on_miss(t0 + milliseconds(400));
  EXPECT_EQ(h.consecutive_misses(), 2);
  // Dead peers are never probed again.
  EXPECT_FALSE(h.probe_due(t0 + std::chrono::hours(10)));
  // Only the recovery path's explicit reset revives it.
  h.reset(t0 + milliseconds(500));
  EXPECT_EQ(h.state(), PeerState::kHealthy);
  EXPECT_EQ(h.consecutive_misses(), 0);
}

TEST(PeerHealth, MarkDeadSkipsTheMissLadder) {
  const auto t0 = util::Clock::time_point{} + std::chrono::hours(1);
  core::PeerHealth h(beat(100, 1, 3), t0);
  h.mark_dead();
  EXPECT_EQ(h.state(), PeerState::kDead);
  EXPECT_EQ(h.consecutive_misses(), 3);
}

TEST(PeerHealth, ProbeScheduleFollowsTheClock) {
  const auto t0 = util::Clock::time_point{} + std::chrono::hours(1);
  core::PeerHealth h(beat(100, 1, 3), t0);
  EXPECT_FALSE(h.probe_due(t0));
  EXPECT_FALSE(h.probe_due(t0 + milliseconds(99)));
  EXPECT_TRUE(h.probe_due(t0 + milliseconds(100)));

  // A miss re-arms the timer (the probe itself counts as a check) …
  h.on_miss(t0 + milliseconds(100));
  EXPECT_FALSE(h.probe_due(t0 + milliseconds(150)));
  EXPECT_TRUE(h.probe_due(t0 + milliseconds(200)));
  // … and so does an ack.
  h.on_ack(t0 + milliseconds(200));
  EXPECT_FALSE(h.probe_due(t0 + milliseconds(250)));
  EXPECT_TRUE(h.probe_due(t0 + milliseconds(300)));
}

TEST(PeerHealth, ZeroIntervalDisablesProbing) {
  const auto t0 = util::Clock::time_point{} + std::chrono::hours(1);
  core::PeerHealth h(beat(0, 1, 3), t0);
  EXPECT_FALSE(h.probe_due(t0 + std::chrono::hours(10)));
}

// --- env parsing -------------------------------------------------------------

TEST(LivenessConfigEnv, ReadsHeartbeatInterval) {
  const char* saved = std::getenv("VELA_HEARTBEAT_MS");
  const std::string saved_value = saved != nullptr ? saved : "";

  ::setenv("VELA_HEARTBEAT_MS", "250", 1);
  EXPECT_EQ(core::liveness_config_from_env().interval, milliseconds(250));
  ::setenv("VELA_HEARTBEAT_MS", "0", 1);
  EXPECT_EQ(core::liveness_config_from_env().interval, milliseconds(0));
  ::unsetenv("VELA_HEARTBEAT_MS");
  EXPECT_EQ(core::liveness_config_from_env().interval, milliseconds(0));

  if (saved != nullptr) {
    ::setenv("VELA_HEARTBEAT_MS", saved_value.c_str(), 1);
  }
}

// --- HeartbeatMonitor --------------------------------------------------------

TEST(HeartbeatMonitor, TracksAFleetOnTheInjectedClock) {
  util::FakeClock clock;
  core::HeartbeatMonitor monitor(3, beat(50, 1, 2), &clock);
  ASSERT_TRUE(monitor.enabled());
  EXPECT_EQ(monitor.num_peers(), 3u);
  EXPECT_FALSE(monitor.due(0));

  clock.advance(milliseconds(50));
  EXPECT_TRUE(monitor.due(0));
  EXPECT_TRUE(monitor.due(1));
  EXPECT_TRUE(monitor.due(2));

  monitor.record_ack(0);
  EXPECT_FALSE(monitor.due(0));
  monitor.record_miss(1);
  EXPECT_EQ(monitor.state(1), PeerState::kSuspect);
  EXPECT_FALSE(monitor.due(1));  // the miss re-armed peer 1's timer
  monitor.mark_dead(2);
  EXPECT_EQ(monitor.state(2), PeerState::kDead);

  EXPECT_EQ(monitor.count(PeerState::kHealthy), 1u);
  EXPECT_EQ(monitor.count(PeerState::kSuspect), 1u);
  EXPECT_EQ(monitor.count(PeerState::kDead), 1u);

  clock.advance(milliseconds(50));
  EXPECT_TRUE(monitor.due(0));
  EXPECT_TRUE(monitor.due(1));
  EXPECT_FALSE(monitor.due(2));  // dead: never probed

  monitor.record_miss(1);
  EXPECT_EQ(monitor.state(1), PeerState::kDead);

  monitor.reset_peer(2);
  EXPECT_EQ(monitor.state(2), PeerState::kHealthy);
}

// --- MasterProcess integration ----------------------------------------------

TEST(MasterHeartbeat, TickIsANoopWithoutEnable) {
  cluster::ClusterTopology topology(cluster::ClusterConfig::paper_testbed());
  core::MasterProcess master(topology, spec(), one_layer_placement(4, 5), 1,
                             4);
  EXPECT_EQ(master.heartbeat(), nullptr);
  const core::RecoveryReport report = master.heartbeat_tick();
  EXPECT_EQ(report.respawned, 0u);
  EXPECT_TRUE(report.declared_dead.empty());
  master.shutdown();
}

TEST(MasterHeartbeat, DetectsIdleDeathAndRespawnsWithinBudget) {
  cluster::ClusterTopology topology(cluster::ClusterConfig::paper_testbed());
  core::MasterProcess master(topology, spec(), one_layer_placement(4, 5), 1,
                             4);
  master.set_retry_policy(fast_policy());
  // A generous real slice: each virtual retry budget blocks for its full
  // real duration (waking early on arrival), so a probe reply delayed by
  // CPU contention is not mistaken for a miss on the socket backend.
  util::FakeClock clock(milliseconds(250));
  master.set_clock(&clock);
  master.snapshot_experts();
  master.enable_heartbeat(beat(100, 1, 2));
  ASSERT_NE(master.heartbeat(), nullptr);

  // Nothing is due yet: the tick sends no probes and reports nothing.
  core::RecoveryReport report = master.heartbeat_tick();
  EXPECT_EQ(report.respawned, 0u);

  // First full pass: every peer answers, the fleet stays healthy.
  clock.advance(milliseconds(150));
  report = master.heartbeat_tick();
  EXPECT_EQ(report.respawned, 0u);
  EXPECT_EQ(master.heartbeat()->count(PeerState::kHealthy), 5u);

  // Worker 2 dies while idle: the next message on its link (which is the
  // heartbeat probe itself — no training traffic flows here) is a poison
  // pill.
  comm::FaultPlan plan;
  plan.rules.push_back(
      {2, comm::LinkDir::kToWorker, 0, comm::FaultKind::kCrashWorker, 0.0});
  comm::FaultInjector injector(plan);
  master.attach_fault_injector(&injector);

  clock.advance(milliseconds(150));
  report = master.heartbeat_tick();
  EXPECT_EQ(report.respawned, 0u);  // one miss: suspect, not dead
  EXPECT_EQ(master.heartbeat()->state(2), PeerState::kSuspect);
  EXPECT_EQ(master.heartbeat()->consecutive_misses(2), 1);

  clock.advance(milliseconds(150));
  report = master.heartbeat_tick();  // second miss: dead → respawned
  EXPECT_EQ(report.respawned, 1u);
  EXPECT_TRUE(report.declared_dead.empty());
  EXPECT_EQ(master.heartbeat()->state(2), PeerState::kHealthy);
  EXPECT_EQ(master.workers_recovered(), 1u);
  EXPECT_TRUE(master.probe_worker(2));

  // The respawned worker serves its expert again, bit-exactly restored.
  Tensor state = master.query_expert_state(0, 2);
  EXPECT_GT(state.size(), 0u);
  master.shutdown();
}

TEST(MasterHeartbeat, ExhaustedBudgetDeclaresDeadAndDegrades) {
  cluster::ClusterTopology topology(cluster::ClusterConfig::paper_testbed());
  core::MasterProcess master(topology, spec(), one_layer_placement(4, 5), 1,
                             4);
  master.set_retry_policy(fast_policy());
  // A generous real slice: each virtual retry budget blocks for its full
  // real duration (waking early on arrival), so a probe reply delayed by
  // CPU contention is not mistaken for a miss on the socket backend.
  util::FakeClock clock(milliseconds(250));
  master.set_clock(&clock);
  master.set_respawn_budget(0);
  master.snapshot_experts();
  master.enable_heartbeat(beat(100, 1, 2));

  comm::FaultPlan plan;
  plan.rules.push_back(
      {3, comm::LinkDir::kToWorker, 0, comm::FaultKind::kCrashWorker, 0.0});
  comm::FaultInjector injector(plan);
  master.attach_fault_injector(&injector);

  clock.advance(milliseconds(150));
  core::RecoveryReport report = master.heartbeat_tick();  // miss 1: suspect
  EXPECT_TRUE(report.declared_dead.empty());
  clock.advance(milliseconds(150));
  report = master.heartbeat_tick();  // miss 2: dead, budget 0 → no respawn
  EXPECT_EQ(report.respawned, 0u);
  ASSERT_EQ(report.declared_dead.size(), 1u);
  EXPECT_EQ(report.declared_dead[0], 3u);
  EXPECT_TRUE(master.dead_mask()[3]);
  EXPECT_EQ(master.num_live_workers(), 4u);
  EXPECT_FALSE(master.probe_worker(3));  // dead: never touches the wire
  EXPECT_EQ(master.heartbeat()->state(3), PeerState::kDead);

  // The caller's obligation: degrade around the dead worker, then traffic
  // flows again.
  const placement::Placement next = placement::degrade_placement(
      master.placement(), master.dead_mask(), nullptr);
  master.degrade_to(next);
  EXPECT_NE(master.placement().worker_of(0, 3), 3u);
  for (std::size_t e = 0; e < 4; ++e) {
    EXPECT_GT(master.query_expert_state(0, e).size(), 0u);
  }
  master.shutdown();
}

// --- VelaSystem integration --------------------------------------------------

TEST(VelaHeartbeat, ArmedHeartbeatLeavesHealthyRunsBitExact) {
  core::VelaSystemConfig cfg;
  cfg.model = model::ModelConfig::tiny_test();
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.seed = 3;
  cfg.wire_dtype = comm::WireDtype::kFp32;
  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 17);
  auto batch = corpus.make_dataset(2, 6);

  // Reference: fault tolerance on, heartbeat off.
  std::vector<float> base_losses;
  std::vector<double> base_mb;
  {
    core::VelaSystem vela(cfg, &corpus);
    core::FaultToleranceConfig ft;
    ft.retry = fast_policy();
    vela.enable_fault_tolerance(ft);
    for (int i = 0; i < 3; ++i) {
      const auto r = vela.train_step(batch);
      base_losses.push_back(r.loss);
      base_mb.push_back(r.external_mb_per_node);
    }
  }

  // Heartbeat armed on a FakeClock. Blocking receives under the injected
  // clock auto-advance virtual time by their wait budget, so the interval
  // must dwarf a step's worth of drift: only the explicit advance() before
  // the last step makes a probe pass fire. Probes are control traffic
  // outside the exchange phases and must not move the loss.
  const std::int64_t kIntervalMs = 1'000'000'000;  // ~11 days, virtual
  util::FakeClock clock(milliseconds(250));  // full real timeouts (see above)
  core::VelaSystem vela(cfg, &corpus);
  core::FaultToleranceConfig ft;
  ft.retry = fast_policy();
  ft.liveness = beat(kIntervalMs, 1, 3);
  ft.clock = &clock;
  vela.enable_fault_tolerance(ft);
  ASSERT_NE(vela.master().heartbeat(), nullptr);

  std::vector<float> losses;
  for (int i = 0; i < 3; ++i) {
    if (i == 2) clock.advance(milliseconds(2 * kIntervalMs));
    const auto r = vela.train_step(batch);
    losses.push_back(r.loss);
    EXPECT_EQ(r.workers_lost, 0u);
  }
  EXPECT_EQ(losses, base_losses);
  EXPECT_EQ(vela.master().heartbeat()->count(PeerState::kHealthy),
            vela.master().num_workers());
  // The first two steps carried no probe traffic at all; the probe pass
  // before the last step added bytes on top of the base step's traffic.
  EXPECT_EQ(vela.history()[0].external_mb_per_node, base_mb[0]);
  EXPECT_EQ(vela.history()[1].external_mb_per_node, base_mb[1]);
  EXPECT_GT(vela.history()[2].external_mb_per_node, base_mb[2]);
}

}  // namespace
}  // namespace vela
