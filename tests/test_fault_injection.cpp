// Fault-injection & recovery tests (`ctest -L fault`).
//
// Two layers of guarantees:
//  * fail loudly and cleanly — a silent wrong answer is the worst outcome
//    for a training system (the legacy tests at the top);
//  * degrade gracefully — with the fault-tolerance layer on, every injected
//    fault kind (drop, delay, duplicate, corrupt, severed link, worker
//    crash) is recovered and the step completes; where the recovery path is
//    lossless the loss sequence is bit-identical to a fault-free run.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "comm/endpoint.h"
#include "comm/fault_injector.h"
#include "core/expert_broker.h"
#include "core/expert_worker.h"
#include "core/fault_tolerance.h"
#include "core/master.h"
#include "core/vela_system.h"
#include "tensor/ops.h"
#include "util/audit.h"
#include "util/check.h"
#include "util/thread_pool.h"

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

// --- fail-loudly behaviour (pre-fault-tolerance contracts) -------------------

TEST(FaultInjection, BrokerDetectsDeadWorkerChannel) {
  comm::DuplexLink link(comm::TransportKind::kDefault, 0, 1, nullptr);
  core::RetryPolicy policy = fast_policy();
  core::ReliableLink rlink(0, &link, &policy);
  placement::Placement placement = one_layer_placement(2, 1);
  core::ExpertBroker broker({&rlink}, &placement, 1, comm::WireCodec{});
  // No worker is attached; close the reply channel to simulate a crash.
  // The failure is structured now: WorkerFailedError, not a bare check.
  link.to_master.close();
  Rng xr(1);
  EXPECT_THROW(broker.expert_forward(
                   0, 0, ag::Variable::constant(ops::randn({2, 8}, xr))),
               core::WorkerFailedError);
}

TEST(FaultInjection, BrokerRejectsMismatchedReply) {
  comm::DuplexLink link(comm::TransportKind::kDefault, 0, 1, nullptr);
  core::RetryPolicy policy = fast_policy();
  core::ReliableLink rlink(0, &link, &policy);
  placement::Placement placement = one_layer_placement(2, 1);
  core::ExpertBroker broker({&rlink}, &placement, 1, comm::WireCodec{});
  // An impostor injects a reply that matches nothing ever sent: that is a
  // genuine protocol violation, not a recoverable fault.
  comm::Message bogus;
  bogus.type = comm::MessageType::kExpertForwardResult;
  bogus.request_id = 0xDEAD;
  link.to_master.send(std::move(bogus));
  Rng xr(2);
  EXPECT_THROW(broker.expert_forward(
                   0, 0, ag::Variable::constant(ops::randn({2, 8}, xr))),
               CheckError);
}

TEST(FaultInjection, WorkerBackwardForUnknownRequestKillsWorker) {
  comm::DuplexLink link(comm::TransportKind::kDefault, 0, 0, nullptr);
  core::ExpertWorker worker(spec(), &link, {{0, 0}});
  worker.start();
  comm::Message msg;
  msg.type = comm::MessageType::kExpertBackward;
  msg.request_id = 999;  // never issued
  msg.payload = Tensor::ones({2, 8});
  link.to_worker.send(std::move(msg));
  // The worker thread aborts its loop via CheckError; join must not hang
  // and no reply may appear.
  link.to_worker.close();
  worker.join();
  EXPECT_FALSE(link.to_master.try_receive().has_value());
}

TEST(FaultInjection, WorkerForwardForMissingExpertKillsWorker) {
  comm::DuplexLink link(comm::TransportKind::kDefault, 0, 0, nullptr);
  core::ExpertWorker worker(spec(), &link, {{0, 0}});
  worker.start();
  comm::Message msg;
  msg.type = comm::MessageType::kExpertForward;
  msg.request_id = 1;
  msg.layer = 5;  // not hosted
  msg.expert = 5;
  msg.payload = Tensor::ones({2, 8});
  link.to_worker.send(std::move(msg));
  link.to_worker.close();
  worker.join();
  EXPECT_FALSE(link.to_master.try_receive().has_value());
}

TEST(FaultInjection, DoubleInstallRejected) {
  comm::DuplexLink link(comm::TransportKind::kDefault, 0, 0, nullptr);
  core::ExpertWorker worker(spec(), &link, {{0, 0}});
  worker.start();
  comm::Message install;
  install.type = comm::MessageType::kInstallExpert;
  install.request_id = 1;
  install.layer = 0;
  install.expert = 0;  // already hosted
  link.to_worker.send(std::move(install));
  link.to_worker.close();
  worker.join();
  EXPECT_FALSE(link.to_master.try_receive().has_value());
}

TEST(FaultInjection, MasterSurvivesShutdownDuringIdle) {
  cluster::ClusterTopology topology(cluster::ClusterConfig::paper_testbed());
  core::MasterProcess master(topology, spec(), one_layer_placement(4, 5), 1,
                             4);
  // Interleave real work with shutdown; nothing should deadlock.
  Rng xr(3);
  master.broker().expert_forward(0, 1,
                                 ag::Variable::constant(ops::randn({2, 8}, xr)));
  master.broadcast_optimizer_step(0);
  master.shutdown();
  master.shutdown();  // idempotent
  SUCCEED();
}

TEST(FaultInjection, ChannelCloseDuringPendingReceiveUnblocks) {
  comm::Endpoint ch(comm::TransportKind::kDefault, 0, 1, nullptr);
  std::thread receiver([&] {
    auto msg = ch.receive();
    EXPECT_FALSE(msg.has_value());
  });
  ch.close();
  receiver.join();
}

TEST(FaultInjection, FetchOfUnknownExpertKillsWorker) {
  comm::DuplexLink link(comm::TransportKind::kDefault, 0, 0, nullptr);
  core::ExpertWorker worker(spec(), &link, {{0, 0}});
  worker.start();
  comm::Message fetch;
  fetch.type = comm::MessageType::kFetchExpert;
  fetch.request_id = 2;
  fetch.layer = 9;
  fetch.expert = 9;
  link.to_worker.send(std::move(fetch));
  link.to_worker.close();
  worker.join();
  EXPECT_FALSE(link.to_master.try_receive().has_value());
}

// --- fault injector & checksum ----------------------------------------------

TEST(FaultInjectorTest, DeterministicAcrossInstances) {
  comm::FaultPlan plan;
  plan.drop_rate = 0.2;
  plan.corrupt_rate = 0.1;
  plan.duplicate_rate = 0.1;
  plan.seed = 42;
  comm::FaultInjector a(plan);
  comm::FaultInjector b(plan);
  for (int i = 0; i < 200; ++i) {
    comm::Message m1;
    m1.type = comm::MessageType::kProbe;
    m1.request_id = static_cast<std::uint64_t>(i);
    comm::Message m2 = m1;
    EXPECT_EQ(a.on_send(1, comm::LinkDir::kToWorker, m1),
              b.on_send(1, comm::LinkDir::kToWorker, m2));
  }
  EXPECT_EQ(a.counters().dropped, b.counters().dropped);
  EXPECT_EQ(a.counters().corrupted, b.counters().corrupted);
  EXPECT_GT(a.faults_injected(), 0u);
}

TEST(FaultInjectorTest, ScriptedRuleFiresExactlyOnce) {
  comm::FaultPlan plan;
  plan.rules.push_back(
      {0, comm::LinkDir::kToWorker, 2, comm::FaultKind::kDrop, 0.0});
  comm::FaultInjector injector(plan);
  for (int i = 0; i < 6; ++i) {
    comm::Message m;
    m.type = comm::MessageType::kProbe;
    const comm::FaultKind kind =
        injector.on_send(0, comm::LinkDir::kToWorker, m);
    EXPECT_EQ(kind, i == 2 ? comm::FaultKind::kDrop : comm::FaultKind::kNone);
  }
  EXPECT_EQ(injector.counters().dropped, 1u);
  EXPECT_EQ(injector.messages_seen(0, comm::LinkDir::kToWorker), 6u);
}

TEST(FaultInjectorTest, CorruptionBreaksChecksum) {
  comm::Message m;
  m.type = comm::MessageType::kExpertForward;
  m.request_id = 5;
  m.payload = Tensor::ones({4});
  m.stamp_checksum();
  EXPECT_TRUE(m.checksum_ok());
  m.payload[0] = 2.0f;  // bit flip in flight
  EXPECT_FALSE(m.checksum_ok());
  comm::Message unstamped;
  unstamped.payload = Tensor::ones({4});
  EXPECT_TRUE(unstamped.checksum_ok());  // 0 = unchecksummed, always passes
}

TEST(FaultInjectorTest, SeverClosesChannelPermanently) {
  comm::FaultPlan plan;
  plan.rules.push_back(
      {0, comm::LinkDir::kToWorker, 1, comm::FaultKind::kSever, 0.0});
  comm::FaultInjector injector(plan);
  comm::Endpoint ch(comm::TransportKind::kDefault, 0, 1, nullptr);
  ch.set_fault_injector(&injector, 0, comm::LinkDir::kToWorker);
  comm::Message m;
  m.type = comm::MessageType::kProbe;
  EXPECT_TRUE(ch.send(comm::Message(m)));
  EXPECT_FALSE(ch.send(comm::Message(m)));  // severed here
  EXPECT_TRUE(ch.closed());
  EXPECT_FALSE(ch.send(comm::Message(m)));  // stays dead
  EXPECT_EQ(injector.counters().severed, 1u);
}

TEST(FaultInjectorTest, NoInjectorMeansNoChecksumAndSameBytes) {
  // Acceptance guard: without an injector the wire format is byte-identical
  // to the seed runtime — no checksum stamped, header size unchanged.
  comm::Endpoint ch(comm::TransportKind::kDefault, 0, 1, nullptr);
  comm::Message m;
  m.type = comm::MessageType::kExpertForward;
  m.request_id = 1;
  m.payload = Tensor::ones({3});
  const std::uint64_t bytes = m.wire_size();
  ASSERT_TRUE(ch.send(std::move(m)));
  auto got = ch.try_receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->checksum, 0u);
  EXPECT_EQ(got->wire_size(), bytes);
  EXPECT_EQ(comm::Message::kHeaderBytes, 36u);
}

// --- reliable link & idempotent worker --------------------------------------

TEST(ReliableLinkTest, RetransmitsAfterDroppedRequest) {
  comm::FaultPlan plan;
  plan.rules.push_back(
      {0, comm::LinkDir::kToWorker, 0, comm::FaultKind::kDrop, 0.0});
  comm::FaultInjector injector(plan);
  comm::DuplexLink link(comm::TransportKind::kDefault, 0, 0, nullptr);
  link.set_fault_injector(&injector, 0);
  core::ExpertWorker worker(spec(), &link, {{0, 0}});
  worker.start();
  core::RetryPolicy policy = fast_policy();
  core::ReliableLink rlink(0, &link, &policy);

  comm::Message msg;
  msg.type = comm::MessageType::kExpertForward;
  msg.request_id = 1;
  msg.layer = 0;
  msg.expert = 0;
  msg.payload = Tensor::ones({2, 8});
  msg.wire_bits = 32;
  rlink.post(std::move(msg));
  comm::Message reply =
      rlink.await(comm::MessageType::kExpertForwardResult, 1);
  EXPECT_EQ(reply.payload.size(), 16u);
  EXPECT_EQ(rlink.stats().retransmissions, 1u);
  EXPECT_EQ(rlink.stats().timeouts, 1u);

  link.to_worker.close();
  worker.join();
  EXPECT_EQ(worker.requests_served(), 1u);  // executed once, not twice
}

TEST(ReliableLinkTest, ExhaustedRetriesRaiseWorkerFailed) {
  comm::DuplexLink link(comm::TransportKind::kDefault, 0, 0, nullptr);  // nobody answers
  core::RetryPolicy policy;
  policy.timeout = std::chrono::milliseconds(10);
  policy.max_retries = 1;
  core::ReliableLink rlink(3, &link, &policy);
  comm::Message msg;
  msg.type = comm::MessageType::kProbe;
  msg.request_id = 7;
  rlink.post(std::move(msg));
  try {
    rlink.await(comm::MessageType::kProbeAck, 7);
    FAIL() << "await should have thrown";
  } catch (const core::WorkerFailedError& err) {
    EXPECT_EQ(err.worker(), 3u);  // structured: carries the worker index
  }
  EXPECT_EQ(rlink.stats().retransmissions, 1u);
}

TEST(ReliableLinkTest, AbandonOutstandingRemembersKeysInSortedOrder) {
  // Regression: the duplicate-discard set is FIFO-bounded, so the order
  // abandoned keys enter it is observable once eviction kicks in. It must be
  // sorted-by-key, never unordered_map iteration order (hash-seed
  // dependent).
  comm::DuplexLink link(comm::TransportKind::kDefault, 0, 0, nullptr);
  core::RetryPolicy policy = fast_policy();
  core::ReliableLink rlink(0, &link, &policy);
  const std::vector<std::uint64_t> ids = {42, 3, 17, 99, 8};
  for (std::uint64_t id : ids) {
    comm::Message msg;
    msg.type = comm::MessageType::kProbe;
    msg.request_id = id;
    rlink.post(std::move(msg));
  }
  rlink.abandon_outstanding();
  const auto& remembered = rlink.recent_keys_for_testing();
  ASSERT_EQ(remembered.size(), ids.size());
  EXPECT_TRUE(std::is_sorted(remembered.begin(), remembered.end()));
}

TEST(ReliableLinkTest, WorkerReplaysCachedReplyOnDuplicate) {
  comm::DuplexLink link(comm::TransportKind::kDefault, 0, 0, nullptr);
  core::ExpertWorker worker(spec(), &link, {{0, 0}});
  worker.start();
  comm::Message fwd;
  fwd.type = comm::MessageType::kExpertForward;
  fwd.request_id = 1;
  fwd.layer = 0;
  fwd.expert = 0;
  fwd.payload = Tensor::ones({2, 8});
  fwd.wire_bits = 32;
  comm::Message dup = fwd;
  link.to_worker.send(std::move(fwd));
  link.to_worker.send(std::move(dup));
  auto r1 = link.to_master.receive();
  auto r2 = link.to_master.receive();
  ASSERT_TRUE(r1.has_value() && r2.has_value());
  ASSERT_EQ(r1->payload.size(), r2->payload.size());
  for (std::size_t i = 0; i < r1->payload.size(); ++i) {
    EXPECT_EQ(r1->payload[i], r2->payload[i]);  // replayed, not recomputed
  }
  link.to_worker.close();
  worker.join();
  EXPECT_EQ(worker.requests_served(), 1u);
  EXPECT_EQ(worker.duplicates_replayed(), 1u);
}

// --- master-level detection, respawn, standby --------------------------------

TEST(FaultRecovery, ProbeDetectsCrashAndRespawnRestores) {
  cluster::ClusterTopology topology(cluster::ClusterConfig::paper_testbed());
  core::MasterProcess master(topology, spec(), one_layer_placement(4, 5), 1,
                             4);
  master.set_retry_policy(fast_policy());
  master.snapshot_experts();
  EXPECT_EQ(master.snapshots_held(), 4u);
  EXPECT_TRUE(master.probe_worker(2));

  // The next message to worker 2 becomes a poison pill: abrupt death.
  comm::FaultPlan plan;
  plan.rules.push_back(
      {2, comm::LinkDir::kToWorker, 0, comm::FaultKind::kCrashWorker, 0.0});
  comm::FaultInjector injector(plan);
  master.attach_fault_injector(&injector);

  EXPECT_FALSE(master.probe_worker(2));
  EXPECT_EQ(master.recover_step().respawned, 1u);
  EXPECT_EQ(master.workers_recovered(), 1u);
  EXPECT_GT(master.recovery_bytes(), 0u);
  EXPECT_TRUE(master.probe_worker(2));
  // The respawned worker serves its experts again.
  Tensor state = master.query_expert_state(0, 2);
  EXPECT_GT(state.size(), 0u);
  master.shutdown();
}

TEST(FaultRecovery, StandbyReplicaServesRecoveryBitExactly) {
  cluster::ClusterTopology topology(cluster::ClusterConfig::paper_testbed());
  core::MasterProcess master(topology, spec(), one_layer_placement(4, 5), 1,
                             4);
  master.set_retry_policy(fast_policy());
  // Worker 4 hosts no primaries; park the standby of (0, 0) there.
  master.add_standby_replica(0, 0, 4);
  const Tensor before = master.query_expert_state(0, 0);

  comm::FaultPlan plan;
  plan.rules.push_back(
      {0, comm::LinkDir::kToWorker, 0, comm::FaultKind::kCrashWorker, 0.0});
  comm::FaultInjector injector(plan);
  master.attach_fault_injector(&injector);
  EXPECT_FALSE(master.probe_worker(0));
  master.recover_step();
  EXPECT_EQ(master.workers_recovered(), 1u);

  const Tensor after = master.query_expert_state(0, 0);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i], before[i]);  // adapter state survived the crash
  }
  master.shutdown();
}

TEST(FaultRecovery, ShutdownRobustToAlreadyDeadWorkers) {
  cluster::ClusterTopology topology(cluster::ClusterConfig::paper_testbed());
  core::MasterProcess master(topology, spec(), one_layer_placement(4, 5), 1,
                             4);
  master.set_retry_policy(fast_policy());
  comm::FaultPlan plan;
  plan.rules.push_back(
      {1, comm::LinkDir::kToWorker, 0, comm::FaultKind::kCrashWorker, 0.0});
  plan.rules.push_back(
      {3, comm::LinkDir::kToWorker, 0, comm::FaultKind::kSever, 0.0});
  comm::FaultInjector injector(plan);
  master.attach_fault_injector(&injector);
  EXPECT_FALSE(master.probe_worker(1));  // crashed
  EXPECT_FALSE(master.probe_worker(3));  // link severed
  // Two workers are gone and were never respawned; shutdown must neither
  // hang nor double-join.
  master.shutdown();
  master.shutdown();
  SUCCEED();
}

// --- end-to-end recovery: one test per fault kind ---------------------------

core::VelaSystemConfig sys_config() {
  core::VelaSystemConfig cfg;
  cfg.model = model::ModelConfig::tiny_test();
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.seed = 3;
  cfg.wire_dtype = comm::WireDtype::kFp32;
  cfg.clock.compute_seconds = 0.5;
  return cfg;
}

core::FaultToleranceConfig fast_ft() {
  core::FaultToleranceConfig ft;
  ft.retry = fast_policy();
  ft.snapshot_interval = 1;  // snapshot every step → crash recovery lossless
  return ft;
}

struct FaultedRun {
  std::vector<core::StepReport> reports;
  core::FaultStats stats;
  std::size_t workers_recovered = 0;
};

// Runs `steps` identical fine-tuning steps; when `plan` is non-null the
// injector attaches after fault tolerance is enabled, so scripted message
// indices count from the first training message.
// `overlap_chunks` < 0 leaves the pipeline depth to VELA_OVERLAP.
FaultedRun run_finetune(int steps, const comm::FaultPlan* plan,
                        const core::FaultToleranceConfig& ft,
                        int overlap_chunks = -1) {
  auto cfg = sys_config();
  cfg.overlap_chunks = overlap_chunks;
  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 17);
  // The injector must outlive the system (shutdown traffic still flows
  // through the attached channels).
  comm::FaultInjector injector(plan != nullptr ? *plan : comm::FaultPlan{});
  core::VelaSystem vela(cfg, &corpus);
  vela.enable_fault_tolerance(ft);
  if (plan != nullptr) vela.attach_fault_injector(&injector);
  auto batch = corpus.make_dataset(2, 6);
  FaultedRun run;
  for (int i = 0; i < steps; ++i) {
    run.reports.push_back(vela.train_step(batch));
  }
  run.stats = vela.master().fault_stats();
  run.workers_recovered = vela.master().workers_recovered();
  return run;
}

void expect_bit_exact(const FaultedRun& faulted, const FaultedRun& clean) {
  ASSERT_EQ(faulted.reports.size(), clean.reports.size());
  for (std::size_t i = 0; i < clean.reports.size(); ++i) {
    EXPECT_EQ(faulted.reports[i].loss, clean.reports[i].loss)
        << "loss diverged at step " << i;
  }
}

std::size_t total(const std::vector<core::StepReport>& reports,
                  std::size_t core::StepReport::*field) {
  std::size_t sum = 0;
  for (const auto& r : reports) sum += r.*field;
  return sum;
}

TEST(FaultRecovery, StepCompletesThroughDroppedMessages) {
  comm::FaultPlan plan;
  plan.rules.push_back(
      {0, comm::LinkDir::kToWorker, 1, comm::FaultKind::kDrop, 0.0});
  plan.rules.push_back(
      {1, comm::LinkDir::kToMaster, 0, comm::FaultKind::kDrop, 0.0});
  plan.rules.push_back(
      {2, comm::LinkDir::kToWorker, 3, comm::FaultKind::kDrop, 0.0});
  FaultedRun faulted = run_finetune(3, &plan, fast_ft());
  FaultedRun clean = run_finetune(3, nullptr, fast_ft());

  expect_bit_exact(faulted, clean);  // retransmission is lossless
  EXPECT_EQ(total(faulted.reports, &core::StepReport::faults_injected), 3u);
  EXPECT_GE(faulted.stats.retransmissions, 3u);
  EXPECT_EQ(total(faulted.reports, &core::StepReport::retries), 0u);
}

TEST(FaultRecovery, DelayFaultChargedToStepTime) {
  comm::FaultPlan plan;
  plan.rules.push_back(
      {1, comm::LinkDir::kToWorker, 0, comm::FaultKind::kDelay, 0.25});
  FaultedRun faulted = run_finetune(2, &plan, fast_ft());
  FaultedRun clean = run_finetune(2, nullptr, fast_ft());

  expect_bit_exact(faulted, clean);  // delays reorder nothing here
  EXPECT_DOUBLE_EQ(faulted.reports[0].injected_delay_seconds, 0.25);
  EXPECT_NEAR(faulted.reports[0].step_seconds,
              clean.reports[0].step_seconds + 0.25, 1e-9);
  EXPECT_NEAR(faulted.reports[1].step_seconds, clean.reports[1].step_seconds,
              1e-9);
}

TEST(FaultRecovery, StepCompletesThroughDuplicatedMessages) {
  comm::FaultPlan plan;
  plan.rules.push_back(
      {0, comm::LinkDir::kToMaster, 0, comm::FaultKind::kDuplicate, 0.0});
  plan.rules.push_back(
      {2, comm::LinkDir::kToWorker, 2, comm::FaultKind::kDuplicate, 0.0});
  FaultedRun faulted = run_finetune(3, &plan, fast_ft());
  FaultedRun clean = run_finetune(3, nullptr, fast_ft());

  expect_bit_exact(faulted, clean);  // dedupe is lossless
  EXPECT_EQ(total(faulted.reports, &core::StepReport::faults_injected), 2u);
  EXPECT_EQ(total(faulted.reports, &core::StepReport::retries), 0u);
}

TEST(FaultRecovery, StepCompletesThroughCorruptedMessages) {
  comm::FaultPlan plan;
  plan.rules.push_back(
      {1, comm::LinkDir::kToWorker, 1, comm::FaultKind::kCorrupt, 0.0});
  plan.rules.push_back(
      {3, comm::LinkDir::kToMaster, 1, comm::FaultKind::kCorrupt, 0.0});
  FaultedRun faulted = run_finetune(3, &plan, fast_ft());
  FaultedRun clean = run_finetune(3, nullptr, fast_ft());

  // Corrupted copies are detected by checksum and dropped; clean
  // retransmissions carry the computation — bit-exact.
  expect_bit_exact(faulted, clean);
  EXPECT_EQ(total(faulted.reports, &core::StepReport::faults_injected), 2u);
  EXPECT_GE(faulted.stats.retransmissions, 2u);
}

TEST(FaultRecovery, RecoversFromSeveredLink) {
  comm::FaultPlan plan;
  plan.rules.push_back(
      {2, comm::LinkDir::kToWorker, 1, comm::FaultKind::kSever, 0.0});
  FaultedRun faulted = run_finetune(3, &plan, fast_ft());
  FaultedRun clean = run_finetune(3, nullptr, fast_ft());

  // The worker behind the severed link is respawned and the step retried
  // from the pre-step snapshot — lossless.
  expect_bit_exact(faulted, clean);
  EXPECT_EQ(faulted.workers_recovered, 1u);
  EXPECT_GE(total(faulted.reports, &core::StepReport::retries), 1u);
}

TEST(FaultRecovery, RecoversFromWorkerCrashMidStep) {
  comm::FaultPlan plan;
  plan.rules.push_back(
      {0, comm::LinkDir::kToWorker, 0, comm::FaultKind::kCrashWorker, 0.0});
  FaultedRun faulted = run_finetune(3, &plan, fast_ft());
  FaultedRun clean = run_finetune(3, nullptr, fast_ft());

  expect_bit_exact(faulted, clean);
  EXPECT_EQ(faulted.workers_recovered, 1u);
  EXPECT_EQ(total(faulted.reports, &core::StepReport::workers_recovered), 1u);
  EXPECT_GE(total(faulted.reports, &core::StepReport::retries), 1u);
  // Recovery traffic is measured: broken out in the report AND visible as
  // extra metered bytes relative to the clean run's same step.
  EXPECT_GT(faulted.reports[0].recovery_mb, 0.0);
  EXPECT_GT(faulted.reports[0].external_mb_per_node,
            clean.reports[0].external_mb_per_node);
}

TEST(FaultRecovery, FaultToleranceAloneChangesNoBytes) {
  // With the FT layer on but no injector and no periodic snapshots, every
  // step's byte count must equal the plain runtime's.
  core::FaultToleranceConfig no_snap = fast_ft();
  no_snap.snapshot_interval = 0;
  FaultedRun with_ft = run_finetune(3, nullptr, no_snap);

  auto cfg = sys_config();
  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 17);
  core::VelaSystem plain(cfg, &corpus);
  auto batch = corpus.make_dataset(2, 6);
  for (int i = 0; i < 3; ++i) {
    const auto p = plain.train_step(batch);
    EXPECT_DOUBLE_EQ(p.external_mb_per_node,
                     with_ft.reports[i].external_mb_per_node);
    EXPECT_EQ(p.loss, with_ft.reports[i].loss);
    EXPECT_EQ(with_ft.reports[i].faults_injected, 0u);
    EXPECT_EQ(with_ft.reports[i].retries, 0u);
    EXPECT_DOUBLE_EQ(with_ft.reports[i].recovery_mb, 0.0);
  }
}

// --- the ISSUE acceptance scenario and the soak test -------------------------

TEST(FaultRecovery, TwentyStepRunSurvivesScriptedCrashAndNoise) {
  // Scripted plan: crash one worker and drop/corrupt six messages over a
  // 20-step fine-tune. All 20 steps must complete with finite loss, the
  // run must report nonzero retries and workers_recovered, recovery
  // traffic must be measured, and — every recovery path being lossless —
  // the final loss must match the fault-free run.
  comm::FaultPlan plan;
  plan.rules.push_back(
      {1, comm::LinkDir::kToWorker, 1, comm::FaultKind::kCrashWorker, 0.0});
  plan.rules.push_back(
      {0, comm::LinkDir::kToWorker, 4, comm::FaultKind::kDrop, 0.0});
  plan.rules.push_back(
      {2, comm::LinkDir::kToWorker, 7, comm::FaultKind::kCorrupt, 0.0});
  plan.rules.push_back(
      {3, comm::LinkDir::kToMaster, 3, comm::FaultKind::kDrop, 0.0});
  plan.rules.push_back(
      {0, comm::LinkDir::kToMaster, 9, comm::FaultKind::kCorrupt, 0.0});
  plan.rules.push_back(
      {2, comm::LinkDir::kToWorker, 15, comm::FaultKind::kDrop, 0.0});
  plan.rules.push_back(
      {3, comm::LinkDir::kToWorker, 11, comm::FaultKind::kCorrupt, 0.0});
  FaultedRun faulted = run_finetune(20, &plan, fast_ft());
  FaultedRun clean = run_finetune(20, nullptr, fast_ft());

  ASSERT_EQ(faulted.reports.size(), 20u);
  for (const auto& r : faulted.reports) {
    EXPECT_TRUE(std::isfinite(r.loss));
  }
  EXPECT_EQ(total(faulted.reports, &core::StepReport::faults_injected), 7u);
  EXPECT_GE(total(faulted.reports, &core::StepReport::retries), 1u);
  EXPECT_EQ(total(faulted.reports, &core::StepReport::workers_recovered), 1u);
  double recovery_mb = 0.0;
  for (const auto& r : faulted.reports) recovery_mb += r.recovery_mb;
  EXPECT_GT(recovery_mb, 0.0);
  expect_bit_exact(faulted, clean);
}

TEST(FaultRecovery, SoakFiftyStepsUnderContinuousFaults) {
  // Deterministic multi-fault soak: background drop/corrupt/duplicate/delay
  // noise on every lane plus two scripted worker crashes, 50 steps. The
  // system must finish every step with finite loss and still be learning.
  comm::FaultPlan plan;
  plan.drop_rate = 0.004;
  plan.corrupt_rate = 0.004;
  plan.duplicate_rate = 0.01;
  plan.delay_rate = 0.01;
  plan.delay_seconds = 0.05;
  plan.seed = 2024;
  plan.rules.push_back(
      {2, comm::LinkDir::kToWorker, 5, comm::FaultKind::kCrashWorker, 0.0});
  plan.rules.push_back(
      {0, comm::LinkDir::kToWorker, 150, comm::FaultKind::kCrashWorker, 0.0});
  core::FaultToleranceConfig ft = fast_ft();
  ft.snapshot_interval = 5;  // snapshots stay periodic, recovery may be stale
  FaultedRun run = run_finetune(50, &plan, ft);

  ASSERT_EQ(run.reports.size(), 50u);
  for (const auto& r : run.reports) {
    EXPECT_TRUE(std::isfinite(r.loss));
  }
  EXPECT_GE(total(run.reports, &core::StepReport::faults_injected), 10u);
  EXPECT_EQ(run.workers_recovered, 2u);
  // Still training: the tail is clearly below the head despite the noise.
  EXPECT_LT(run.reports.back().loss, run.reports.front().loss);
}

TEST(FaultRecovery, TwoHundredStepsMixedFaultsUnderParallelCompute) {
  // Stress the interaction of the two subsystems: a 4-lane compute pool
  // (parallel expert forwards/backwards and batched worker inboxes) under
  // continuous background faults plus three scripted worker crashes, for
  // 200 fine-tuning iterations. Retry/replay and batch-parallel execution
  // must compose: every step finishes with finite loss, every crashed
  // worker is recovered, and the model is still learning at the end.
  util::ThreadPool::set_global_threads(4);
  comm::FaultPlan plan;
  plan.drop_rate = 0.003;
  plan.corrupt_rate = 0.003;
  plan.duplicate_rate = 0.008;
  plan.delay_rate = 0.008;
  plan.delay_seconds = 0.02;
  plan.seed = 4096;
  plan.rules.push_back(
      {1, comm::LinkDir::kToWorker, 9, comm::FaultKind::kCrashWorker, 0.0});
  plan.rules.push_back(
      {3, comm::LinkDir::kToWorker, 200, comm::FaultKind::kCrashWorker, 0.0});
  plan.rules.push_back(
      {0, comm::LinkDir::kToWorker, 450, comm::FaultKind::kCrashWorker, 0.0});
  core::FaultToleranceConfig ft = fast_ft();
  ft.snapshot_interval = 10;
  FaultedRun run = run_finetune(200, &plan, ft);
  util::ThreadPool::set_global_threads(0);  // restore the environment default

  ASSERT_EQ(run.reports.size(), 200u);
  for (const auto& r : run.reports) {
    EXPECT_TRUE(std::isfinite(r.loss));
  }
  EXPECT_GE(total(run.reports, &core::StepReport::faults_injected), 20u);
  EXPECT_EQ(run.workers_recovered, 3u);
  EXPECT_LT(run.reports.back().loss, run.reports.front().loss);
}

// --- faults with several gradient requests outstanding ---------------------
//
// The broker posts every dL/dy of a block before it awaits any dL/dx, so a
// backward fault lands while the block's other requests are in flight. The
// rules below aim at the first gradient request of step 0: the group of
// the last block's highest routed expert. On its worker's link it follows
// every forward message the worker received in step 0 — one per group, or
// one per fragment at pipeline depth K.

struct FirstGradient {
  std::size_t worker = 0;
  std::uint64_t message_index = 0;  // on (worker, kToWorker)
  std::size_t fragments = 0;        // of its train (1 when unchunked)
  std::size_t rows = 0;             // token rows the train carries
  std::size_t block_groups = 0;     // requests of its block in flight
};

FirstGradient first_gradient_request(int overlap_chunks) {
  auto cfg = sys_config();
  cfg.overlap_chunks = overlap_chunks;
  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 17);
  core::VelaSystem vela(cfg, &corpus);
  vela.train_step(corpus.make_dataset(2, 6));
  const std::vector<moe::RoutePlan> plans = vela.model().last_plans();
  const placement::Placement& placement = vela.master().placement();
  const std::size_t k = std::max<std::size_t>(1, vela.overlap_chunks());
  const auto fragments = [k](std::size_t rows) { return std::min(k, rows); };

  FirstGradient first;
  const moe::RoutePlan& last = plans.back();
  std::size_t expert = 0;
  for (std::size_t e = 0; e < last.num_experts; ++e) {
    if (last.expert_tokens[e].empty()) continue;
    expert = e;
    ++first.block_groups;
  }
  first.worker = placement.worker_of(plans.size() - 1, expert);
  first.rows = last.expert_tokens[expert].size();
  first.fragments = fragments(first.rows);
  for (std::size_t l = 0; l < plans.size(); ++l) {
    for (std::size_t e = 0; e < plans[l].num_experts; ++e) {
      const std::size_t rows = plans[l].expert_tokens[e].size();
      if (rows > 0 && placement.worker_of(l, e) == first.worker) {
        first.message_index += fragments(rows);
      }
    }
  }
  return first;
}

TEST(BatchedBackwardFaults, DroppedGradientRequestIsRetransmittedAlone) {
  const FirstGradient target = first_gradient_request(0);
  ASSERT_GT(target.block_groups, 1u);
  comm::FaultPlan plan;
  plan.rules.push_back({target.worker, comm::LinkDir::kToWorker,
                        target.message_index, comm::FaultKind::kDrop, 0.0});
  FaultedRun faulted = run_finetune(3, &plan, fast_ft(), 0);
  FaultedRun clean = run_finetune(3, nullptr, fast_ft(), 0);

  expect_bit_exact(faulted, clean);
  EXPECT_EQ(total(faulted.reports, &core::StepReport::faults_injected), 1u);
  EXPECT_GE(faulted.stats.retransmissions, 1u);
  EXPECT_EQ(total(faulted.reports, &core::StepReport::retries), 0u);
}

TEST(BatchedBackwardFaults, DroppedFragmentRepostsOnlyItsTrain) {
  const FirstGradient target = first_gradient_request(4);
  ASSERT_GT(target.block_groups, 1u);
  ASSERT_GT(target.fragments, 1u);
  comm::FaultPlan plan;
  plan.rules.push_back({target.worker, comm::LinkDir::kToWorker,
                        target.message_index + 1, comm::FaultKind::kDrop,
                        0.0});
  FaultedRun faulted = run_finetune(3, &plan, fast_ft(), 4);
  FaultedRun clean = run_finetune(3, nullptr, fast_ft(), 4);
  FaultedRun sequential = run_finetune(3, nullptr, fast_ft(), 0);

  expect_bit_exact(faulted, clean);
  expect_bit_exact(faulted, sequential);
  EXPECT_EQ(total(faulted.reports, &core::StepReport::faults_injected), 1u);
  // The whole train went out again, not just the lost fragment.
  EXPECT_GE(faulted.stats.retransmissions, target.fragments);
  EXPECT_EQ(total(faulted.reports, &core::StepReport::retries), 0u);
}

TEST(BatchedBackwardFaults, RepostedTrainIsTalliedByTheAuditLedger) {
  // A re-posted fragment train is a retransmission like any other: the
  // conservation ledger's retransmit share must hold exactly its bytes.
  const FirstGradient target = first_gradient_request(2);
  ASSERT_EQ(target.fragments, 2u);
  comm::FaultPlan plan;
  plan.rules.push_back({target.worker, comm::LinkDir::kToWorker,
                        target.message_index + 1, comm::FaultKind::kDrop,
                        0.0});
  core::FaultToleranceConfig ft = fast_ft();
  // Long enough that only the dropped fragment's wait ever times out.
  ft.retry.timeout = std::chrono::milliseconds(500);

  audit::set_enabled_for_testing(true);
  audit::LockOrderGraph::instance().reset_for_testing();
  audit::ConservationLedger::instance().reset_for_testing();
  std::vector<std::string> violations;
  audit::set_violation_handler(
      [&violations](const std::string& category, const std::string& detail) {
        violations.push_back(category + ": " + detail);
      });
  const FaultedRun faulted = run_finetune(1, &plan, ft, 2);
  const std::uint64_t retransmit_bytes =
      audit::ConservationLedger::instance().snapshot().retransmit;
  audit::set_violation_handler(nullptr);
  audit::LockOrderGraph::instance().reset_for_testing();
  audit::ConservationLedger::instance().reset_for_testing();
  audit::set_enabled_for_testing(false);

  for (const std::string& v : violations) ADD_FAILURE() << v;
  EXPECT_EQ(total(faulted.reports, &core::StepReport::faults_injected), 1u);
  EXPECT_EQ(faulted.stats.retransmissions, target.fragments);
  // fp32 wire: fragment 0 carries the one header, the rows split between
  // the two fragments.
  const std::size_t model_dim = sys_config().model.model_dim;
  EXPECT_EQ(retransmit_bytes, comm::Message::kHeaderBytes +
                                  target.rows * model_dim * sizeof(float));
}

TEST(BatchedBackwardFaults, CrashWhileAwaitingGradientsRetriesTheStep) {
  const FirstGradient target = first_gradient_request(0);
  ASSERT_GT(target.block_groups, 1u);
  comm::FaultPlan plan;
  plan.rules.push_back({target.worker, comm::LinkDir::kToWorker,
                        target.message_index, comm::FaultKind::kCrashWorker,
                        0.0});
  FaultedRun faulted = run_finetune(3, &plan, fast_ft(), 0);
  FaultedRun clean = run_finetune(3, nullptr, fast_ft(), 0);

  // The WorkerFailedError escaped the wait, the worker was respawned and
  // the step re-run from its snapshot.
  expect_bit_exact(faulted, clean);
  EXPECT_EQ(faulted.workers_recovered, 1u);
  EXPECT_GE(faulted.reports[0].retries, 1u);
  // The other workers answered the abandoned requests of the failed
  // attempt; those replies were discarded, not accepted by the retry.
  EXPECT_GE(faulted.stats.duplicates_discarded, 1u);
}

TEST(BatchedBackwardFaults, CrashWhileAwaitingGradientsDegradesLikeAFreshRun) {
  const FirstGradient target = first_gradient_request(0);
  ASSERT_GT(target.block_groups, 1u);
  auto cfg = sys_config();
  cfg.overlap_chunks = 0;
  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 17);
  const auto batch = corpus.make_dataset(2, 6);

  // Crash with the block's gradients in flight; no respawn budget, so the
  // step degrades onto the survivors and retries.
  std::vector<float> degraded_losses;
  placement::Placement degraded;
  {
    comm::FaultPlan plan;
    plan.rules.push_back({target.worker, comm::LinkDir::kToWorker,
                          target.message_index,
                          comm::FaultKind::kCrashWorker, 0.0});
    comm::FaultInjector injector(plan);
    core::VelaSystem vela(cfg, &corpus);
    core::FaultToleranceConfig ft = fast_ft();
    ft.respawn_budget = 0;
    vela.enable_fault_tolerance(ft);
    vela.attach_fault_injector(&injector);
    for (int i = 0; i < 3; ++i) {
      degraded_losses.push_back(vela.train_step(batch).loss);
    }
    ASSERT_TRUE(vela.master().dead_mask()[target.worker]);
    degraded = vela.master().placement();
  }
  // A healthy fleet that starts on the degraded placement.
  std::vector<float> fresh_losses;
  {
    core::VelaSystem vela(cfg, &corpus);
    vela.enable_fault_tolerance(fast_ft());
    vela.set_placement(degraded);
    for (int i = 0; i < 3; ++i) {
      fresh_losses.push_back(vela.train_step(batch).loss);
    }
  }
  EXPECT_EQ(degraded_losses, fresh_losses);
}

}  // namespace
}  // namespace vela
