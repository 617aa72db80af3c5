// VELA_AUDIT dynamic auditor suite (`ctest -L audit`): the lock-order graph
// detector must catch a synthetic inversion, the conservation ledger must
// catch a synthetic leak, and a clean two-step fine-tuning run must pass
// every auditor with zero violations.
#include "util/audit.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "comm/endpoint.h"
#include "comm/message.h"
#include "core/vela_system.h"
#include "data/batch.h"
#include "tensor/tensor.h"

namespace vela {
namespace {

// Arms the auditors for one test and captures violations instead of
// aborting; restores the disarmed default state on scope exit.
class AuditScope {
 public:
  AuditScope() {
    audit::set_enabled_for_testing(true);
    audit::LockOrderGraph::instance().reset_for_testing();
    audit::ConservationLedger::instance().reset_for_testing();
    audit::set_violation_handler(
        [this](const std::string& category, const std::string& detail) {
          violations_.emplace_back(category, detail);
        });
  }
  ~AuditScope() {
    audit::set_violation_handler(nullptr);
    audit::LockOrderGraph::instance().reset_for_testing();
    audit::ConservationLedger::instance().reset_for_testing();
    audit::set_enabled_for_testing(false);
  }

  const std::vector<std::pair<std::string, std::string>>& violations() const {
    return violations_;
  }
  std::size_t count(const std::string& category) const {
    std::size_t n = 0;
    for (const auto& [cat, detail] : violations_) {
      if (cat == category) ++n;
    }
    return n;
  }

 private:
  std::vector<std::pair<std::string, std::string>> violations_;
};

TEST(LockOrderAudit, ConsistentOrderIsClean) {
  AuditScope scope;
  audit::AuditedMutex a("a"), b("b");
  for (int i = 0; i < 3; ++i) {
    std::lock_guard<audit::AuditedMutex> la(a);
    std::lock_guard<audit::AuditedMutex> lb(b);
  }
  EXPECT_TRUE(scope.violations().empty());
  EXPECT_EQ(audit::LockOrderGraph::instance().edge_count(), 1u);
}

// The synthetic-inversion tests drive the graph hooks directly rather than
// actually taking the mutexes in inverted order — real inverted
// acquisitions would also trip ThreadSanitizer's own deadlock detector in
// sanitizer runs. The hook sequence is exactly what AuditedMutex::lock /
// unlock emit; the locked path itself is covered by ConsistentOrderIsClean
// and the integration test.
TEST(LockOrderAudit, DetectsSyntheticInversion) {
  AuditScope scope;
  auto& graph = audit::LockOrderGraph::instance();
  audit::AuditedMutex a("queue_mutex"), b("job_mutex");
  // Establish the order a → b.
  graph.on_acquire(&a);
  graph.on_acquire(&b);
  graph.on_release(&b);
  graph.on_release(&a);
  ASSERT_TRUE(scope.violations().empty());
  // Invert it: b → a closes the cycle at edge-formation time, on a single
  // thread — no deadlocking interleaving required.
  graph.on_acquire(&b);
  graph.on_acquire(&a);
  graph.on_release(&a);
  graph.on_release(&b);
  ASSERT_EQ(scope.count("lock-order"), 1u);
  const std::string& detail = scope.violations()[0].second;
  EXPECT_NE(detail.find("queue_mutex"), std::string::npos);
  EXPECT_NE(detail.find("job_mutex"), std::string::npos);
}

TEST(LockOrderAudit, ThreeMutexCycleIsDetected) {
  AuditScope scope;
  auto& graph = audit::LockOrderGraph::instance();
  audit::AuditedMutex a("a"), b("b"), c("c");
  graph.on_acquire(&a);
  graph.on_acquire(&b);
  graph.on_release(&b);
  graph.on_release(&a);
  graph.on_acquire(&b);
  graph.on_acquire(&c);
  graph.on_release(&c);
  graph.on_release(&b);
  ASSERT_TRUE(scope.violations().empty());
  // c → a completes a → b → c → a.
  graph.on_acquire(&c);
  graph.on_acquire(&a);
  graph.on_release(&a);
  graph.on_release(&c);
  EXPECT_EQ(scope.count("lock-order"), 1u);
}

TEST(LockOrderAudit, DestroyedMutexDoesNotPoisonReusedAddress) {
  AuditScope scope;
  audit::AuditedMutex a("long_lived");
  {
    audit::AuditedMutex b("short_lived");
    std::lock_guard<audit::AuditedMutex> la(a);
    std::lock_guard<audit::AuditedMutex> lb(b);
  }  // b destroyed; its edges must be forgotten
  EXPECT_EQ(audit::LockOrderGraph::instance().edge_count(), 0u);
}

TEST(ConservationAudit, CatchesSyntheticLeak) {
  AuditScope scope;
  auto& ledger = audit::ConservationLedger::instance();
  // A post with no disposition — the exact bug class the auditor exists
  // for: a new code path that transmits but never delivers, drops, or
  // queues.
  ledger.on_posted(512);
  ledger.check("synthetic");
  ASSERT_EQ(scope.count("conservation"), 1u);
  EXPECT_NE(scope.violations()[0].second.find("synthetic"),
            std::string::npos);
  // Disposing of the bytes rebalances the ledger.
  ledger.on_dropped(512);
  ledger.check("synthetic");
  EXPECT_EQ(scope.count("conservation"), 1u);
}

TEST(ConservationAudit, CatchesDequeueWithoutDelivery) {
  AuditScope scope;
  auto& ledger = audit::ConservationLedger::instance();
  ledger.on_posted(64);
  ledger.on_enqueued(64);
  ledger.on_dequeued(64);  // popped but never handed to the receiver
  ledger.check("synthetic");
  EXPECT_EQ(scope.count("conservation"), 1u);
}

TEST(ConservationAudit, EndpointFlowBalances) {
  AuditScope scope;
  auto& ledger = audit::ConservationLedger::instance();

  comm::Endpoint ch(comm::TransportKind::kDefault, 0, 1, nullptr);
  comm::Message msg;
  msg.type = comm::MessageType::kProbe;
  msg.request_id = 7;
  ASSERT_TRUE(ch.send(msg));
  ASSERT_TRUE(ch.send(msg));

  auto snap = ledger.snapshot();
  EXPECT_EQ(snap.posted, 2 * msg.wire_size());
  EXPECT_EQ(snap.in_flight(), 2 * msg.wire_size());
  ledger.check("in-flight");  // queued bytes balance without delivery

  ASSERT_TRUE(ch.receive().has_value());
  ASSERT_TRUE(ch.try_receive().has_value());
  snap = ledger.snapshot();
  EXPECT_EQ(snap.delivered, 2 * msg.wire_size());
  EXPECT_EQ(snap.in_flight(), 0u);
  ledger.check("drained");

  // A send that loses to close() is charged as dropped, not leaked.
  ch.close();
  EXPECT_FALSE(ch.send(msg));
  snap = ledger.snapshot();
  EXPECT_EQ(snap.dropped, msg.wire_size());
  ledger.check("after-close");
  EXPECT_TRUE(scope.violations().empty());
}

TEST(BackwardAudit, CatchesShapeMismatchAndAliasing) {
  AuditScope scope;
  Tensor value({2, 3});
  Tensor bad_grad({3, 2});
  audit::check_backward_tensors(value, bad_grad, "unit");
  ASSERT_EQ(scope.count("backward"), 1u);
  EXPECT_NE(scope.violations()[0].second.find("unit"), std::string::npos);

  audit::check_backward_tensors(value, value, "unit");  // self-aliasing
  EXPECT_EQ(scope.count("backward"), 2u);

  Tensor good_grad({2, 3});
  audit::check_backward_tensors(value, good_grad, "unit");
  EXPECT_EQ(scope.count("backward"), 2u);
}

TEST(AuditIntegration, CleanTrainingRunPassesAllAuditors) {
  AuditScope scope;

  core::VelaSystemConfig cfg;
  cfg.model = model::ModelConfig::tiny_test();
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.seed = 3;
  cfg.wire_dtype = comm::WireDtype::kFp32;
  cfg.clock.compute_seconds = 0.5;

  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 17);
  {
    core::VelaSystem vela(cfg, &corpus);
    auto batch = corpus.make_dataset(2, 6);
    for (int step = 0; step < 2; ++step) {
      auto report = vela.train_step(batch);
      EXPECT_TRUE(std::isfinite(report.loss));
      // The step-end conservation check ran inside train_step; the backward
      // checker ran on every node of the autograd sweep; every
      // blocking-queue/pool/meter lock fed the order graph.
      EXPECT_TRUE(scope.violations().empty())
          << scope.violations()[0].first << ": "
          << scope.violations()[0].second;
    }
  }
  EXPECT_TRUE(scope.violations().empty());
  // The run exercised real lock nesting — the graph saw edges, found no
  // cycle.
  EXPECT_TRUE(scope.count("lock-order") == 0u);
}

TEST(AuditDisabled, HooksAreInertWhenOff) {
  audit::set_enabled_for_testing(false);
  std::vector<std::string> seen;
  audit::set_violation_handler(
      [&seen](const std::string& category, const std::string&) {
        seen.push_back(category);
      });
  audit::ConservationLedger::instance().reset_for_testing();
  audit::ConservationLedger::instance().on_posted(999);
  audit::ConservationLedger::instance().check("off");  // unbalanced, but off
  EXPECT_TRUE(seen.empty());
  Tensor value({2});
  Tensor grad({3});
  audit::check_backward_tensors(value, grad, "off");
  EXPECT_TRUE(seen.empty());
  audit::set_violation_handler(nullptr);
  audit::ConservationLedger::instance().reset_for_testing();
}

}  // namespace
}  // namespace vela
