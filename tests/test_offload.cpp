// Bounded-memory expert store conformance (`ctest -L offload`, DESIGN.md
// §15). The contract under test: paging is an implementation detail of
// WHERE expert state lives, never of WHAT it computes — a budget-constrained
// run must reproduce the unbounded run's losses bit for bit, with the spill
// bytes metered in their own paging series (the only extra network traffic
// is the deterministic priority/prefetch hint stream); checkpoints
// taken under an active pager must match unbounded checkpoints byte for
// byte; eviction must be a deterministic function of the access sequence;
// and a torn or truncated spill table must be rejected, never decoded.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "comm/fault_injector.h"
#include "core/master.h"
#include "core/vela_system.h"
#include "data/batch.h"
#include "data/corpus.h"
#include "nn/expert.h"
#include "nn/optimizer.h"
#include "store/disk_table.h"
#include "store/expert_store.h"
#include "store/paged_store.h"
#include "util/audit.h"
#include "util/check.h"
#include "util/rng.h"
#include "scoped_env.h"
#include "temp_path.h"

namespace vela {
namespace {

using testutil::ScopedEnv;
using testutil::temp_path;

core::VelaSystemConfig base_config() {
  core::VelaSystemConfig cfg;
  cfg.model = model::ModelConfig::tiny_test();
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.seed = 13;
  cfg.wire_dtype = comm::WireDtype::kFp32;
  cfg.adamw.lr = 1e-3f;
  return cfg;
}

struct RunResult {
  std::vector<float> losses;
  std::uint64_t external_bytes = 0;
  std::uint64_t page_in_bytes = 0;
  std::uint64_t page_out_bytes = 0;
  double paged_mb = 0.0;  // sum of StepReport.paged_mb
};

// One deterministic fine-tune: fixed corpus, fixed batch order.
RunResult run_finetune(const core::VelaSystemConfig& cfg, int steps) {
  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 31);
  core::VelaSystem vela(cfg, &corpus);
  data::BatchIterator it(corpus.make_dataset(6, 8), 3, 4, /*shuffle=*/false);
  RunResult out;
  for (int step = 0; step < steps; ++step) {
    const core::StepReport r = vela.train_step(it.next());
    out.losses.push_back(r.loss);
    out.paged_mb += r.paged_mb;
  }
  const comm::TrafficMeter& meter = vela.master().meter();
  out.external_bytes = meter.lifetime_external_bytes();
  out.page_in_bytes = meter.lifetime_page_in_bytes();
  out.page_out_bytes = meter.lifetime_page_out_bytes();
  return out;
}

// --- budget sweep bit-exactness ----------------------------------------------

TEST(Offload, BudgetSweepIsBitExactAndMetersPaging) {
  // Budgets {unbounded, E/2, 1} over the same schedule. Losses must be
  // identical at every budget; only the paging series may differ — zero
  // when unbounded, non-zero at budget 1 (each worker hosts several experts
  // of each layer under paper_testbed, so a one-slot pool must thrash).
  const int kSteps = 5;
  const RunResult unbounded = run_finetune(base_config(), kSteps);
  EXPECT_EQ(unbounded.page_in_bytes, 0u);
  EXPECT_EQ(unbounded.page_out_bytes, 0u);
  EXPECT_EQ(unbounded.paged_mb, 0.0);

  std::uint64_t bounded_external = 0;
  for (const long long budget : {2LL, 1LL}) {
    auto cfg = base_config();
    cfg.expert_budget = budget;
    const RunResult paged = run_finetune(cfg, kSteps);
    ASSERT_EQ(paged.losses.size(), unbounded.losses.size());
    for (std::size_t i = 0; i < unbounded.losses.size(); ++i) {
      EXPECT_EQ(paged.losses[i], unbounded.losses[i])
          << "budget " << budget << " step " << i;
    }
    // Paging is invisible in the data plane, but enabling the store adds a
    // control-plane stream (priority pushes + prefetch hints) that is real
    // network traffic and honestly charged — so bounded ledgers carry a
    // fixed overhead over the unbounded one, identical across budgets.
    EXPECT_GT(paged.external_bytes, unbounded.external_bytes)
        << "budget " << budget;
    if (bounded_external == 0) bounded_external = paged.external_bytes;
    EXPECT_EQ(paged.external_bytes, bounded_external) << "budget " << budget;
    if (budget == 1) {
      EXPECT_GT(paged.page_out_bytes, 0u);
      EXPECT_GT(paged.page_in_bytes, 0u);
      EXPECT_GT(paged.paged_mb, 0.0);
    }
    // Nothing can be read back that was never spilled.
    EXPECT_LE(paged.page_in_bytes, paged.page_out_bytes);
  }
}

TEST(Offload, EnvBudgetMatchesExplicitConfig) {
  auto cfg = base_config();
  cfg.expert_budget = 1;
  const RunResult explicit_run = run_finetune(cfg, 3);
  ScopedEnv env("VELA_EXPERT_BUDGET", "1");
  const RunResult env_run = run_finetune(base_config(), 3);
  ASSERT_EQ(env_run.losses.size(), explicit_run.losses.size());
  for (std::size_t i = 0; i < explicit_run.losses.size(); ++i) {
    EXPECT_EQ(env_run.losses[i], explicit_run.losses[i]) << "step " << i;
  }
  EXPECT_EQ(env_run.external_bytes, explicit_run.external_bytes);
  EXPECT_GT(env_run.page_out_bytes, 0u);
}

// --- checkpointing under an active pager -------------------------------------

TEST(Offload, CheckpointRoundTripUnderActivePager) {
  auto cfg = base_config();
  cfg.expert_budget = 1;
  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 6);
  core::VelaSystem vela(cfg, &corpus);
  auto batch = corpus.make_dataset(2, 6);

  for (int i = 0; i < 3; ++i) vela.train_step(batch);
  const std::string path = temp_path("offload_pager.ckpt");
  vela.save_checkpoint(path);
  const float loss_at_ckpt = vela.model().loss_batch(batch).value()[0];

  for (int i = 0; i < 3; ++i) vela.train_step(batch);
  EXPECT_NE(vela.model().loss_batch(batch).value()[0], loss_at_ckpt);

  vela.load_checkpoint(path);
  EXPECT_FLOAT_EQ(vela.model().loss_batch(batch).value()[0], loss_at_ckpt);
  std::remove(path.c_str());
}

TEST(Offload, CheckpointBytesIdenticalToUnboundedRun) {
  // The pager must be invisible in persisted artifacts: the checkpoint file
  // written after N steps at budget 1 is byte-for-byte the file the
  // unbounded run writes.
  auto save_after = [](const core::VelaSystemConfig& cfg,
                       const std::string& path) {
    data::SyntheticCorpus corpus(
        data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 6);
    core::VelaSystem vela(cfg, &corpus);
    auto batch = corpus.make_dataset(2, 6);
    for (int i = 0; i < 3; ++i) vela.train_step(batch);
    vela.save_checkpoint(path);
  };
  const std::string unbounded_path = temp_path("offload_unbounded.ckpt");
  const std::string paged_path = temp_path("offload_paged.ckpt");
  save_after(base_config(), unbounded_path);
  auto cfg = base_config();
  cfg.expert_budget = 1;
  save_after(cfg, paged_path);

  std::ifstream a(unbounded_path, std::ios::binary);
  std::ifstream b(paged_path, std::ios::binary);
  ASSERT_TRUE(a.good() && b.good());
  const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                            std::istreambuf_iterator<char>());
  EXPECT_GT(bytes_a.size(), 0u);
  EXPECT_EQ(bytes_a, bytes_b);
  std::remove(unbounded_path.c_str());
  std::remove(paged_path.c_str());
}

// --- degrade with paged experts ----------------------------------------------

TEST(Offload, KillAWorkerDegradesWithPagedExperts) {
  // A worker dies while every survivor runs a one-slot pool: the orphaned
  // experts migrate onto stores that must page their existing tenants out
  // to admit them, and training continues.
  auto cfg = base_config();
  cfg.expert_budget = 1;
  cfg.clock.compute_seconds = 0.5;
  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 17);
  comm::FaultPlan plan;
  plan.rules.push_back(
      {1, comm::LinkDir::kToWorker, 0, comm::FaultKind::kCrashWorker, 0.0});
  comm::FaultInjector injector(plan);
  core::VelaSystem vela(cfg, &corpus);
  core::FaultToleranceConfig ft;
  ft.retry.timeout = std::chrono::milliseconds(60);
  ft.retry.max_retries = 4;
  ft.retry.backoff = 2.0;
  ft.snapshot_interval = 1;
  ft.respawn_budget = 0;  // first failure degrades
  vela.enable_fault_tolerance(ft);
  vela.attach_fault_injector(&injector);

  const std::size_t fleet = vela.master().num_workers();
  auto batch = corpus.make_dataset(2, 6);
  std::vector<core::StepReport> reports;
  for (int i = 0; i < 3; ++i) reports.push_back(vela.train_step(batch));

  EXPECT_EQ(reports[0].workers_lost, 1u);
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

// --- q8 at-rest tier ---------------------------------------------------------

TEST(Offload, Q8AtRestTrainsWithinTolerance) {
  // Block-quantized spill images are lossy, so bit-exactness is out of
  // scope; the gate is the same shape as the wire tier's: finite losses
  // that track the fp32 run and still go down. The envelope is wider than
  // the wire tier's: a one-slot pool re-quantizes weights AND optimizer
  // moments on every touch, so the rounding error compounds per access,
  // not per message.
  const int kSteps = 8;
  const RunResult fp32 = run_finetune(base_config(), kSteps);
  auto cfg = base_config();
  cfg.expert_budget = 1;
  cfg.store_dtype = store::StoreDtype::kQ8;
  const RunResult q8 = run_finetune(cfg, kSteps);
  ASSERT_EQ(q8.losses.size(), fp32.losses.size());
  for (int i = 0; i < kSteps; ++i) {
    EXPECT_TRUE(std::isfinite(q8.losses[i])) << "step " << i;
    EXPECT_NEAR(q8.losses[i], fp32.losses[i],
                0.15f * std::abs(fp32.losses[i]) + 0.05f)
        << "step " << i;
  }
  EXPECT_LT(q8.losses.back(), q8.losses.front());
  EXPECT_GT(q8.page_out_bytes, 0u);
  // The q8 spill image is materially smaller than fp32's for the same
  // schedule (bulk quarters; headers and scales stay fp32).
  cfg.store_dtype = store::StoreDtype::kFp32;
  const RunResult fp32_paged = run_finetune(cfg, kSteps);
  EXPECT_LT(q8.page_out_bytes, fp32_paged.page_out_bytes);
}

// --- audit -------------------------------------------------------------------

TEST(Offload, ConservationAuditCleanUnderPaging) {
  // VELA_AUDIT with a one-slot pool: the network ledger must still balance
  // exactly (paging is never charged as traffic), and the informational
  // paging counters must satisfy page_in <= page_out.
  audit::set_enabled_for_testing(true);
  audit::LockOrderGraph::instance().reset_for_testing();
  audit::ConservationLedger::instance().reset_for_testing();
  std::vector<std::pair<std::string, std::string>> violations;
  audit::set_violation_handler(
      [&violations](const std::string& category, const std::string& detail) {
        violations.emplace_back(category, detail);
      });

  auto cfg = base_config();
  cfg.expert_budget = 1;
  const RunResult r = run_finetune(cfg, 2);
  EXPECT_EQ(r.losses.size(), 2u);
  EXPECT_GT(r.page_out_bytes, 0u);

  audit::set_violation_handler(nullptr);
  audit::LockOrderGraph::instance().reset_for_testing();
  audit::ConservationLedger::instance().reset_for_testing();
  audit::set_enabled_for_testing(false);
  for (const auto& [category, detail] : violations) {
    ADD_FAILURE() << category << ": " << detail;
  }
}

// --- the disk table rejects torn state ---------------------------------------

TEST(OffloadDiskTable, RoundTripAndFreeSlotReuse) {
  const std::string path = temp_path("offload_table.bin");
  store::DiskTable table(path, /*remove_on_close=*/true);
  const std::vector<unsigned char> payload = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::uint32_t s0 = table.write(payload.data(), payload.size());
  const std::vector<unsigned char> other = {9, 9, 9, 9, 9, 9, 9, 9};
  const std::uint32_t s1 = table.write(other.data(), other.size());
  EXPECT_EQ(table.read(s0), payload);
  EXPECT_EQ(table.read(s1), other);
  table.free_slot(s0);
  EXPECT_THROW(table.read(s0), CheckError);
  // Lowest free index is reused deterministically.
  EXPECT_EQ(table.write(payload.data(), payload.size()), s0);
}

TEST(OffloadDiskTable, CorruptPayloadFailsChecksum) {
  const std::string path = temp_path("offload_corrupt.bin");
  std::uint32_t slot = 0;
  {
    store::DiskTable table(path, /*remove_on_close=*/false);
    const std::vector<unsigned char> payload(16, 0xAB);
    slot = table.write(payload.data(), payload.size());
  }
  {
    // Flip one payload byte on disk: header 20B + slot header 12B in.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(20 + 12 + 3);
    const char twiddled = static_cast<char>(0xAC);
    f.write(&twiddled, 1);
  }
  store::DiskTable reopened(path, /*remove_on_close=*/true);
  EXPECT_EQ(reopened.slots_in_use(), 1u);
  EXPECT_THROW(reopened.read(slot), CheckError);
}

TEST(OffloadDiskTable, TruncatedTableRejectedOnOpen) {
  const std::string path = temp_path("offload_truncated.bin");
  {
    store::DiskTable table(path, /*remove_on_close=*/false);
    const std::vector<unsigned char> payload(16, 0x5C);
    table.write(payload.data(), payload.size());
  }
  {
    // Chop the file mid-slot: the header still declares one full slot.
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 24u);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 8));
  }
  EXPECT_THROW(store::DiskTable(path, /*remove_on_close=*/false), CheckError);
  std::remove(path.c_str());
}

TEST(OffloadDiskTable, NotATableRejected) {
  const std::string path = temp_path("offload_garbage.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a VELA store table, but long enough to map";
  }
  EXPECT_THROW(store::DiskTable(path, /*remove_on_close=*/false), CheckError);
  std::remove(path.c_str());
}

// --- eviction determinism ----------------------------------------------------

store::SlotFactory tiny_factory() {
  return [](const store::ExpertKey& key) {
    Rng rng(nn::expert_seed(3, key.layer, key.expert));
    store::ExpertSlot slot;
    slot.expert = std::make_unique<nn::SwiGLUExpert>(
        "layer" + std::to_string(key.layer) + ".expert" +
            std::to_string(key.expert),
        8, 16, nn::LoRAConfig{2, 4.0f, true}, rng);
    slot.optimizer = std::make_unique<nn::AdamW>(
        slot.expert->trainable_parameters(), nn::AdamWConfig{});
    return slot;
  };
}

store::StoreConfig tiny_store_config(store::EvictionPolicy policy,
                                     long long budget) {
  store::StoreConfig cfg;
  cfg.budget = budget;
  cfg.dir = testutil::temp_dir();
  cfg.dtype = store::StoreDtype::kFp32;
  cfg.policy = policy;
  return cfg;
}

// A scripted access sequence over 6 experts with a 2-slot pool.
std::vector<store::ExpertKey> replay_evictions(store::EvictionPolicy policy) {
  store::PagedStore s(tiny_store_config(policy, 2), tiny_factory());
  // Priorities are known up front (as the placement's locality scores are)
  // and favor experts 0 and 1 — the opposite of install order, so locality-
  // driven evictions cannot coincide with FIFO's.
  std::vector<std::pair<store::ExpertKey, float>> prios;
  for (std::uint32_t e = 0; e < 6; ++e) {
    prios.emplace_back(store::ExpertKey{0, e}, static_cast<float>(5 - e));
  }
  s.set_priorities(prios);
  for (std::uint32_t e = 0; e < 6; ++e) s.emplace({0, e});
  const std::uint32_t script[] = {5, 4, 0, 5, 1, 2, 5, 4, 3, 0, 5};
  for (const std::uint32_t e : script) {
    s.pin({0, e});
    s.unpin({0, e});
  }
  return s.eviction_log();
}

TEST(OffloadEviction, LogIsDeterministicAcrossReplays) {
  for (const auto policy :
       {store::EvictionPolicy::kLocality, store::EvictionPolicy::kLru,
        store::EvictionPolicy::kFifo}) {
    const auto first = replay_evictions(policy);
    const auto second = replay_evictions(policy);
    EXPECT_GT(first.size(), 0u);
    EXPECT_EQ(first, second);
  }
}

TEST(OffloadEviction, PoliciesProduceDistinctOrders) {
  // Locality protects the high-priority experts the script keeps touching,
  // so it must evict differently from FIFO's install order on this script.
  const auto locality = replay_evictions(store::EvictionPolicy::kLocality);
  const auto fifo = replay_evictions(store::EvictionPolicy::kFifo);
  EXPECT_NE(locality, fifo);
}

TEST(OffloadEviction, EqualPrioritiesDegradeToLru) {
  // With a flat priority map the locality order's first key falls through
  // to its recency tie-break — i.e. exactly LRU. Replays must agree
  // eviction for eviction.
  auto run = [](store::EvictionPolicy policy, bool flat_prios) {
    store::PagedStore s(tiny_store_config(policy, 2), tiny_factory());
    for (std::uint32_t e = 0; e < 5; ++e) s.emplace({0, e});
    if (flat_prios) {
      std::vector<std::pair<store::ExpertKey, float>> prios;
      for (std::uint32_t e = 0; e < 5; ++e) {
        prios.emplace_back(store::ExpertKey{0, e}, 1.0f);
      }
      s.set_priorities(prios);
    }
    const std::uint32_t script[] = {0, 3, 1, 4, 2, 0, 3, 2};
    for (const std::uint32_t e : script) {
      s.pin({0, e});
      s.unpin({0, e});
    }
    return s.eviction_log();
  };
  EXPECT_EQ(run(store::EvictionPolicy::kLocality, /*flat_prios=*/true),
            run(store::EvictionPolicy::kLru, /*flat_prios=*/false));
}

TEST(OffloadEviction, PinnedExpertsAreNeverEvicted) {
  store::PagedStore s(tiny_store_config(store::EvictionPolicy::kLru, 1),
                      tiny_factory());
  s.emplace({0, 0});
  s.emplace({0, 1});
  store::ExpertSlot& held = s.pin({0, 0});
  // Transient over-budget: pinning a second expert while the first is held
  // may not evict the held one.
  s.pin({0, 1});
  s.unpin({0, 1});
  EXPECT_EQ(&s.pin({0, 0}), &held);  // same resident object, no reload
  s.unpin({0, 0});
  s.unpin({0, 0});
}

TEST(OffloadEviction, PagedStateSurvivesEviction) {
  // Mutate an expert's adapters, force it out of a 1-slot pool, page it
  // back in: the mutation must round-trip through the spill image.
  store::PagedStore s(tiny_store_config(store::EvictionPolicy::kLru, 1),
                      tiny_factory());
  s.emplace({0, 0});
  s.emplace({0, 1});
  std::vector<float> mutated;
  {
    store::Pinned pinned(s, {0, 0});
    for (auto& p : pinned.expert().trainable_parameters()) {
      Tensor& v = p.var.mutable_value();
      for (std::size_t i = 0; i < v.size(); ++i) v.data()[i] += 0.25f;
      for (std::size_t i = 0; i < v.size(); ++i) mutated.push_back(v.data()[i]);
    }
  }
  {
    // Touch the other expert so expert 0 is evicted (budget 1, LRU).
    store::Pinned other(s, {0, 1});
  }
  EXPECT_GE(s.stats().evictions, 1u);
  std::vector<float> reloaded;
  {
    store::Pinned pinned(s, {0, 0});
    for (auto& p : pinned.expert().trainable_parameters()) {
      const Tensor& v = p.var.value();
      for (std::size_t i = 0; i < v.size(); ++i) reloaded.push_back(v.data()[i]);
    }
  }
  ASSERT_EQ(reloaded.size(), mutated.size());
  for (std::size_t i = 0; i < mutated.size(); ++i) {
    EXPECT_EQ(reloaded[i], mutated[i]) << "index " << i;
  }
  EXPECT_GT(s.stats().misses, 0u);
}

}  // namespace
}  // namespace vela
