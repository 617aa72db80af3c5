#include "core/vela_system.h"

#include <algorithm>
#include <optional>

#include "core/checkpoint.h"
#include "placement/degrade.h"
#include "util/audit.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace vela::core {

placement::Placement initial_placement(std::size_t num_layers,
                                       std::size_t num_experts,
                                       std::size_t num_workers) {
  placement::Placement p(num_layers, num_experts);
  for (std::size_t l = 0; l < num_layers; ++l) {
    for (std::size_t e = 0; e < num_experts; ++e) {
      p.assign(l, e, e % num_workers);
    }
  }
  return p;
}

WorkerSpec make_worker_spec(const VelaSystemConfig& cfg, std::size_t worker_id,
                            std::size_t node) {
  WorkerSpec spec;
  spec.worker_id = worker_id;
  spec.node = node;
  spec.model_dim = cfg.model.model_dim;
  spec.hidden_dim = cfg.model.hidden_dim;
  spec.lora = cfg.model.lora;
  spec.adamw = cfg.adamw;
  spec.base_seed = cfg.seed;
  spec.wire_dtype = cfg.wire_dtype;
  spec.q8_block = cfg.q8_block;
  spec.expert_budget = cfg.expert_budget;
  spec.store_dir = cfg.store_dir;
  spec.store_dtype = cfg.store_dtype;
  return spec;
}

VelaSystem::VelaSystem(const VelaSystemConfig& cfg,
                       const data::SyntheticCorpus* plant_corpus,
                       const model::PlantingConfig& planting)
    : cfg_(cfg) {
  // Warm the shared compute pool before any worker thread races to build it,
  // and surface the lane count once per system (VELA_THREADS overrides the
  // hardware default; results are bit-identical at any size).
  VELA_LOG_INFO("vela") << "thread pool: "
                        << util::ThreadPool::global().size() << " lane(s)";
  cluster::ClusterTopology topology(cfg.cluster);
  master_ = std::make_unique<MasterProcess>(
      topology, make_worker_spec(cfg, 0, 0),
      initial_placement(cfg.model.num_layers, cfg.model.num_experts,
                        topology.num_workers()),
      cfg.model.num_layers, cfg.model.num_experts, cfg.transport);
  init(plant_corpus, planting);
}

VelaSystem::VelaSystem(const VelaSystemConfig& cfg,
                       std::unique_ptr<MasterProcess> master,
                       const data::SyntheticCorpus* plant_corpus,
                       const model::PlantingConfig& planting)
    : cfg_(cfg), master_(std::move(master)) {
  VELA_CHECK_MSG(master_ != nullptr,
                 "pre-built-fleet VelaSystem needs a MasterProcess");
  VELA_CHECK_MSG(master_->placement().num_layers() == cfg.model.num_layers &&
                     master_->placement().num_experts() ==
                         cfg.model.num_experts,
                 "pre-built fleet hosts a different expert grid than "
                 "cfg.model describes");
  init(plant_corpus, planting);
}

void VelaSystem::init(const data::SyntheticCorpus* plant_corpus,
                      const model::PlantingConfig& planting) {
  const VelaSystemConfig& cfg = cfg_;
  Rng model_rng(cfg.seed);
  model_ = std::make_unique<model::MoETransformer>(
      cfg.model, &master_->broker(), model_rng, /*trainable_gate=*/false);
  if (plant_corpus != nullptr) {
    model::plant_locality(*model_, *plant_corpus, planting);
  }
  backbone_optimizer_ =
      std::make_unique<nn::AdamW>(model_->trainable_parameters(), cfg.adamw);
  clock_ = std::make_unique<comm::CommClock>(&master_->topology(), cfg.clock);

  // Dispatch pipeline depth: config wins, env (VELA_OVERLAP) is the default.
  overlap_chunks_ = cfg.overlap_chunks >= 0
                        ? std::min<std::size_t>(
                              static_cast<std::size_t>(cfg.overlap_chunks), 255)
                        : overlap_chunks_from_env();
  master_->set_overlap_chunks(overlap_chunks_);
  if (overlap_chunks_ >= 2) {
    VELA_LOG_INFO("vela") << "overlap dispatch pipeline: K=" << overlap_chunks_;
  }
}

const moe::RoutingStats& VelaSystem::profile(
    const std::vector<std::vector<std::size_t>>& dataset,
    std::size_t batch_size) {
  profiled_ = profile_expert_access(*model_, dataset, batch_size);
  // Profiling is not a fine-tuning step; retire its traffic and tapes.
  master_->meter().discard_current();
  master_->broker().finish_step();
  master_->broadcast_optimizer_step(0);  // workers drop forward-only tapes
  return *profiled_;
}

const placement::Placement& VelaSystem::optimize_placement(
    double tokens_per_step) {
  VELA_CHECK_MSG(profiled_.has_value(),
                 "optimize_placement() requires a profile() pass first");
  tokens_per_step_ = tokens_per_step;
  const placement::PlacementProblem problem = build_placement_problem(
      profiled_->probability_matrix(), cfg_.model, master_->topology(),
      tokens_per_step, cfg_.capacity_slack, master_->broker().codec());
  placement::LocalityAwarePlacement strategy;
  const placement::Placement optimized = strategy.place(problem);
  placement_report_ = strategy.report();
  master_->apply_placement(optimized);
  // The same locality scores that drove the placement LP prime the expert
  // stores' eviction order (DESIGN.md §15): a hot expert outlives a cold one
  // in the resident pool. No-op (and no bytes) on an unbounded fleet.
  master_->set_store_priorities(profiled_->probability_matrix());
  master_->meter().discard_current();  // migration traffic is one-off setup
  return master_->placement();
}

void VelaSystem::set_placement(const placement::Placement& placement) {
  master_->apply_placement(placement);
  master_->meter().discard_current();
}

StepReport VelaSystem::train_step(
    const std::vector<std::vector<std::size_t>>& batch) {
  return train_step_accumulated({batch});
}

StepReport VelaSystem::train_step_accumulated(
    const std::vector<std::vector<std::vector<std::size_t>>>& micro_batches) {
  VELA_CHECK(!micro_batches.empty());
  comm::FaultInjector* injector = master_->fault_injector();
  const std::uint64_t faults_before =
      injector != nullptr ? injector->faults_injected() : 0;
  const std::size_t recovered_before = master_->workers_recovered();
  const std::uint64_t recovery_bytes_before = master_->recovery_bytes();
  const std::size_t live_before = master_->num_live_workers();
  std::size_t retries = 0;

  // Liveness pass (DESIGN.md §11): probe workers whose heartbeat interval
  // elapsed since they were last heard from. A worker that died while idle
  // is caught HERE — before the step routes tokens to it — and respawned or
  // degraded away, instead of surfacing as a mid-sweep timeout below.
  if (ft_enabled_) degrade_after(master_->heartbeat_tick());

  master_->broker().begin_step();

  float scheduled_lr = -1.0f;
  if (lr_schedule_ != nullptr) {
    scheduled_lr = lr_schedule_->lr(step_);
    backbone_optimizer_->set_learning_rate(scheduled_lr);
  }

  // Gradients accumulate across micro-batches — in the master's tape for
  // the backbone, in the workers' local tapes for the experts — before one
  // optimizer step. Each micro-batch is scaled so the update equals the
  // mean-gradient update over the combined batch.
  //
  // Graceful degradation: a worker failure anywhere in the forward/backward
  // sweep aborts the attempt (no optimizer has stepped yet), recovers the
  // fleet, and re-runs the whole sweep. With a current snapshot the retry
  // starts from exactly the pre-step state, so it is bit-identical to a
  // fault-free step. Traffic of the failed attempt stays charged to this
  // step — those bytes really crossed the network.
  const float inv_m = 1.0f / static_cast<float>(micro_batches.size());
  double loss_total = 0.0;
  for (;;) {
    try {
      backbone_optimizer_->zero_grad();
      loss_total = 0.0;
      for (const auto& batch : micro_batches) {
        ag::Variable loss =
            model_->loss_batch(batch, nullptr, cfg_.aux_loss_weight);
        loss_total += loss.value()[0];
        ag::backward(micro_batches.size() == 1 ? loss : ag::scale(loss, inv_m));
      }
      break;
    } catch (const WorkerFailedError& err) {
      if (!ft_enabled_ || static_cast<int>(retries) >= ft_.max_step_retries) {
        throw;
      }
      ++retries;
      VELA_LOG_ERROR("vela") << "step " << step_ << " attempt failed ("
                             << err.what() << "); recovering and retrying";
      degrade_after(master_->recover_step());
    }
  }

  backbone_optimizer_->step();
  try {
    master_->broadcast_optimizer_step(static_cast<std::uint32_t>(step_),
                                      scheduled_lr);
  } catch (const WorkerFailedError& err) {
    // Commit-phase failure: the backbone and the surviving workers have
    // already applied this step's update (the broadcast is idempotent on
    // survivors thanks to reply caching), so the step is NOT re-run. The
    // respawned worker restores the last snapshot and loses at most this
    // one expert update — bounded staleness, like an async straggler.
    if (!ft_enabled_) throw;
    ++retries;
    VELA_LOG_ERROR("vela") << "step " << step_ << " commit-phase failure ("
                           << err.what()
                           << "); respawned worker resumes one update behind";
    degrade_after(master_->recover_step());
  }

  // Dynamic re-placement: migration traffic (if any) is charged to this
  // step — the price of adapting to routing drift.
  if (replanner_ != nullptr) {
    replanner_->observe(model_->last_plans());
    if (auto next = replanner_->maybe_replan(master_->placement())) {
      master_->apply_placement(*next);
    }
  }

  // Periodic recovery snapshot; its traffic is metered into this step.
  if (ft_enabled_ && ft_.snapshot_interval > 0 &&
      (step_ + 1) % ft_.snapshot_interval == 0) {
    try {
      master_->snapshot_experts();
    } catch (const WorkerFailedError& err) {
      // Snapshot-phase failure: the optimizer step is already committed, so
      // nothing re-runs. Recover the fleet (respawn or degrade away the dead
      // worker), then re-take the snapshot from the survivors so the restore
      // point stays current.
      ++retries;
      VELA_LOG_ERROR("vela") << "step " << step_ << " snapshot-phase failure ("
                             << err.what()
                             << "); recovering and re-snapshotting survivors";
      degrade_after(master_->recover_step());
      master_->snapshot_experts();
    }
  }

  const comm::VelaStepRecord record = master_->broker().finish_step();
  master_->meter().end_step();
  // Request/reply traffic is quiescent here, so the audit ledger must
  // balance: every posted byte delivered, dropped, or queued.
  audit::ConservationLedger::instance().check("train_step");

  StepReport report;
  report.step = step_++;
  report.loss = static_cast<float>(loss_total * inv_m);
  report.external_mb_per_node =
      master_->meter().step_external_mb_per_node(master_->meter().num_steps() -
                                                 1);
  report.comm_seconds = clock_->vela_comm_seconds(record);
  report.step_seconds = clock_->vela_step_seconds(record);
  // The measured byte ledger is invariant in the pipeline depth; only the
  // step-time model changes (== step_seconds when the pipeline is off).
  report.overlap_chunks = overlap_chunks_;
  report.overlap_step_seconds =
      clock_->vela_overlap_step_seconds(record, overlap_chunks_);
  report.retries = retries;
  report.workers_recovered = master_->workers_recovered() - recovered_before;
  report.workers_lost = live_before - master_->num_live_workers();
  report.recovery_mb =
      static_cast<double>(master_->recovery_bytes() - recovery_bytes_before) /
      1e6;
  report.paged_mb = static_cast<double>(master_->meter().step_paging_bytes(
                        master_->meter().num_steps() - 1)) /
                    1e6;
  if (injector != nullptr) {
    report.faults_injected = injector->faults_injected() - faults_before;
    // Delay faults are virtual: the injector accrues seconds, the step
    // pays them.
    report.injected_delay_seconds = injector->consume_delay_seconds();
    report.comm_seconds += report.injected_delay_seconds;
    report.step_seconds += report.injected_delay_seconds;
    report.overlap_step_seconds += report.injected_delay_seconds;
  }
  history_.push_back(report);
  last_record_ = record;
  return report;
}

void VelaSystem::enable_fault_tolerance(const FaultToleranceConfig& cfg) {
  ft_ = cfg;
  ft_enabled_ = true;
  master_->set_retry_policy(cfg.retry);
  master_->set_respawn_budget(cfg.respawn_budget);
  if (cfg.clock != nullptr) master_->set_clock(cfg.clock);
  if (cfg.liveness.interval.count() > 0) {
    master_->enable_heartbeat(cfg.liveness, cfg.clock);
    VELA_LOG_INFO("vela") << "heartbeat armed: interval="
                          << cfg.liveness.interval.count() << "ms, dead after "
                          << cfg.liveness.dead_after << " miss(es)";
  }
  // Provision the initial restore point; setup traffic, not step traffic.
  master_->snapshot_experts();
  master_->meter().discard_current();
}

void VelaSystem::degrade_after(const RecoveryReport& report) {
  if (report.declared_dead.empty()) return;
  // Re-solve for the survivors with the paper's own cost model when a
  // profile exists (orphans chase locality, like any placement); without
  // one, degrade_placement falls back to least-loaded.
  std::optional<placement::PlacementProblem> problem;
  if (profiled_.has_value()) {
    problem = build_placement_problem(
        profiled_->probability_matrix(), cfg_.model, master_->topology(),
        tokens_per_step_, cfg_.capacity_slack, master_->broker().codec());
  }
  const placement::Placement next = placement::degrade_placement(
      master_->placement(), master_->dead_mask(),
      problem.has_value() ? &*problem : nullptr);
  master_->degrade_to(next);
}

void VelaSystem::set_lr_schedule(const nn::LrSchedule* schedule) {
  lr_schedule_ = schedule;
}

void VelaSystem::save_checkpoint(const std::string& path) {
  save_system_checkpoint(path, *model_, *master_);
  master_->meter().discard_current();  // checkpoint traffic is not a step
}

void VelaSystem::load_checkpoint(const std::string& path) {
  load_system_checkpoint(path, *model_, *master_);
  master_->meter().discard_current();
}

void VelaSystem::enable_dynamic_replacement(const ReplanConfig& cfg,
                                            double tokens_per_step) {
  tokens_per_step_ = tokens_per_step;
  replanner_ = std::make_unique<Replanner>(cfg, cfg_.model,
                                           &master_->topology(),
                                           tokens_per_step,
                                           master_->broker().codec());
}

}  // namespace vela::core
