// VelaSystem: the top-level public API of the library.
//
// Wires everything together in the paper's workflow:
//
//   VelaSystemConfig cfg;                    // model + cluster + optimizer
//   VelaSystem vela(cfg);                    // spawn master + workers
//   vela.profile(dataset);                   // pass data through the model,
//                                            //   estimate P (§IV-B)
//   vela.optimize_placement();               // LP placement + migration
//   for (...) vela.train_step(batch);        // LoRA fine-tuning
//
// Every train_step returns the measured per-step communication (Fig. 5's
// metric) and the modelled step duration (Fig. 6's metric).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "comm/comm_clock.h"
#include "comm/wire_codec.h"
#include "core/liveness.h"
#include "core/master.h"
#include "core/profiler.h"
#include "core/replanner.h"
#include "model/router_planting.h"
#include "model/transformer.h"
#include "nn/optimizer.h"
#include "nn/schedule.h"
#include "placement/locality_aware.h"

namespace vela::core {

struct VelaSystemConfig {
  model::ModelConfig model;
  cluster::ClusterConfig cluster;
  comm::CommClockConfig clock;
  nn::AdamWConfig adamw;
  std::uint64_t seed = 1;
  // Feature/gradient exchange precision (DESIGN.md §13). kDefault consults
  // VELA_WIRE_DTYPE, then falls back to kFp16Accounted — the paper's b = 16
  // accounting with payload numerics kept at fp32 ("exchanged without
  // precision loss"). kFp16 rounds payloads to binary16 on the wire; kInt8
  // also switches hosted experts to the packed-q8 GEMM compute path.
  comm::WireDtype wire_dtype = comm::WireDtype::kDefault;
  // int8 block length (32/64); 0 resolves VELA_WIRE_BLOCK, then 64.
  unsigned q8_block = 0;
  // Weight of the Switch-style load-balancing auxiliary loss. 0 for the
  // paper's fine-tuning setting (locality must not be suppressed).
  float aux_loss_weight = 0.0f;
  // Worker capacity slack over the even share of L·E experts.
  double capacity_slack = 1.34;
  // Micro-chunked dispatch pipeline depth K (DESIGN.md §8): each expert
  // group is split into K row chunks so workers compute chunk i while chunk
  // i+1 is in flight. Results, gradients and byte counts are bit-identical
  // to the sequential exchange at any K; only the modeled overlap step time
  // changes. -1 = read the VELA_OVERLAP env var; 0 or 1 = off.
  int overlap_chunks = -1;
  // Comm-fabric backend for every master↔worker link (DESIGN.md §10).
  // kDefault follows VELA_TRANSPORT (unset → inproc). Losses, weights and
  // TrafficMeter byte counts are bit-exact across backends.
  comm::TransportKind transport = comm::TransportKind::kDefault;
  // Expert store (DESIGN.md §15): resident-expert budget per worker. -1
  // resolves VELA_EXPERT_BUDGET; 0 / unset keeps every expert resident
  // (bit-identical to the pre-store runtime); > 0 bounds the resident pool
  // and spills cold experts to an on-disk table.
  long long expert_budget = -1;
  // Spill directory; empty resolves VELA_STORE_DIR, then the system temp dir.
  std::string store_dir;
  // At-rest dtype of paged images (kDefault resolves VELA_STORE_DTYPE:
  // fp32 = lossless round trip, q8 = block-quantized adapters/moments).
  store::StoreDtype store_dtype = store::StoreDtype::kDefault;
};

struct StepReport {
  std::size_t step = 0;
  float loss = 0.0f;
  double external_mb_per_node = 0.0;  // measured bytes (Fig. 5 series)
  double comm_seconds = 0.0;          // modelled communication time
  double step_seconds = 0.0;          // modelled comm + compute (Fig. 6)
  std::size_t overlap_chunks = 0;     // dispatch pipeline depth (0/1 = off)
  double overlap_step_seconds = 0.0;  // modelled step time under the overlap
                                      // clock; equals step_seconds when off
  // --- fault tolerance (all zero on a healthy run) ---------------------------
  std::size_t faults_injected = 0;    // injector events during this step
  std::size_t retries = 0;            // step-level recovery retries
  std::size_t workers_recovered = 0;  // workers respawned during this step
  double recovery_mb = 0.0;           // state-restoration traffic (in the
                                      // meter too; broken out here)
  std::size_t workers_lost = 0;       // workers declared dead this step
                                      // (training degraded to the survivors)
  double injected_delay_seconds = 0.0;  // virtual delay-fault time, already
                                        // included in comm/step_seconds
  // Expert-store paging traffic this step (page-ins + page-outs, DESIGN.md
  // §15). Disk bytes, NOT network bytes: never part of external_mb_per_node.
  // 0.0 whenever the fleet runs unbounded.
  double paged_mb = 0.0;
};

// Opt-in resilience for train_step: on a WorkerFailedError the fleet is
// probed, dead workers respawned (state restored from the last snapshot),
// and the step retried. Defaults make crash recovery lossless: with a
// snapshot every step, a retried step re-runs from exactly the pre-step
// state, so the loss sequence is bit-identical to a fault-free run.
struct FaultToleranceConfig {
  RetryPolicy retry;           // per-request timeout / retransmission budget
  int max_step_retries = 3;    // whole-step retries before giving up
  // Steps between full-state snapshots (adapters + optimizer moments);
  // 0 disables periodic snapshots. Snapshot traffic is metered and charged
  // to the step that takes it.
  std::size_t snapshot_interval = 1;
  // Per-worker respawn budget (DESIGN.md §11): once a worker has consumed
  // this many respawns, its next failure declares it dead and training
  // degrades to the survivors — orphaned experts migrate from the freshest
  // recovery source and the step retries at reduced capacity. -1 keeps the
  // old behavior (unlimited respawns, never degrade); 0 degrades on the
  // first failure.
  int respawn_budget = -1;
  // Liveness heartbeat (DESIGN.md §11): interval > 0 arms a probe pass at
  // the start of every train_step, catching workers that died while idle.
  // Defaults follow VELA_HEARTBEAT_MS (unset = off, preserving healthy-run
  // byte ledgers exactly).
  LivenessConfig liveness = liveness_config_from_env();
  // Time source for retry deadlines, heartbeat scheduling and reconnect
  // backoff. Tests inject a util::FakeClock so timeout paths resolve in
  // virtual time. nullptr = the real system clock.
  util::Clock* clock = nullptr;
};

// The initial (pre-optimization) placement every mode starts from: expert e
// of every layer on worker e mod W. Exported so a remote vela_node process
// derives the SAME expert assignment for its rank that the master derives
// when adopting it — single source of truth (DESIGN.md §12).
placement::Placement initial_placement(std::size_t num_layers,
                                       std::size_t num_experts,
                                       std::size_t num_workers);

// The WorkerSpec a VelaSystem built from `cfg` gives worker `worker_id` on
// cluster node `node`. Exported for the same reason as initial_placement:
// a worker process must rebuild bit-identical frozen bases and optimizer
// settings from the scenario alone.
WorkerSpec make_worker_spec(const VelaSystemConfig& cfg, std::size_t worker_id,
                            std::size_t node);

class VelaSystem {
 public:
  // Builds the cluster, spawns workers under an initial sequential
  // placement, and constructs the backbone model around the expert broker.
  // If `plant_corpus` is provided, pre-trained expert locality is planted
  // for it before any worker computation happens.
  VelaSystem(const VelaSystemConfig& cfg,
             const data::SyntheticCorpus* plant_corpus = nullptr,
             const model::PlantingConfig& planting = {});

  // Wraps a pre-built fleet — the multi-process deployment path, where the
  // MasterProcess was assembled from a PeerListener (remote-fleet ctor)
  // before the system exists. `master` must host cfg.model's expert grid
  // under initial_placement; everything above the fleet (backbone, broker
  // wiring, optimizer, clock) is identical to the spawning constructor.
  VelaSystem(const VelaSystemConfig& cfg, std::unique_ptr<MasterProcess> master,
             const data::SyntheticCorpus* plant_corpus = nullptr,
             const model::PlantingConfig& planting = {});

  // --- the paper's workflow --------------------------------------------------
  // Profiling pass: estimates the probability matrix P.
  const moe::RoutingStats& profile(
      const std::vector<std::vector<std::size_t>>& dataset,
      std::size_t batch_size);

  // Solves the placement LP from the profiled P for a fine-tuning workload
  // of `tokens_per_step` (K), migrates experts, returns the placement used.
  const placement::Placement& optimize_placement(double tokens_per_step);
  // Installs an externally chosen placement (sequential/random baselines).
  void set_placement(const placement::Placement& placement);

  // One LoRA fine-tuning step on `batch`.
  StepReport train_step(const std::vector<std::vector<std::size_t>>& batch);

  // One optimizer step over several micro-batches (gradient accumulation):
  // gradients from every micro-batch accumulate — on the master for the
  // backbone, on the workers for the experts — before a single update.
  // The reported loss is the mean over micro-batches.
  StepReport train_step_accumulated(
      const std::vector<std::vector<std::vector<std::size_t>>>& micro_batches);

  // Installs a learning-rate schedule; before each step the scheduled rate
  // is applied to the backbone optimizer and broadcast to the workers.
  // The schedule must outlive the system.
  void set_lr_schedule(const nn::LrSchedule* schedule);

  // Persists / restores the complete fine-tuning state (backbone + expert
  // LoRA adapters, pulled from / pushed to the hosting workers). Optimizer
  // moments are not checkpointed.
  void save_checkpoint(const std::string& path);
  void load_checkpoint(const std::string& path);

  // Dynamic re-placement: after every step the routing decisions feed a
  // sliding-window estimate of P, and every cfg.interval steps the placement
  // LP is re-solved; experts migrate when the predicted gain clears the
  // hysteresis threshold. Migration traffic is charged to the triggering
  // step. (Extension beyond the paper, motivated by Fig. 5(a)'s drift.)
  void enable_dynamic_replacement(const ReplanConfig& cfg,
                                  double tokens_per_step);
  const Replanner* replanner() const { return replanner_.get(); }

  // --- fault tolerance -------------------------------------------------------
  // Turns on graceful degradation (see FaultToleranceConfig): installs the
  // retry policy on every link and takes an initial snapshot so even a
  // first-step crash has a restore point. The provisioning snapshot's
  // traffic is discarded (setup, like initial placement); periodic refresh
  // snapshots are charged to the step that takes them.
  void enable_fault_tolerance(const FaultToleranceConfig& cfg = {});
  bool fault_tolerance_enabled() const { return ft_enabled_; }

  // Attaches a deterministic fault injector to every master↔worker link
  // (comm/fault_injector.h). Null detaches. The injector must outlive the
  // system. Injected faults, step retries, respawned workers and recovery
  // traffic all surface in the StepReport.
  void attach_fault_injector(comm::FaultInjector* injector) {
    master_->attach_fault_injector(injector);
  }

  // --- access ---------------------------------------------------------------
  model::MoETransformer& model() { return *model_; }
  MasterProcess& master() { return *master_; }
  const cluster::ClusterTopology& topology() const {
    return master_->topology();
  }
  const comm::CommClock& clock() const { return *clock_; }
  const std::optional<moe::RoutingStats>& profiled_stats() const {
    return profiled_;
  }
  const placement::LocalityAwareReport& placement_report() const {
    return placement_report_;
  }
  std::size_t steps_taken() const { return step_; }
  std::size_t overlap_chunks() const { return overlap_chunks_; }
  const std::vector<StepReport>& history() const { return history_; }
  // The last step's per-phase master<->worker ledger (forward blocks
  // 0..L-1, then backward L-1..0); empty before the first step.
  const comm::VelaStepRecord& last_step_record() const { return last_record_; }

 private:
  // Shared tail of both constructors: model, planting, optimizer, comm
  // clock and overlap depth on top of an already-built master_.
  void init(const data::SyntheticCorpus* plant_corpus,
            const model::PlantingConfig& planting);

  // Degrades to the survivors when a recovery pass declared workers dead:
  // re-solves the placement for the reduced fleet (degrade_placement) and
  // migrates the orphaned experts. No-op when nothing died.
  void degrade_after(const RecoveryReport& report);

  VelaSystemConfig cfg_;
  std::unique_ptr<MasterProcess> master_;
  std::unique_ptr<model::MoETransformer> model_;
  std::unique_ptr<nn::AdamW> backbone_optimizer_;
  std::unique_ptr<comm::CommClock> clock_;
  std::optional<moe::RoutingStats> profiled_;
  placement::LocalityAwareReport placement_report_;
  const nn::LrSchedule* lr_schedule_ = nullptr;
  std::unique_ptr<Replanner> replanner_;
  bool ft_enabled_ = false;
  FaultToleranceConfig ft_;
  // Workload scale of the last placement solve; reused by degrade_after to
  // rebuild the cost model (the orphan argmin is invariant to this common
  // factor, so any positive value yields the same degraded placement).
  double tokens_per_step_ = 1.0;
  std::size_t overlap_chunks_ = 0;  // resolved pipeline depth (0/1 = off)
  std::size_t step_ = 0;
  std::vector<StepReport> history_;
  comm::VelaStepRecord last_record_;
};

}  // namespace vela::core
