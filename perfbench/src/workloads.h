// The benchmark's three fine-tune workloads and the runners that drive them
// through the public core::VelaSystem / ep::EpRuntime API.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/transport.h"
#include "core/vela_system.h"
#include "data/corpus.h"
#include "inputs.h"
#include "trace.h"

namespace perfbench {

// Resident-expert budget of vela_drift, the budget the store probe uses.
inline constexpr long long kPagedBudget = 2;
// Initialisation seed of every model and expert the benchmark builds.
inline constexpr std::uint64_t kModelSeed = 7;

struct Workload {
  std::string name;
  bool ep = false;  // expert-parallel baseline instead of VELA
  vela::comm::TransportKind transport = vela::comm::TransportKind::kInProc;
  InputSpec input;
  long long expert_budget = 0;  // resident experts per worker; 0 = all
  bool replan = false;          // re-solve the placement every step
  // Untimed leading steps; a replanning workload also fills its routing
  // window here, so every timed step evaluates a replan.
  std::size_t warmup_steps = 2;
};

// vela_bulk, vela_drift or ep_bulk; nullopt for any other name.
std::optional<Workload> find_workload(const std::string& name);

// Fixed model/corpus settings shared by every workload.
vela::model::ModelConfig bench_model();
// The corpus structure (token→domain map); sequences come from the seed.
vela::data::SyntheticCorpus bench_corpus();

struct StepOutcome {
  float loss = 0.0f;
  double external_mb = 0.0;  // StepReport::external_mb_per_node
  double modeled_s = 0.0;    // StepReport::step_seconds
  double paged_mb = 0.0;     // StepReport::paged_mb
};

// Monotone counters read around a window of steps.
struct Counters {
  std::uint64_t requests = 0;           // ExpertBroker::requests_sent
  std::uint64_t messages = 0;           // Σ Endpoint::messages_sent, master links
  std::uint64_t total_bytes = 0;        // TrafficMeter lifetime total
  std::uint64_t replans_evaluated = 0;  // Replanner counters
  std::uint64_t replans_adopted = 0;
};

class Runner {
 public:
  virtual ~Runner() = default;
  virtual StepOutcome step(const Batch& batch) = 0;
  virtual Counters counters() = 0;
  // The VELA system behind the runner; nullptr for the EP baseline.
  virtual vela::core::VelaSystem* vela() { return nullptr; }
};

// Builds a runner up to its first trainable step: for VELA construction,
// planting, profile over `profile_set` and optimize_placement; for EP
// construction. Records spans for each phase when the tracer is armed.
std::unique_ptr<Runner> make_runner(const Workload& w,
                                    const vela::data::SyntheticCorpus& corpus,
                                    const Batch& profile_set,
                                    double tokens_per_step,
                                    const std::string& store_dir,
                                    Tracer& tracer);

}  // namespace perfbench
