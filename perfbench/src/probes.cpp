#include "probes.h"

#include <algorithm>
#include <chrono>

#include "autograd/ops.h"
#include "comm/endpoint.h"
#include "core/profiler.h"
#include "model/transformer.h"
#include "moe/gate.h"
#include "moe/moe_block.h"
#include "nn/expert.h"
#include "placement/locality_aware.h"
#include "store/expert_store.h"
#include "tensor/ops.h"

namespace perfbench {

namespace {

using namespace vela;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Calls `fn` under a span named `name`, at least `min_reps` times and until
// `min_seconds` have passed, after one untimed warm-up call. Returns the
// median span duration in seconds.
template <typename Fn>
double probe(Tracer& tracer, const std::string& name, int min_reps,
             double min_seconds, Fn&& fn) {
  fn();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < min_reps || seconds_since(start) < min_seconds; ++i) {
    Span span(tracer, name);
    fn();
  }
  return median(tracer.durations(name));
}

// Single-process forward + backward of the same batch on local experts: the
// baseline the distributed step is compared against.
void probe_local_step(const Batch& batch, Tracer& tracer,
                      std::map<std::string, double>& out) {
  const model::ModelConfig cfg = bench_model();
  moe::LocalExpertBackend backend(cfg.num_layers, cfg.num_experts,
                                  cfg.model_dim, cfg.hidden_dim, cfg.lora,
                                  kModelSeed);
  Rng rng(kModelSeed);
  model::MoETransformer model(cfg, &backend, rng);
  auto step = [&] {
    ag::Variable loss;
    {
      Span span(tracer, "model.loss_batch");
      loss = model.loss_batch(batch);
    }
    {
      Span span(tracer, "autograd.backward");
      ag::backward(loss);
    }
    model.zero_grad();
    backend.zero_grad();
  };
  probe(tracer, "probe.local_step", 3, 1.0, step);
  out["local_fwd_ms"] = 1e3 * median(tracer.durations("model.loss_batch"));
  out["local_bwd_ms"] = 1e3 * median(tracer.durations("autograd.backward"));
}

void probe_placement_lp(core::VelaSystem& sys, double tokens_per_step, Tracer& tracer,
                        std::map<std::string, double>& out) {
  const Tensor probability =
      sys.replanner() != nullptr ? sys.replanner()->windowed_probability()
                                 : sys.profiled_stats()->probability_matrix();
  core::VelaSystemConfig defaults;
  const placement::PlacementProblem problem = core::build_placement_problem(
      probability, bench_model(), sys.topology(), tokens_per_step,
      defaults.capacity_slack);
  std::size_t iterations = 0;
  out["lp_ms"] = 1e3 * probe(tracer, "placement.lp", 3, 0.3, [&] {
                   placement::LocalityAwarePlacement lp;
                   lp.place(problem);
                   iterations = lp.report().lp_iterations;
                 });
  out["lp_iterations"] = static_cast<double>(iterations);
}

// pin + unpin of a spilled expert in a standalone PagedStore at the paged
// budget, over the busiest worker's experts in step order (forward by
// ascending layer, backward by descending layer).
void probe_store(core::VelaSystem& sys, const std::string& work_dir,
                 Tracer& tracer, std::map<std::string, double>& out) {
  const placement::Placement& placement = sys.master().placement();
  std::vector<std::pair<std::size_t, std::size_t>> hosted;
  for (std::size_t k = 0; k < sys.master().num_workers(); ++k) {
    auto experts = placement.experts_of(k);
    if (experts.size() > hosted.size()) hosted = std::move(experts);
  }
  std::sort(hosted.begin(), hosted.end());
  std::vector<store::ExpertKey> order;
  for (const auto& [l, e] : hosted) {
    order.push_back({static_cast<std::uint32_t>(l), static_cast<std::uint32_t>(e)});
  }
  for (auto it = hosted.rbegin(); it != hosted.rend(); ++it) {
    order.push_back({static_cast<std::uint32_t>(it->first),
                     static_cast<std::uint32_t>(it->second)});
  }

  const model::ModelConfig cfg = bench_model();
  store::StoreConfig sc;
  sc.budget = kPagedBudget;
  sc.dir = work_dir;
  sc.dtype = store::StoreDtype::kFp32;
  auto paged = store::make_expert_store(sc, [&cfg](const store::ExpertKey& key) {
    Rng rng(nn::expert_seed(kModelSeed, key.layer, key.expert));
    store::ExpertSlot slot;
    slot.expert = std::make_unique<nn::SwiGLUExpert>(
        "probe.expert", cfg.model_dim, cfg.hidden_dim, cfg.lora, rng);
    slot.optimizer = std::make_unique<nn::AdamW>(
        slot.expert->trainable_parameters(), nn::AdamWConfig{});
    return slot;
  });
  for (const store::ExpertKey& key : order) {
    if (!paged->contains(key)) paged->emplace(key);
  }

  std::vector<double> miss_s;
  const auto start = std::chrono::steady_clock::now();
  for (int pass = 0; pass < 2 || seconds_since(start) < 0.3; ++pass) {
    for (const store::ExpertKey& key : order) {
      const std::uint64_t misses = paged->stats().misses;
      {
        Span span(tracer, "store.pin_unpin");
        paged->pin(key);
        paged->unpin(key);
      }
      if (pass > 0 && paged->stats().misses > misses) {
        const SpanRecord& rec = tracer.spans().back();
        miss_s.push_back(static_cast<double>(rec.end_ns - rec.start_ns) * 1e-9);
      }
    }
  }
  out["pin_miss_us"] = 1e6 * median(miss_s);
}

}  // namespace

std::map<std::string, double> run_probes(const Workload& w, Runner& runner,
                                         const Batch& batch,
                                         double tokens_per_step,
                                         const std::string& work_dir,
                                         Tracer& tracer) {
  std::map<std::string, double> out;
  const model::ModelConfig cfg = bench_model();
  const std::size_t rows_per_block = w.input.batch_size * w.input.seq_len;
  // Mean rows one (layer, expert) group carries: the expert compute and
  // dispatch payload shape of this workload.
  const std::size_t rows_per_expert =
      std::max<std::size_t>(1, rows_per_block * cfg.top_k / cfg.num_experts);

  probe_local_step(batch, tracer, out);

  Rng rng(11);
  const Tensor expert_x = ops::randn({rows_per_expert, cfg.model_dim}, rng);
  const Tensor block_x = ops::randn({rows_per_block, cfg.model_dim}, rng);

  nn::SwiGLUExpert expert("probe.expert", cfg.model_dim, cfg.hidden_dim,
                          cfg.lora, rng);
  out["expert_fwd_bwd_us"] =
      1e6 * probe(tracer, "nn.expert_fwd_bwd", 20, 0.3, [&] {
        ag::backward(ag::sum(expert.forward(ag::Variable::constant(expert_x))));
        expert.zero_grad();
      });

  moe::TopKGate gate("probe.gate", cfg.model_dim, cfg.num_experts, cfg.top_k,
                     rng);
  out["gate_us"] = 1e6 * probe(tracer, "moe.gate", 20, 0.2, [&] {
                     gate.forward(ag::Variable::constant(block_x));
                   });

  const Tensor payload({rows_per_expert, cfg.model_dim});
  out["payload_bytes"] = static_cast<double>(payload.size() * sizeof(float));
  auto roundtrip_us = [&](comm::TransportKind kind, const std::string& name) {
    comm::Endpoint channel(kind, 0, 0, nullptr);
    return 1e6 * probe(tracer, name, 50, 0.3, [&] {
             comm::Message msg;
             msg.type = comm::MessageType::kExpertForward;
             msg.payload = payload;
             channel.send(std::move(msg));
             channel.receive();
           });
  };
  out["roundtrip_us"] = roundtrip_us(w.transport, "comm.roundtrip");
  out["socket_roundtrip_us"] =
      roundtrip_us(comm::TransportKind::kSocket, "comm.socket_roundtrip");

  if (core::VelaSystem* sys = runner.vela()) {
    probe_placement_lp(*sys, tokens_per_step, tracer, out);
    probe_store(*sys, work_dir, tracer, out);
  }
  return out;
}

}  // namespace perfbench
