#include "ep/runtime.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <thread>

#include "autograd/ops.h"
#include "comm/phase_ledger.h"
#include "core/expert_executor.h"
#include "ep/peer_backend.h"
#include "util/audit.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace vela::ep {
namespace {

using core::ExpertKey;

store::StoreConfig unbounded_store() {
  store::StoreConfig cfg;
  cfg.budget = 0;  // unbounded, bypasses the env resolution
  return cfg;
}

// Dispatch codec of every shard; EP's own default is the raw fp32 wire.
comm::WireCodec wire_codec(const EpRuntimeConfig& cfg) {
  return comm::WireCodec::resolve(cfg.wire_dtype, comm::WireDtype::kFp32,
                                  cfg.q8_block);
}

// ---------------------------------------------------------------------------
// Expert server: hosts this shard's expert slice on a core::ExpertExecutor
// and serves forward/backward requests from every peer (including its own
// shard), routing each reply back to its source.
// ---------------------------------------------------------------------------
class ExpertServer {
 public:
  ExpertServer(std::size_t shard, const EpRuntimeConfig& cfg,
               std::size_t num_layers, std::size_t num_experts,
               std::size_t num_shards, comm::Endpoint* inbox,
               std::vector<comm::Endpoint*> reply)
      : shard_(shard),
        inbox_(inbox),
        reply_(std::move(reply)),
        // Always the unbounded InMemoryStore: expert parallelism has no
        // locality signal to page against (every shard owns a fixed stripe
        // and every step touches all of it), so the EP baseline keeps its
        // whole slice resident by construction.
        executor_(unbounded_store(), cfg.seed,
                  cfg.model.model_dim, cfg.model.hidden_dim, cfg.model.lora,
                  cfg.adamw,
                  wire_codec(cfg),
                  static_cast<std::uint32_t>(shard),
                  [this](const ExpertKey& key, std::uint32_t source,
                         store::ExpertSlot& slot) {
                    stage_grads(key, source, slot);
                  }) {
    for (std::size_t l = 0; l < num_layers; ++l) {
      for (std::size_t e = shard; e < num_experts; e += num_shards) {
        const ExpertKey key{static_cast<std::uint32_t>(l),
                            static_cast<std::uint32_t>(e)};
        executor_.install(key);
        // Created up front: backward tasks of distinct experts look their
        // entries up concurrently, so the map itself never changes shape.
        staged_[key];
      }
    }
  }

  void start() { thread_ = std::thread([this] { run(); }); }

  void join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  // Per-source-shard gradient deltas of one expert, staged during the step
  // and folded into the parameter grads in ascending source order at
  // kOptimizerStep time. Backward requests from different shards race into
  // the server inbox; accumulating them in arrival order made the summed
  // gradient (and therefore the whole trajectory) depend on thread
  // scheduling. Staging by source restores bit-determinism.
  struct Staged {
    const std::vector<nn::Parameter>* params = nullptr;  // the optimizer's
    std::map<std::uint32_t, std::vector<Tensor>> by_source;
  };

  void run() {
    const std::string tag = "ep-server/" + std::to_string(shard_);
    const auto send = [this](const comm::Message& request,
                             comm::Message reply) {
      return reply_[request.source]->send(std::move(reply));
    };
    try {
      while (true) {
        auto maybe = inbox_->receive();
        if (!maybe.has_value()) return;
        // Drain the backlog: runs of same-type compute requests across all
        // peers become parallel tasks on the shared pool. Per-(server,
        // source) reply FIFO order is preserved because replies always go
        // out on this thread in arrival order.
        std::vector<comm::Message> batch;
        batch.push_back(std::move(*maybe));
        while (auto more = inbox_->try_receive()) {
          batch.push_back(std::move(*more));
        }
        std::size_t i = 0;
        while (i < batch.size()) {
          const comm::MessageType type = batch[i].type;
          if (type == comm::MessageType::kShutdown) return;
          if (type == comm::MessageType::kExpertForward ||
              type == comm::MessageType::kExpertBackward) {
            std::size_t j = i;
            while (j < batch.size() && batch[j].type == type) ++j;
            const std::span<comm::Message> compute(batch.data() + i, j - i);
            VELA_CHECK(type == comm::MessageType::kExpertForward
                           ? executor_.forward(compute, send)
                           : executor_.backward(compute, send));
            i = j;
            continue;
          }
          handle(std::move(batch[i]));
          ++i;
        }
      }
    } catch (const CheckError& err) {
      VELA_LOG_ERROR(tag) << "server terminating on protocol error: "
                          << err.what();
      for (auto* ch : reply_) ch->close();
    }
  }

  // The executor's backward hook (a pool lane, inside the expert's own
  // task): moves the parameter-gradient delta the last backward_from
  // produced into the expert's per-source staging slot and re-zeroes the
  // shared buffers. The cross-source summation order is thereby fixed at
  // fold time instead of inheriting the message arrival order.
  void stage_grads(const ExpertKey& key, std::uint32_t source,
                   store::ExpertSlot& slot) {
    if (slot.optimizer == nullptr) return;  // frozen expert: no gradients
    Staged& staged = staged_.at(key);
    staged.params = &slot.optimizer->params();
    std::vector<Tensor>& deltas = staged.by_source[source];
    const bool fresh = deltas.empty();
    for (std::size_t i = 0; i < staged.params->size(); ++i) {
      ag::Variable p = (*staged.params)[i].var;
      if (fresh) {
        deltas.push_back(p.has_grad() ? p.grad()
                                      : Tensor::zeros(p.value().shape()));
      } else if (p.has_grad()) {
        deltas[i].add_(p.grad());
      }
      p.zero_grad();
    }
  }

  // Folds every expert's staged deltas into its parameter grads in
  // ascending source order (by_source is a std::map), one parallel task per
  // expert — the summed gradient is independent of arrival order.
  void fold_staged() {
    std::vector<std::function<void()>> tasks;
    for (auto& [key, staged] : staged_) {
      if (staged.by_source.empty()) continue;
      tasks.push_back([&staged = staged] {
        for (std::size_t i = 0; i < staged.params->size(); ++i) {
          auto source = staged.by_source.begin();
          Tensor total = std::move(source->second[i]);
          while (++source != staged.by_source.end()) {
            total.add_(source->second[i]);
          }
          ag::Variable p = (*staged.params)[i].var;
          p.set_grad(std::move(total));
        }
        staged.by_source.clear();
      });
    }
    util::ThreadPool::global().run(tasks);
  }

  void handle(comm::Message msg) {
    // The EP baseline speaks a two-message subset of the protocol: compute
    // requests are drained run-wise into the executor before handle() sees
    // them, leaving only the step boundary here; every locality-placement
    // message type is meaningless under expert parallelism and lands on the
    // default: abort.
    // vela-analyze: allow(partial-dispatch)
    switch (msg.type) {
      case comm::MessageType::kOptimizerStep: {
        // Forward-only passes (evaluation) leave tapes without a backward;
        // the step boundary retires them.
        executor_.release_pending();
        fold_staged();
        executor_.step(std::nullopt);
        comm::Message reply;
        reply.type = comm::MessageType::kOptimizerStepDone;
        reply.request_id = msg.request_id;
        reply.source = static_cast<std::uint32_t>(shard_);
        VELA_CHECK(reply_[msg.source]->send(std::move(reply)));
        break;
      }
      default:
        VELA_CHECK_MSG(false,
                       "EP server received unexpected " << msg.to_string());
    }
  }

  std::size_t shard_;
  comm::Endpoint* inbox_;
  std::vector<comm::Endpoint*> reply_;  // [source shard]
  core::ExpertExecutor executor_;
  std::map<ExpertKey, Staged> staged_;  // one entry per hosted expert
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Ring all-reduce (sum) over byte-counted channels.
// ---------------------------------------------------------------------------
struct ChunkSpan {
  std::size_t begin;
  std::size_t size;
};

ChunkSpan chunk_span(std::size_t total, std::size_t chunks, std::size_t k) {
  const std::size_t begin = k * total / chunks;
  const std::size_t end = (k + 1) * total / chunks;
  return {begin, end - begin};
}

// Chunks travel as raw fp32 at Message's default 32-bit accounting, whatever
// the dispatch dtype.
void ring_allreduce(std::size_t shard, std::size_t n, Tensor& data,
                    comm::Endpoint* tx, comm::Endpoint* rx) {
  if (n <= 1) return;
  const auto send_chunk = [&](std::size_t k) {
    const ChunkSpan span = chunk_span(data.size(), n, k);
    comm::Message msg;
    msg.type = comm::MessageType::kAllReduceChunk;
    msg.request_id = k;
    msg.source = static_cast<std::uint32_t>(shard);
    msg.payload = Tensor(
        {std::max<std::size_t>(span.size, 1)},
        std::vector<float>(data.data() + span.begin,
                           data.data() + span.begin + span.size +
                               (span.size == 0 ? 1 : 0)));
    VELA_CHECK(tx->send(std::move(msg)));
  };
  const auto recv_chunk = [&](std::size_t k, bool add) {
    auto maybe = rx->receive();
    VELA_CHECK_MSG(maybe.has_value(), "all-reduce ring broken");
    VELA_CHECK(maybe->type == comm::MessageType::kAllReduceChunk &&
               maybe->request_id == k);
    const ChunkSpan span = chunk_span(data.size(), n, k);
    for (std::size_t i = 0; i < span.size; ++i) {
      if (add) {
        data[span.begin + i] += maybe->payload[i];
      } else {
        data[span.begin + i] = maybe->payload[i];
      }
    }
  };
  // Reduce-scatter: after N−1 rounds shard d owns the fully reduced chunk
  // (d+1) mod N.
  for (std::size_t r = 0; r + 1 < n; ++r) {
    const std::size_t send_k = (shard + n - r) % n;
    const std::size_t recv_k = (shard + 2 * n - r - 1) % n;
    send_chunk(send_k);
    recv_chunk(recv_k, /*add=*/true);
  }
  // All-gather.
  for (std::size_t r = 0; r + 1 < n; ++r) {
    const std::size_t send_k = (shard + 1 + n - r) % n;
    const std::size_t recv_k = (shard + n - r) % n;
    send_chunk(send_k);
    recv_chunk(recv_k, /*add=*/false);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// EpRuntime
// ---------------------------------------------------------------------------
struct EpRuntime::Impl {
  EpRuntimeConfig cfg;
  cluster::ClusterTopology topology;
  comm::TrafficMeter meter;
  comm::CommClock clock;
  std::size_t n;
  // Bytes of the flat backbone-gradient buffer one device all-reduces
  // (identical on every shard; shard 0 records it). Joined before read.
  std::uint64_t allreduce_bytes = 0;

  std::vector<std::unique_ptr<comm::Endpoint>> inbox;            // [server]
  std::vector<std::vector<std::unique_ptr<comm::Endpoint>>> reply;  // [srv][src]
  std::vector<std::unique_ptr<comm::Endpoint>> ring;             // [d] d→d+1
  std::vector<std::unique_ptr<ExpertServer>> servers;
  std::vector<std::unique_ptr<PeerBackend>> backends;
  std::vector<std::unique_ptr<model::MoETransformer>> replicas;
  std::vector<std::unique_ptr<nn::AdamW>> optimizers;
  std::size_t step = 0;

  Impl(const EpRuntimeConfig& config,
       const data::SyntheticCorpus* plant_corpus,
       const model::PlantingConfig& planting)
      : cfg(config), topology(config.cluster), meter(&topology),
        clock(&topology, config.clock), n(topology.num_devices()) {
    // Endpoints, all on the configured transport backend. Server inboxes
    // carry mixed sources (metered at the sender); replies and ring edges
    // have fixed endpoints and meter themselves.
    const comm::TransportKind transport = comm::resolve_transport(cfg.transport);
    for (std::size_t d = 0; d < n; ++d) {
      inbox.push_back(comm::make_endpoint(transport, 0, 0, nullptr));
    }
    reply.resize(n);
    for (std::size_t d = 0; d < n; ++d) {
      for (std::size_t s = 0; s < n; ++s) {
        reply[d].push_back(comm::make_endpoint(
            transport, topology.node_of(d), topology.node_of(s), &meter));
      }
    }
    for (std::size_t d = 0; d < n; ++d) {
      ring.push_back(comm::make_endpoint(
          transport, topology.node_of(d), topology.node_of((d + 1) % n),
          &meter));
    }

    // Servers + replicas.
    for (std::size_t d = 0; d < n; ++d) {
      std::vector<comm::Endpoint*> reply_ptrs;
      for (auto& ch : reply[d]) reply_ptrs.push_back(ch.get());
      servers.push_back(std::make_unique<ExpertServer>(
          d, cfg, cfg.model.num_layers, cfg.model.num_experts, n,
          inbox[d].get(), std::move(reply_ptrs)));
      servers.back()->start();
    }
    for (std::size_t d = 0; d < n; ++d) {
      std::vector<comm::Endpoint*> to_server, from_server;
      for (std::size_t o = 0; o < n; ++o) {
        to_server.push_back(inbox[o].get());
        from_server.push_back(reply[o][d].get());
      }
      backends.push_back(std::make_unique<PeerBackend>(
          d, n, cfg.model.num_layers,
          wire_codec(cfg),
          &topology, &meter, std::move(to_server), std::move(from_server)));
      Rng rng(cfg.seed);
      replicas.push_back(std::make_unique<model::MoETransformer>(
          cfg.model, backends.back().get(), rng));
      if (plant_corpus != nullptr) {
        model::plant_locality(*replicas.back(), *plant_corpus, planting);
      }
      optimizers.push_back(std::make_unique<nn::AdamW>(
          replicas.back()->trainable_parameters(), cfg.adamw));
    }
    meter.discard_current();
  }

  ~Impl() {
    for (std::size_t d = 0; d < n; ++d) {
      comm::Message bye;
      bye.type = comm::MessageType::kShutdown;
      inbox[d]->send(std::move(bye));
    }
    for (auto& server : servers) server->join();
    for (auto& ch : inbox) ch->close();
  }

  // Sorted trainable params of a replica (same order on every shard).
  static std::vector<nn::Parameter> sorted_params(
      model::MoETransformer& replica) {
    auto params = replica.trainable_parameters();
    std::sort(params.begin(), params.end(),
              [](const nn::Parameter& a, const nn::Parameter& b) {
                return a.name < b.name;
              });
    return params;
  }

  void shard_step(std::size_t d,
                  const std::vector<std::vector<std::size_t>>& my_batch,
                  float* loss_out) {
    ag::Variable loss = replicas[d]->loss_batch(my_batch);
    *loss_out = loss.value()[0];
    // Backprop 1/N·loss so expert gradients (accumulated across shards on
    // the owning servers) and all-reduce-SUMMED backbone gradients both
    // equal the gradient of the global mean loss.
    ag::backward(ag::scale(loss, 1.0f / static_cast<float>(n)));

    auto params = sorted_params(*replicas[d]);
    std::size_t total = 0;
    for (const auto& p : params) total += p.var.value().size();
    Tensor flat({total});
    if (d == 0) {
      allreduce_bytes = static_cast<std::uint64_t>(total) * sizeof(float);
    }
    std::size_t offset = 0;
    for (const auto& p : params) {
      if (p.var.has_grad()) {
        std::memcpy(flat.data() + offset, p.var.grad().data(),
                    p.var.value().size() * sizeof(float));
      }
      offset += p.var.value().size();
    }
    ring_allreduce(d, n, flat, ring[d].get(), ring[(d + n - 1) % n].get());
    offset = 0;
    for (auto& p : params) {
      const std::size_t size = p.var.value().size();
      Tensor g(p.var.value().shape());
      std::memcpy(g.data(), flat.data() + offset, size * sizeof(float));
      p.var.set_grad(std::move(g));
      offset += size;
    }
    optimizers[d]->step();
    optimizers[d]->zero_grad();
  }
};

EpRuntime::EpRuntime(const EpRuntimeConfig& cfg,
                     const data::SyntheticCorpus* plant_corpus,
                     const model::PlantingConfig& planting)
    : impl_(std::make_unique<Impl>(cfg, plant_corpus, planting)) {}

EpRuntime::~EpRuntime() = default;

EpStepReport EpRuntime::train_step(
    const std::vector<std::vector<std::size_t>>& batch) {
  Impl& im = *impl_;
  VELA_CHECK_MSG(batch.size() % im.n == 0,
                 "EP batch size must be divisible by the shard count");
  for (const auto& seq : batch) {
    VELA_CHECK_MSG(seq.size() == batch[0].size(),
                   "EP loss averaging requires equal sequence lengths");
  }
  // Round-robin sharding of the input batch.
  std::vector<std::vector<std::vector<std::size_t>>> shards(im.n);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    shards[i % im.n].push_back(batch[i]);
  }

  std::vector<float> losses(im.n, 0.0f);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(im.n);
  threads.reserve(im.n);
  for (std::size_t d = 0; d < im.n; ++d) {
    threads.emplace_back([&, d] {
      try {
        im.shard_step(d, shards[d], &losses[d]);
      } catch (...) {
        errors[d] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }

  // Expert optimizer steps (one ack per server, routed to source 0).
  for (std::size_t d = 0; d < im.n; ++d) {
    comm::Message msg;
    msg.type = comm::MessageType::kOptimizerStep;
    msg.request_id = 0;
    msg.source = 0;
    VELA_CHECK(im.inbox[d]->send(std::move(msg)));
  }
  for (std::size_t d = 0; d < im.n; ++d) {
    auto ack = im.reply[d][0]->receive();
    VELA_CHECK(ack.has_value() &&
               ack->type == comm::MessageType::kOptimizerStepDone);
  }

  im.meter.end_step();
  // Shard threads are joined and acks drained: the transport is quiescent,
  // so the audit ledger must balance at this boundary.
  audit::ConservationLedger::instance().check("ep_step");
  EpStepReport report;
  report.step = im.step++;
  float total = 0.0f;
  for (float l : losses) total += l;
  report.loss = total / static_cast<float>(im.n);
  report.external_mb_per_node =
      im.meter.step_external_mb_per_node(im.meter.num_steps() - 1);

  // Modeled Fig. 6 times: merge the shards' per-phase all-to-all ledgers
  // (threads are joined, so the per-backend records are quiescent) and let
  // the analytic clock convert bytes to seconds. Profiling passes leave the
  // measured byte story untouched — the record is rebuilt every step.
  comm::EpStepRecord record;
  record.phases.assign(
      2 * im.cfg.model.num_layers,
      comm::AllToAllPhase{std::vector<std::vector<std::uint64_t>>(
          im.n, std::vector<std::uint64_t>(im.n, 0))});
  for (auto& backend : im.backends) {
    const comm::EpStepRecord shard_record = backend->take_record();
    for (std::size_t p = 0; p < record.phases.size(); ++p) {
      for (std::size_t i = 0; i < im.n; ++i) {
        for (std::size_t j = 0; j < im.n; ++j) {
          record.phases[p].bytes[i][j] += shard_record.phases[p].bytes[i][j];
        }
      }
    }
  }
  record.allreduce_bytes_per_device = im.allreduce_bytes;
  report.comm_seconds = im.clock.ep_comm_seconds(record);
  report.step_seconds = im.clock.ep_step_seconds(record);
  return report;
}

model::MoETransformer& EpRuntime::replica() { return *impl_->replicas[0]; }

std::size_t EpRuntime::num_shards() const { return impl_->n; }

const comm::TrafficMeter& EpRuntime::meter() const { return impl_->meter; }

const cluster::ClusterTopology& EpRuntime::topology() const {
  return impl_->topology;
}

}  // namespace vela::ep
