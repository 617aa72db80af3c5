#include "core/expert_worker.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/check.h"
#include "util/logging.h"

namespace vela::core {
namespace {

store::StoreConfig worker_store(const WorkerSpec& spec,
                                comm::TrafficMeter* meter) {
  store::StoreConfig cfg;
  cfg.budget = spec.expert_budget;
  cfg.dir = spec.store_dir;
  cfg.dtype = spec.store_dtype;
  cfg.meter = meter;
  return cfg.resolved();
}

// Adapter and optimizer state is fp32 and never block-quantized: it is
// charged at 32 bits on an fp32 wire and at the paper's 16 otherwise.
unsigned state_reply_bits(const comm::WireCodec& codec) {
  return codec.dtype == comm::WireDtype::kFp32 ? 32 : 16;
}

}  // namespace

ExpertWorker::ExpertWorker(WorkerSpec spec, comm::DuplexLink* link,
                           std::vector<ExpertKey> initial_experts,
                           comm::TrafficMeter* meter)
    : spec_(spec),
      link_(link),
      // Dispatch-payload codec resolved from the spec (comm/wire_codec.h) —
      // necessarily the same resolution the master's broker performed. It
      // applies to compute replies only; state/snapshot replies stay fp32.
      executor_(worker_store(spec, meter), spec.base_seed, spec.model_dim,
                spec.hidden_dim, spec.lora, spec.adamw, wire_codec(spec),
                /*source=*/0) {
  VELA_CHECK(link != nullptr);
  for (const auto& key : initial_experts) executor_.install(key);
}

ExpertWorker::~ExpertWorker() {
  if (thread_.joinable()) {
    link_->to_worker.close();
    thread_.join();
  }
}

void ExpertWorker::start() {
  VELA_CHECK(!thread_.joinable());
  thread_ = std::thread([this] { run(); });
}

void ExpertWorker::join() {
  if (thread_.joinable()) thread_.join();
}

void ExpertWorker::run() {
  const std::string tag = "worker/" + std::to_string(spec_.worker_id);
  try {
    run_loop(tag);
  } catch (const CheckError& err) {
    // A protocol violation must not take the whole process down via an
    // exception escaping the thread; the worker dies loudly in the log and
    // stops answering, which the master detects as a closed/silent channel.
    VELA_LOG_ERROR(tag) << "worker terminating on protocol error: "
                        << err.what();
    link_->to_master.close();
  }
}

bool ExpertWorker::reply_and_cache(std::uint64_t key, comm::Message reply) {
  constexpr std::size_t kReplyCacheCapacity = 512;
  reply_cache_[key] = reply;
  reply_cache_order_.push_back(key);
  while (reply_cache_order_.size() > kReplyCacheCapacity) {
    reply_cache_.erase(reply_cache_order_.front());
    reply_cache_order_.pop_front();
  }
  return link_->to_master.send(std::move(reply));
}

void ExpertWorker::run_loop(const std::string& tag) {
  while (true) {
    auto maybe = link_->to_worker.receive();
    if (!maybe.has_value()) break;  // channel closed
    // Drain whatever else already queued up behind it: consecutive compute
    // requests inside the batch become parallel tasks on the shared pool
    // while control traffic keeps its strict arrival-order handling.
    std::vector<comm::Message> batch;
    batch.push_back(std::move(*maybe));
    while (auto more = link_->to_worker.try_receive()) {
      batch.push_back(std::move(*more));
    }
    if (!process_batch(std::move(batch), tag)) return;
  }
}

bool ExpertWorker::process_batch(std::vector<comm::Message> batch,
                                 const std::string& tag) {
  std::size_t i = 0;
  while (i < batch.size()) {
    comm::Message msg = std::move(batch[i]);
    ++i;

    // Corrupted in flight: drop; the master times out and retransmits.
    if (!msg.checksum_ok()) {
      ++corrupt_dropped_;
      VELA_LOG_DEBUG(tag) << "dropping corrupted " << msg.to_string();
      continue;
    }
    // Already served (duplicate fault or master retransmission after a lost
    // reply): replay the cached reply, do not re-execute.
    if (auto it = reply_cache_.find(dedupe_key(msg)); it != reply_cache_.end()) {
      ++duplicates_replayed_;
      if (!link_->to_master.send(comm::Message(it->second))) {
        VELA_LOG_ERROR(tag) << "master channel gone while replaying reply; "
                               "terminating";
        link_->to_worker.close();
        return false;
      }
      continue;
    }

    // A run of compute requests: extend it with same-type, clean,
    // not-yet-served messages from the rest of the batch (a (type, id) pair
    // repeated within the batch breaks the run so the second copy hits the
    // reply cache, exactly as it would serially).
    if (msg.type == comm::MessageType::kExpertForward ||
        msg.type == comm::MessageType::kExpertBackward) {
      std::vector<comm::Message> run;
      run.push_back(std::move(msg));
      while (i < batch.size() && batch[i].type == run.front().type &&
             batch[i].checksum_ok() &&
             reply_cache_.find(dedupe_key(batch[i])) == reply_cache_.end() &&
             std::none_of(run.begin(), run.end(),
                          [&](const comm::Message& m) {
                            return dedupe_key(m) == dedupe_key(batch[i]);
                          })) {
        run.push_back(std::move(batch[i]));
        ++i;
      }
      const auto send = [this](const comm::Message& request,
                               comm::Message reply) {
        if (request.type == comm::MessageType::kExpertForward) {
          ++requests_served_;
        }
        return reply_and_cache(dedupe_key(request), std::move(reply));
      };
      const bool ok = run.front().type == comm::MessageType::kExpertForward
                          ? executor_.forward(run, send)
                          : executor_.backward(run, send);
      if (!ok) {
        VELA_LOG_ERROR(tag) << "reply channel closed; worker terminating";
        link_->to_worker.close();
        return false;
      }
      continue;
    }

    const ExpertKey key{msg.layer, msg.expert};
    // Control replies answer the request id; per-expert ones echo the key.
    comm::Message reply;
    reply.request_id = msg.request_id;
    const auto expert_reply = [&reply, &msg](comm::MessageType type) {
      reply.type = type;
      reply.layer = msg.layer;
      reply.expert = msg.expert;
    };
    // Control-plane dispatch only: kExpertForward/kExpertBackward were
    // consumed by the run-batching branch above, and the *Result/*Done/
    // kExpertState/kExpertSnapshot/kProbeAck/kAllReduceChunk variants are
    // replies this worker SENDS, never receives; the default: abort below
    // catches any of them arriving by mistake.
    // vela-analyze: allow(partial-dispatch)
    switch (msg.type) {
      case comm::MessageType::kOptimizerStep: {
        // Forward-only passes (profiling) leave tapes that never receive a
        // backward; the step boundary retires them (and their pins).
        if (const std::size_t dropped = executor_.release_pending()) {
          VELA_LOG_DEBUG(tag) << "dropping " << dropped
                              << " forward-only tapes at step boundary";
        }
        // A scalar payload carries a scheduled learning rate: local expert
        // optimizers follow the master's LR schedule.
        executor_.step(msg.payload.size() == 1
                           ? std::optional<float>(msg.payload[0])
                           : std::nullopt);
        reply.type = comm::MessageType::kOptimizerStepDone;
        reply.step = msg.step;
        break;
      }
      case comm::MessageType::kFetchExpert:
      case comm::MessageType::kQueryExpert: {
        executor_.require_hosted(key);
        expert_reply(comm::MessageType::kExpertState);
        if (spec_.lora.enabled) {
          store::Pinned pinned(executor_.store(), key);
          reply.payload = pack_trainable(pinned.expert());
        }
        reply.wire_bits = state_reply_bits(executor_.codec());
        if (msg.type == comm::MessageType::kFetchExpert) {
          executor_.store().erase(key);
        }
        break;
      }
      case comm::MessageType::kSnapshotExpert: {
        executor_.require_hosted(key);
        expert_reply(comm::MessageType::kExpertSnapshot);
        if (spec_.lora.enabled) {
          store::Pinned pinned(executor_.store(), key);
          reply.payload =
              pack_full_state(pinned.expert(), pinned.optimizer());
        }
        reply.wire_bits = state_reply_bits(executor_.codec());
        break;
      }
      case comm::MessageType::kRestoreExpert: {
        // Recovery install (or standby refresh when already hosted): frozen
        // bases re-derive from the seed; the payload (when present) restores
        // adapters + optimizer moments.
        if (!executor_.store().contains(key)) executor_.install(key);
        if (msg.payload.size() > 0) {
          store::Pinned pinned(executor_.store(), key);
          unpack_full_state(msg.payload, pinned.expert(), pinned.optimizer());
        }
        expert_reply(comm::MessageType::kRestoreExpertDone);
        break;
      }
      case comm::MessageType::kLoadExpertState: {
        executor_.require_hosted(key);
        {
          store::Pinned pinned(executor_.store(), key);
          unpack_trainable(msg.payload, pinned.expert());
        }
        expert_reply(comm::MessageType::kLoadExpertStateDone);
        break;
      }
      case comm::MessageType::kInstallExpert: {
        executor_.install(key,
                          msg.payload.size() > 0 ? &msg.payload : nullptr);
        expert_reply(comm::MessageType::kInstallExpertDone);
        break;
      }
      case comm::MessageType::kProbe: {
        reply.type = comm::MessageType::kProbeAck;
        break;
      }
      case comm::MessageType::kStorePriorities: {
        // Locality scores from the placement optimizer: payload is the
        // flattened L×E probability matrix, dims in the layer/expert fields.
        const std::size_t layers = msg.layer;
        const std::size_t experts = msg.expert;
        VELA_CHECK_MSG(msg.payload.size() == layers * experts,
                       "store priorities payload is " << msg.payload.size()
                                                      << " floats for a "
                                                      << layers << "x"
                                                      << experts << " matrix");
        std::vector<std::pair<ExpertKey, float>> priorities;
        priorities.reserve(layers * experts);
        for (std::size_t l = 0; l < layers; ++l) {
          for (std::size_t e = 0; e < experts; ++e) {
            priorities.emplace_back(
                ExpertKey{static_cast<std::uint32_t>(l),
                          static_cast<std::uint32_t>(e)},
                msg.payload[l * experts + e]);
          }
        }
        executor_.store().set_priorities(priorities);
        reply.type = comm::MessageType::kStorePrioritiesDone;
        break;
      }
      case comm::MessageType::kPrefetchExperts: {
        // Fire-and-forget dispatch hint: page the named experts in ahead of
        // the forwards queued behind this message. No reply, no cache —
        // duplicates just re-run an idempotent warm-up.
        std::vector<ExpertKey> keys;
        keys.reserve(msg.payload.size());
        for (std::size_t e = 0; e < msg.payload.size(); ++e) {
          keys.push_back(ExpertKey{
              msg.layer, static_cast<std::uint32_t>(msg.payload[e])});
        }
        executor_.store().prefetch(keys);
        continue;
      }
      case comm::MessageType::kAbortStep: {
        // Mid-step failure recovery: discard the in-flight step entirely —
        // pending tapes and any expert gradients accumulated by partial
        // backwards (resident ones now, spilled ones at their next page-in)
        // — so the retried step starts from clean state.
        if (const std::size_t dropped = executor_.abort_step()) {
          VELA_LOG_DEBUG(tag) << "abort: dropping " << dropped
                              << " in-flight tapes";
        }
        reply.type = comm::MessageType::kAbortStepDone;
        break;
      }
      case comm::MessageType::kCrash: {
        // Injected fault: simulate an abrupt process death. Both channel
        // directions die and all hosted state is lost — including every
        // paged image, which is why a respawned worker's store starts empty.
        VELA_LOG_ERROR(tag) << "injected crash: simulating worker death";
        executor_.clear();
        link_->to_master.close();
        link_->to_worker.close();
        return false;
      }
      case comm::MessageType::kShutdown: {
        VELA_LOG_DEBUG(tag) << "shutdown";
        return false;
      }
      default:
        VELA_CHECK_MSG(false, "worker received unexpected message "
                                  << msg.to_string());
    }
    if (!reply_and_cache(dedupe_key(msg), std::move(reply))) {
      // The master-side channel is gone (severed link or master teardown):
      // a structured death instead of silently computing into the void.
      VELA_LOG_ERROR(tag) << "reply channel closed; worker terminating";
      link_->to_worker.close();
      return false;
    }
  }
  return true;
}

}  // namespace vela::core
