#include "core/expert_executor.h"

#include <string>
#include <utility>
#include <vector>

#include "tensor/ops.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace vela::core {

ExpertExecutor::ExpertExecutor(const store::StoreConfig& store_config,
                               std::uint64_t base_seed, std::size_t model_dim,
                               std::size_t hidden_dim,
                               const nn::LoRAConfig& lora,
                               const nn::AdamWConfig& adamw,
                               const comm::WireCodec& codec,
                               std::uint32_t source, BackwardHook on_backward)
    : codec_(codec), source_(source), on_backward_(std::move(on_backward)) {
  // The slot factory rebuilds everything an expert derives from its seed:
  // frozen bases, the q8 compute pack, a fresh optimizer.
  store_ = store::make_expert_store(
      store_config, [base_seed, model_dim, hidden_dim, lora, adamw,
                     q8_block = codec_.is_int8() ? codec_.block : 0u](
                        const ExpertKey& key) {
        Rng rng(nn::expert_seed(base_seed, key.layer, key.expert));
        store::ExpertSlot slot;
        slot.expert = std::make_unique<nn::SwiGLUExpert>(
            "layer" + std::to_string(key.layer) + ".expert" +
                std::to_string(key.expert),
            model_dim, hidden_dim, lora, rng);
        if (q8_block != 0) {
          // Quantized compute tier: the frozen bases run through the packed
          // q8 GEMM. Deterministic per expert (the pack depends only on the
          // seeded weights), so migration, respawn and page-in re-derive the
          // identical pack.
          slot.expert->enable_q8_compute(q8_block);
        }
        if (lora.enabled) {
          slot.optimizer = std::make_unique<nn::AdamW>(
              slot.expert->trainable_parameters(), adamw);
        }
        return slot;
      });
}

void ExpertExecutor::install(const ExpertKey& key, const Tensor* state) {
  VELA_CHECK_MSG(!store_->contains(key),
                 "expert " << to_string(key) << " already hosted");
  store_->emplace(key);
  if (state != nullptr) {
    store::Pinned pinned(*store_, key);
    store::unpack_trainable(*state, pinned.expert());
  }
}

void ExpertExecutor::require_hosted(const ExpertKey& key) const {
  VELA_CHECK_MSG(store_->contains(key),
                 "expert " << to_string(key) << " is not hosted here");
}

comm::Message ExpertExecutor::reply_to(const comm::Message& request,
                                       comm::MessageType type) const {
  comm::Message reply;
  reply.type = type;
  reply.request_id = request.request_id;
  reply.source = source_;
  reply.layer = request.layer;
  reply.expert = request.expert;
  reply.step = request.step;
  // Replies to fragments are fragments of the merged result: the echo keeps
  // the broker's header-once-per-transfer accounting symmetric.
  reply.chunk_index = request.chunk_index;
  reply.chunk_count = request.chunk_count;
  return reply;
}

bool ExpertExecutor::forward(std::span<comm::Message> run,
                             const ReplySink& send) {
  std::size_t valid = run.size();
  for (std::size_t i = 0; i < run.size(); ++i) {
    if (!store_->contains({run[i].layer, run[i].expert})) {
      valid = i;
      break;
    }
  }
  // Pin serially, in arrival order — on a bounded store this is where cold
  // experts page in, and arrival order makes the paging sequence
  // deterministic. Each request holds its own pin until backward retires it
  // (pins nest for repeated experts).
  struct Slot {
    store::ExpertSlot* expert = nullptr;
    ag::Variable x;
    ag::Variable y;
    comm::Message reply;
  };
  std::vector<Slot> slots(valid);
  for (std::size_t i = 0; i < valid; ++i) {
    slots[i].expert = &store_->pin({run[i].layer, run[i].expert});
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(valid);
  for (std::size_t i = 0; i < valid; ++i) {
    // Forwards only read expert weights, and each task owns its own request
    // payload and slot, so distinct requests are data-race free even when
    // they hit the same expert.
    tasks.push_back([this, &run, &slots, i] {
      comm::Message& msg = run[i];
      Slot& s = slots[i];
      s.x = ag::Variable::leaf(std::move(msg.payload), /*requires_grad=*/true);
      s.y = s.expert->expert->forward(s.x);
      s.reply = reply_to(msg, comm::MessageType::kExpertForwardResult);
      s.reply.payload = codec_.apply(s.y.value());
      codec_.stamp(s.reply);
    });
  }
  util::ThreadPool::global().run(tasks);
  // Bookkeeping and replies stay on the owner's thread, in arrival order, so
  // the peer observes exactly the serial reply sequence.
  for (std::size_t i = 0; i < valid; ++i) {
    const ExpertKey key{run[i].layer, run[i].expert};
    const auto [it, inserted] = pending_.emplace(
        run[i].request_id,
        PendingRequest{key, slots[i].expert, slots[i].x, slots[i].y});
    // A re-executed request (reply cache evicted after a lost reply) found
    // its original tape still pending: the original keeps its pin, this
    // execution's pin is surplus.
    if (!inserted) store_->unpin(key);
    if (!send(run[i], std::move(slots[i].reply))) return false;
  }
  if (valid < run.size()) {
    require_hosted({run[valid].layer, run[valid].expert});
  }
  return true;
}

bool ExpertExecutor::backward(std::span<comm::Message> run,
                              const ReplySink& send) {
  std::size_t valid = run.size();
  for (std::size_t i = 0; i < run.size(); ++i) {
    if (pending_.count(run[i].request_id) == 0) {
      valid = i;
      break;
    }
  }
  // Fragment trains (the master's VELA_OVERLAP dispatch pipeline) assemble
  // in arrival order and backpropagate once — through one full-batch tape —
  // when their last fragment lands; a duplicate fragment of an incomplete
  // train is ignored (the retransmission that completes it is the one that
  // matters). Unfragmented messages take the grouped-parallel path below.
  // A master posts a block's gradients all at once, but at one pipeline
  // depth, so a run never mixes the two in practice; handling both keeps
  // the contract local.
  std::vector<std::size_t> plain;
  plain.reserve(valid);
  for (std::size_t i = 0; i < valid; ++i) {
    comm::Message& msg = run[i];
    if (msg.chunk_count <= 1) {
      plain.push_back(i);
      continue;
    }
    const std::uint64_t base = msg.request_id - msg.chunk_index;
    FragmentTrain& train = trains_[base];
    train.chunk_count = msg.chunk_count;
    const std::size_t chunk = msg.chunk_index;
    if (!train.fragments.emplace(chunk, std::move(msg)).second) continue;
    if (train.fragments.size() == train.chunk_count) {
      FragmentTrain done = std::move(train);
      trains_.erase(base);
      if (!stitched_backward(base, std::move(done), send)) return false;
    }
  }
  struct Slot {
    PendingRequest req;
    comm::Message reply;
  };
  std::vector<Slot> slots(valid);
  // Group by expert: backwards for the same expert accumulate into the same
  // LoRA gradient buffers, so they run sequentially inside one task (in
  // arrival order — the serial accumulation order); distinct experts touch
  // disjoint parameter nodes and run as parallel tasks. std::map keys the
  // groups in fixed expert-id order.
  std::map<ExpertKey, std::vector<std::size_t>> groups;
  for (const std::size_t i : plain) {
    auto it = pending_.find(run[i].request_id);
    slots[i].req = std::move(it->second);
    pending_.erase(it);
    groups[slots[i].req.key].push_back(i);
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(groups.size());
  for (auto& [key, indices] : groups) {
    tasks.push_back([this, &run, &slots, &key = key, &indices = indices] {
      for (const std::size_t i : indices) {
        const comm::Message& msg = run[i];
        Slot& s = slots[i];
        // Resume backpropagation: expert LoRA gradients accumulate locally;
        // only the input gradient returns to the requester.
        ag::backward_from(s.req.output, msg.payload);
        if (on_backward_) on_backward_(key, msg.source, *s.req.slot);
        s.reply = reply_to(msg, comm::MessageType::kExpertBackwardResult);
        s.reply.payload = codec_.apply(s.req.input.grad());
        codec_.stamp(s.reply);
      }
    });
  }
  util::ThreadPool::global().run(tasks);
  for (const std::size_t i : plain) {
    // The gradients landed in the (still pinned) expert's parameters; the
    // tape is retired, so the request's pin can go.
    store_->unpin(slots[i].req.key);
    if (!send(run[i], std::move(slots[i].reply))) return false;
  }
  VELA_CHECK_MSG(valid == run.size(),
                 "backward for unknown request " << run[valid].request_id);
  return true;
}

bool ExpertExecutor::stitched_backward(std::uint64_t base_id,
                                       FragmentTrain train,
                                       const ReplySink& send) {
  // The per-chunk forward tapes are discarded and the forward recomputed on
  // the concatenated batch: the expert kernels are row-local, so the
  // recomputation reproduces the chunk outputs bit for bit, and running ONE
  // backward over the full batch keeps the LoRA gradient accumulation order
  // — and with it every low-order bit of the weights — identical to the
  // unchunked exchange (per-chunk backwards would sum partial dWs in a
  // different order).
  const comm::Message& first = train.fragments.begin()->second;
  const ExpertKey key{first.layer, first.expert};
  std::vector<Tensor> xs, dys;
  xs.reserve(train.chunk_count);
  dys.reserve(train.chunk_count);
  for (auto& [chunk, msg] : train.fragments) {
    auto it = pending_.find(base_id + chunk);
    VELA_CHECK_MSG(it != pending_.end(),
                   "backward fragment for unknown request " << base_id + chunk);
    VELA_CHECK_MSG(it->second.key == key, "fragment train spans experts");
    xs.push_back(it->second.input.value());
    dys.push_back(std::move(msg.payload));
  }
  require_hosted(key);
  store::Pinned pinned(*store_, key);
  ag::Variable in =
      ag::Variable::leaf(ops::concat_rows(xs), /*requires_grad=*/true);
  ag::Variable out = pinned.expert().forward(in);
  ag::backward_from(out, ops::concat_rows(dys));
  if (on_backward_) on_backward_(key, first.source, pinned.slot());
  const Tensor& dx = in.grad();
  std::size_t at = 0;
  std::size_t c = 0;
  for (auto& [chunk, msg] : train.fragments) {
    const std::size_t rows = xs[c].rows();
    comm::Message reply =
        reply_to(msg, comm::MessageType::kExpertBackwardResult);
    reply.payload = codec_.apply(ops::slice_rows(dx, at, rows));
    codec_.stamp(reply);
    at += rows;
    ++c;
    // Retire the fragment's pending tape and its pin.
    pending_.erase(msg.request_id);
    store_->unpin(key);
    if (!send(msg, std::move(reply))) return false;
  }
  return true;
}

void ExpertExecutor::step(std::optional<float> lr) {
  const auto keys = store_->keys();
  if (!store_->bounded()) {
    // Everything is resident: per-expert AdamW states are disjoint, so the
    // steps run as parallel tasks; keys() is ascending, so task order is
    // fixed expert-id order regardless of pool size.
    std::vector<ExpertKey> stepped;
    std::vector<std::function<void()>> tasks;
    stepped.reserve(keys.size());
    tasks.reserve(keys.size());
    for (const auto& k : keys) {
      nn::AdamW* opt = store_->pin(k).optimizer.get();
      if (opt == nullptr) {
        store_->unpin(k);
        continue;
      }
      if (lr) opt->set_learning_rate(*lr);
      stepped.push_back(k);
      tasks.push_back([opt] {
        opt->step();
        opt->zero_grad();
      });
    }
    util::ThreadPool::global().run(tasks);
    for (const auto& k : stepped) store_->unpin(k);
    return;
  }
  // Bounded store: step serially in key order, one resident expert at a
  // time, so the pool never exceeds its budget. Per-expert updates are
  // independent, so the result is bit-identical to the parallel path.
  for (const auto& k : keys) {
    store::Pinned pinned(*store_, k);
    if (nn::AdamW* opt = pinned.optimizer()) {
      if (lr) opt->set_learning_rate(*lr);
      opt->step();
      opt->zero_grad();
    }
  }
}

std::size_t ExpertExecutor::release_pending() {
  const std::size_t dropped = pending_.size();
  for (auto& [id, req] : pending_) {
    store_->unpin(req.key);
  }
  pending_.clear();
  trains_.clear();
  return dropped;
}

std::size_t ExpertExecutor::abort_step() {
  const std::size_t dropped = release_pending();
  store_->zero_all_grads();
  return dropped;
}

void ExpertExecutor::clear() {
  store_->clear();
  pending_.clear();
  trains_.clear();
}

}  // namespace vela::core
