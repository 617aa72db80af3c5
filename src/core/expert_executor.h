// The expert executor: the one place that hosts experts and runs their
// compute — the Expert Manager of Fig. 4 minus its transport.
//
// Both runtimes that host experts own one: the VELA expert worker
// (core/expert_worker.h) and the EP baseline's expert server
// (ep/runtime.cpp). Each keeps only its transport concerns (links, reply
// routing, dedupe); everything below is shared:
//
//   store        the store::ExpertStore, built through one seeded slot
//                factory — frozen bases from nn::expert_seed, the packed q8
//                compute path under an int8 wire, a local AdamW when LoRA is
//                on. Page-in layers spilled adapters/moments on top.
//   forward      a run of kExpertForward requests computed as parallel pool
//                tasks; each tape stays pending — holding one pin on its
//                expert — until its backward retires it.
//   backward     a run of kExpertBackward requests, grouped by expert so each
//                expert's gradient accumulation stays sequential (and so
//                deterministic); fragment trains of the dispatch pipeline
//                backpropagate once through a stitched full-batch tape.
//   step         one local AdamW step per hosted expert — parallel when the
//                store is unbounded, serial (one resident expert at a time)
//                when it is bounded.
//
// Runs keep serial semantics on a bad request: the run is truncated at the
// first unhosted expert (forward) or unknown request id (backward), the
// valid prefix computes and replies in arrival order, then the offender
// raises a CheckError — the owner's protocol-error death.
//
// Threading: every method runs on the owner's thread. Only the pool tasks
// inside forward/backward/step run elsewhere, and they touch nothing but
// experts the owner's thread already pinned.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>

#include "autograd/variable.h"
#include "comm/message.h"
#include "comm/wire_codec.h"
#include "nn/linear.h"
#include "nn/optimizer.h"
#include "store/expert_store.h"

namespace vela::core {

using store::ExpertKey;

class ExpertExecutor {
 public:
  // Delivers one reply; `request` is the message it answers (its payload
  // already consumed). Returns false when the reply channel is gone.
  using ReplySink =
      std::function<bool(const comm::Message& request, comm::Message reply)>;
  // Called inside the per-expert backward task right after each
  // backward_from, with the request's source and the expert's pinned slot:
  // the parameter gradients that backward accumulated sit on the slot's
  // optimizer params. Runs on a pool lane, so it may touch only state owned
  // by `key`.
  using BackwardHook = std::function<void(
      const ExpertKey& key, std::uint32_t source, store::ExpertSlot& slot)>;

  // `store_config` goes to store::make_expert_store as given (resolve it
  // first to honour the environment). `source` is stamped into every
  // compute reply (the EP shard id; 0 on VELA workers).
  ExpertExecutor(const store::StoreConfig& store_config,
                 std::uint64_t base_seed, std::size_t model_dim,
                 std::size_t hidden_dim, const nn::LoRAConfig& lora,
                 const nn::AdamWConfig& adamw, const comm::WireCodec& codec,
                 std::uint32_t source, BackwardHook on_backward = nullptr);

  ExpertExecutor(const ExpertExecutor&) = delete;
  ExpertExecutor& operator=(const ExpertExecutor&) = delete;

  store::ExpertStore& store() { return *store_; }
  const store::ExpertStore& store() const { return *store_; }
  const comm::WireCodec& codec() const { return codec_; }

  // Hosts a fresh expert (the key must not be hosted yet); `state`, when
  // given, is a pack_trainable image applied on top of the seeded slot.
  void install(const ExpertKey& key, const Tensor* state = nullptr);
  // CheckError when the store does not host `key`.
  void require_hosted(const ExpertKey& key) const;

  // Compute runs (see the header comment). Replies go to `send` in arrival
  // order; returns false as soon as `send` does. Request payloads move into
  // the tapes.
  bool forward(std::span<comm::Message> run, const ReplySink& send);
  bool backward(std::span<comm::Message> run, const ReplySink& send);

  // One AdamW step + zero_grad per hosted expert with an optimizer, in
  // ascending key order; `lr` (the master's schedule) is set first.
  void step(std::optional<float> lr);

  // Step boundary: retires every pending tape (forward-only passes never
  // get a backward) with its pin, and drops incomplete fragment trains.
  // Returns the number of tapes dropped.
  std::size_t release_pending();
  // Step abort: release_pending, then discard the gradients partial
  // backwards accumulated (resident experts now, spilled ones at page-in).
  std::size_t abort_step();
  // Injected crash: every hosted expert, tape and train is lost at once —
  // nothing is unpinned or paged out.
  void clear();

 private:
  struct PendingRequest {
    ExpertKey key;
    store::ExpertSlot* slot = nullptr;  // valid while the request's pin holds
    ag::Variable input;
    ag::Variable output;
  };
  // Backward fragments of one logical transfer, keyed by chunk index (so
  // iteration is chunk order) until the train is complete. May span runs.
  struct FragmentTrain {
    std::size_t chunk_count = 0;
    std::map<std::size_t, comm::Message> fragments;
  };

  // Reply header: echoes the request's routing, step and chunk fields and
  // carries this executor's source id.
  comm::Message reply_to(const comm::Message& request,
                         comm::MessageType type) const;
  // Backpropagates a complete fragment train through one full-batch tape and
  // replies per fragment in chunk order.
  bool stitched_backward(std::uint64_t base_id, FragmentTrain train,
                         const ReplySink& send);

  comm::WireCodec codec_;
  std::uint32_t source_;
  BackwardHook on_backward_;
  std::unique_ptr<store::ExpertStore> store_;
  // Keyed by request id. Every entry holds one pin on its expert: the tape
  // references the expert's parameter nodes, so eviction before the
  // backward retires would orphan the gradients it is about to accumulate.
  std::unordered_map<std::uint64_t, PendingRequest> pending_;
  // Incomplete trains by base request id (fragment id = base + chunk_index).
  std::unordered_map<std::uint64_t, FragmentTrain> trains_;
};

}  // namespace vela::core
