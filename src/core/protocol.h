// Shared definitions of the master↔worker protocol: worker specifications
// and adapter-state (de)serialization for expert migration.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comm/wire_codec.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "store/expert_store.h"
#include "tensor/tensor.h"

namespace vela::core {

// Expert identity and state serialization live in the store layer now
// (store/expert_state.h) — the pager serializes the same images the
// protocol ships. Re-exported here so protocol call sites are unchanged.
using store::ExpertKey;
using store::pack_full_state;
using store::pack_trainable;
using store::to_string;
using store::unpack_full_state;
using store::unpack_trainable;

// The VELA runtime's dispatch precision when neither the config nor
// VELA_WIRE_DTYPE names one: the paper's b = 16 accounting over fp32
// numerics. The broker and every worker (local or a remote vela_node)
// resolve against this one constant, so a fleet can never disagree.
inline constexpr comm::WireDtype kVelaWireDefault =
    comm::WireDtype::kFp16Accounted;

// Everything a worker process needs to construct and train experts locally.
// Frozen base weights never travel: they are derived from
// nn::expert_seed(base_seed, layer, expert) on whichever device hosts the
// expert, so migration only ships the (small) LoRA adapter state.
struct WorkerSpec {
  std::size_t worker_id = 0;
  std::size_t node = 0;
  std::size_t model_dim = 0;
  std::size_t hidden_dim = 0;
  nn::LoRAConfig lora;
  nn::AdamWConfig adamw;
  std::uint64_t base_seed = 1;
  // Dispatch-payload dtype (DESIGN.md §13). kDefault defers to
  // VELA_WIRE_DTYPE and then to kVelaWireDefault; every process of a fleet
  // resolves the same comm::WireCodec from these two knobs, so master,
  // workers and remote vela_nodes can never disagree on the dispatch dtype.
  comm::WireDtype wire_dtype = comm::WireDtype::kDefault;
  unsigned q8_block = 0;  // int8 block length; 0 → VELA_WIRE_BLOCK, then 64
  // Expert store knobs (DESIGN.md §15). budget -1 → VELA_EXPERT_BUDGET,
  // then unbounded; dir "" → VELA_STORE_DIR, then the system temp dir;
  // dtype kDefault → VELA_STORE_DTYPE, then fp32. Remote vela_nodes resolve
  // from their own environment (the launcher propagates it), so every
  // process of a fleet sees the same store behavior.
  long long expert_budget = -1;
  std::string store_dir;
  store::StoreDtype store_dtype = store::StoreDtype::kDefault;
};

// The dispatch codec of a fleet built from `spec` (broker and workers alike).
inline comm::WireCodec wire_codec(const WorkerSpec& spec) {
  return comm::WireCodec::resolve(spec.wire_dtype, kVelaWireDefault,
                                  spec.q8_block);
}

}  // namespace vela::core
