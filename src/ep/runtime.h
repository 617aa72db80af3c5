// A real, executable implementation of conventional expert parallelism —
// the paper's baseline "implemented strictly following Fig. 2" — not just
// its traffic model.
//
// Every device runs a shard: a full backbone replica (data parallelism over
// the input batch) plus an expert server hosting experts {e : e mod N == d}
// of every MoE block. A shard's MoE dispatch sends token groups to the
// owning peers (the all-to-all), whose servers compute the experts on their
// local tapes and return activations; backward retraces the same exchanges
// with gradients. The step ends with a literal ring all-reduce of the
// replicated backbone's LoRA gradients over byte-counted channels, followed
// by identical AdamW steps on every replica — the data-parallel cost VELA's
// master–worker design eliminates.
//
// Numerical contract: with equal-length sequences split evenly over shards,
// the EP runtime computes the same global loss and (up to float summation
// order) the same updates as a single-process dense run — pinned by
// tests/test_ep_runtime.cpp.
#pragma once

#include <memory>
#include <vector>

#include "cluster/topology.h"
#include "comm/comm_clock.h"
#include "comm/endpoint.h"
#include "comm/wire_codec.h"
#include "comm/traffic_meter.h"
#include "data/corpus.h"
#include "model/router_planting.h"
#include "model/transformer.h"
#include "nn/optimizer.h"

namespace vela::ep {

struct EpRuntimeConfig {
  model::ModelConfig model;
  cluster::ClusterConfig cluster;  // EP shards occupy ALL devices
  nn::AdamWConfig adamw;
  std::uint64_t seed = 1;
  // Wire precision (DESIGN.md §13): dtype of all-to-all dispatch payloads
  // and compute replies (the ring all-reduce stays raw fp32, charged at 32
  // bits). kDefault consults VELA_WIRE_DTYPE, then falls back to kFp32.
  // kInt8 also switches hosted experts to the packed-q8 GEMM.
  comm::WireDtype wire_dtype = comm::WireDtype::kDefault;
  unsigned q8_block = 0;  // int8 block length; 0 → VELA_WIRE_BLOCK, then 64
  // Comm-fabric backend for every channel (inbox, reply, ring); kDefault
  // follows VELA_TRANSPORT. Losses, weights and byte counts are bit-exact
  // across backends.
  comm::TransportKind transport = comm::TransportKind::kDefault;
  // Analytic step-time model (same calibrated constants as the VELA side).
  comm::CommClockConfig clock;
};

struct EpStepReport {
  std::size_t step = 0;
  float loss = 0.0f;  // mean over shards (== dense mean for equal shards)
  double external_mb_per_node = 0.0;
  // Modeled Fig. 6 times from the step's measured all-to-all ledger
  // (forward blocks 0..L−1 then backward L−1..0, plus the backbone
  // gradient ring all-reduce) through CommClock's EP model.
  double comm_seconds = 0.0;
  double step_seconds = 0.0;
};

class EpRuntime {
 public:
  // If `plant_corpus` is non-null, pre-trained locality is planted into
  // every replica (identically — replicas must agree bit-for-bit).
  EpRuntime(const EpRuntimeConfig& cfg,
            const data::SyntheticCorpus* plant_corpus = nullptr,
            const model::PlantingConfig& planting = {});
  ~EpRuntime();

  EpRuntime(const EpRuntime&) = delete;
  EpRuntime& operator=(const EpRuntime&) = delete;

  // One synchronous EP step. batch.size() must be divisible by the shard
  // count; all sequences must have equal length (the data-parallel loss
  // averaging assumes equal shard token counts).
  EpStepReport train_step(const std::vector<std::vector<std::size_t>>& batch);

  // Shard 0's replica (all replicas stay in lockstep) — for evaluation.
  model::MoETransformer& replica();

  std::size_t num_shards() const;
  const comm::TrafficMeter& meter() const;
  const cluster::ClusterTopology& topology() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace vela::ep
