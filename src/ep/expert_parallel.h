// Conventional expert parallelism (Fig. 2) — the paper's main baseline.
//
// Faithful to §V-A's reference implementation: every device replicates the
// non-expert layers, the input batch is sharded across devices, expert e of
// every block lives on device e mod N, and each MoE block performs two
// synchronized all-to-alls per direction (dispatch + gather forward, the
// mirrored pair backward). Because the backbone is replicated and trained
// under data parallelism, every step ends with an all-reduce over the
// backbone's trainable (LoRA) gradients — the extra traffic Fig. 5 shows for
// "EP" over the sequential/random VELA placements.
//
// This module is an accounting engine over routing plans: it produces the
// byte matrices the CommClock and the traffic report consume. The routing
// decisions themselves come from the same source as VELA's (real model or
// SyntheticRouter), so comparisons are apples-to-apples.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/topology.h"
#include "comm/comm_clock.h"
#include "comm/message.h"
#include "moe/gate.h"

namespace vela::ep {

struct EpConfig {
  std::size_t bytes_per_token = 0;  // codec.row_bytes(H): one token, one way
  // Bytes of the replicated backbone's trainable gradients (all-reduced at
  // the end of every step; fp32 like the optimizer state).
  std::uint64_t backbone_grad_bytes = 0;
  std::uint64_t header_bytes = comm::Message::kHeaderBytes;
};

class ExpertParallelModel {
 public:
  ExpertParallelModel(const cluster::ClusterTopology* topology, EpConfig cfg);

  // Input sharding: token t of K belongs to device ⌊t·N/K⌋ (contiguous
  // shards, like splitting the batch dimension).
  std::size_t device_of_token(std::size_t token, std::size_t num_tokens) const;
  // Expert placement: expert e of every block on device e mod N.
  std::size_t device_of_expert(std::size_t expert) const;

  // Accounts one fine-tuning step: 2 all-to-all phases per block forward
  // (dispatch, gather) and 2 backward, plus the end-of-step all-reduce.
  comm::EpStepRecord account_step(
      const std::vector<moe::RoutePlan>& plans) const;

  // Cross-node bytes of a record, including the all-reduce's share (ring
  // order 0..N−1; edges crossing a node boundary count as external).
  std::uint64_t external_bytes(const comm::EpStepRecord& record) const;

  const EpConfig& config() const { return cfg_; }

 private:
  const cluster::ClusterTopology* topology_;
  EpConfig cfg_;
};

}  // namespace vela::ep
