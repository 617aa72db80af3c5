// Byte-accurate accounting of one VELA fine-tuning step from routing plans —
// the shape-preset twin of the real broker's ledger.
//
// Given the routing decisions of a step (real or from moe::SyntheticRouter)
// and a placement, produces exactly the per-phase per-worker byte counts the
// live ExpertBroker would have recorded, without moving any tensors. An
// integration test pins this equivalence (simulated bytes == measured bytes
// on the runnable model), which is what licenses using the simulator for the
// Mixtral-scale Figs. 5 and 6.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/topology.h"
#include "comm/comm_clock.h"
#include "comm/message.h"
#include "moe/gate.h"
#include "placement/placement.h"
#include "placement/replication.h"

namespace vela::core {

struct VelaTrafficModelConfig {
  std::size_t bytes_per_token = 0;  // codec.row_bytes(H): one token, one way
  std::uint64_t header_bytes = comm::Message::kHeaderBytes;
};

class VelaTrafficModel {
 public:
  VelaTrafficModel(const cluster::ClusterTopology* topology,
                   VelaTrafficModelConfig cfg);

  // Per-phase ledger of one step (forward blocks 0..L−1, backward L−1..0).
  comm::VelaStepRecord account_step(const std::vector<moe::RoutePlan>& plans,
                                    const placement::Placement& placement) const;

  // Replicated variant: each expert group splits across its replicas with
  // the placement's bandwidth-proportional fractions (largest-remainder
  // integer apportionment, so split token counts sum exactly).
  comm::VelaStepRecord account_step_replicated(
      const std::vector<moe::RoutePlan>& plans,
      const placement::ReplicatedPlacement& placement,
      const placement::PlacementProblem& problem) const;

  // Cross-node bytes of a record (workers off the master's node).
  std::uint64_t external_bytes(const comm::VelaStepRecord& record) const;

 private:
  const cluster::ClusterTopology* topology_;
  VelaTrafficModelConfig cfg_;
};

// Fig. 6 step times of one record under both schedules: the sequential
// exchange and the micro-chunked overlap pipeline at depth `overlap_chunks`
// (DESIGN.md §8). The record — and hence every byte — is the same for both;
// only the clock model differs. overlap_chunks <= 1 yields equal fields.
struct ModeledStepTimes {
  double sequential_s = 0.0;
  double overlap_s = 0.0;
};
ModeledStepTimes modeled_step_times(const comm::CommClock& clock,
                                    const comm::VelaStepRecord& record,
                                    std::size_t overlap_chunks);

}  // namespace vela::core
