// The EP baseline's per-shard MoE dispatch: an all-to-all to the expert
// servers that own each expert (expert e lives on shard e mod N).
//
// Forward sends every non-empty group of a block before awaiting any reply.
// Backward mirrors it through ag::remote_rows: each output posts its dL/dy
// as the reverse sweep passes it, and the waits for dL/dx run — in post
// order — when the sweep reaches the block's input, so a shard has every
// gradient of the block in flight before it blocks on the first.
//
// Each server answers a source in arrival order, so replies are read in
// post order straight off the per-(server, source) channel; anything else
// is a protocol violation (CheckError), as is a closed channel.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/topology.h"
#include "comm/endpoint.h"
#include "comm/phase_ledger.h"
#include "comm/traffic_meter.h"
#include "comm/wire_codec.h"
#include "moe/moe_block.h"

namespace vela::ep {

class PeerBackend : public moe::ExpertBackend {
 public:
  // `to_server[o]` is server o's (shared) inbox; `from_server[o]` the
  // channel on which server o answers this shard. Pointers are non-owning.
  PeerBackend(std::size_t shard, std::size_t num_shards,
              std::size_t num_layers, comm::WireCodec codec,
              const cluster::ClusterTopology* topology,
              comm::TrafficMeter* meter,
              std::vector<comm::Endpoint*> to_server,
              std::vector<comm::Endpoint*> from_server);

  // This shard's contribution to the step's per-phase all-to-all ledger
  // (requests it sends, replies it receives) — phases are forward blocks
  // 0..L−1 then backward L−1..0, the shared PhaseLedger convention. Each
  // shard writes only its own ledger; the runtime merges them after joining
  // the shard threads, so no cell is ever written concurrently.
  comm::EpStepRecord take_record() { return ledger_.take_ep(); }

  std::vector<ag::Variable> experts_forward(
      std::size_t layer, const ag::Variable& x,
      const std::vector<std::vector<std::size_t>>& expert_tokens) override;

 private:
  void record(std::size_t owner, std::uint64_t bytes);
  void account(std::size_t layer, bool backward, std::size_t src,
               std::size_t dst, std::uint64_t bytes);
  comm::Message await(std::size_t owner, std::uint64_t request_id,
                      comm::MessageType expected);

  std::size_t shard_, num_shards_;
  // Dispatch-payload codec (comm/wire_codec.h) — all-to-all requests and
  // the backward gradient exchange; the backbone ring all-reduce keeps the
  // legacy raw-fp32 accounting (ep/runtime.cpp).
  comm::WireCodec codec_;
  const cluster::ClusterTopology* topology_;
  comm::TrafficMeter* meter_;
  std::vector<comm::Endpoint*> to_server_;
  std::vector<comm::Endpoint*> from_server_;
  comm::PhaseLedger ledger_;
  std::uint64_t next_request_;
};

}  // namespace vela::ep
