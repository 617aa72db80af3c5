#include "ep/peer_backend.h"

#include "autograd/ops.h"
#include "util/check.h"

namespace vela::ep {

PeerBackend::PeerBackend(std::size_t shard, std::size_t num_shards,
                         std::size_t num_layers, comm::WireCodec codec,
                         const cluster::ClusterTopology* topology,
                         comm::TrafficMeter* meter,
                         std::vector<comm::Endpoint*> to_server,
                         std::vector<comm::Endpoint*> from_server)
    : shard_(shard),
      num_shards_(num_shards),
      codec_(codec),
      topology_(topology),
      meter_(meter),
      to_server_(std::move(to_server)),
      from_server_(std::move(from_server)),
      ledger_(num_layers, num_shards, num_shards),
      next_request_((static_cast<std::uint64_t>(shard) << 48) + 1) {}

std::vector<ag::Variable> PeerBackend::experts_forward(
    std::size_t layer, const ag::Variable& x,
    const std::vector<std::vector<std::size_t>>& expert_tokens) {
  struct Outstanding {
    std::size_t owner;
    std::uint64_t request_id;
    std::size_t expert;
  };
  std::vector<Outstanding> outstanding;
  // Dispatch phase of the all-to-all: send every group first.
  for (std::size_t expert = 0; expert < expert_tokens.size(); ++expert) {
    if (expert_tokens[expert].empty()) continue;
    const std::size_t owner = expert % num_shards_;
    comm::Message msg;
    msg.type = comm::MessageType::kExpertForward;
    msg.request_id = next_request_++;
    msg.source = static_cast<std::uint32_t>(shard_);
    msg.layer = static_cast<std::uint32_t>(layer);
    msg.expert = static_cast<std::uint32_t>(expert);
    msg.payload = codec_.apply(ag::rows_of(x, expert_tokens[expert]));
    codec_.stamp(msg);
    record(owner, msg.wire_size());
    account(layer, /*backward=*/false, shard_, owner, msg.wire_size());
    outstanding.push_back({owner, msg.request_id, expert});
    VELA_CHECK(to_server_[owner]->send(std::move(msg)));
  }
  // Gather phase: collect in send order (FIFO per server per source).
  // Backward mirrors it: each output posts its gradient as the sweep
  // passes it, and the waits — in post order, so still FIFO per server —
  // run when the sweep reaches x.
  std::vector<ag::Variable> results;
  results.reserve(outstanding.size());
  for (const Outstanding& o : outstanding) {
    comm::Message reply = await(o.owner, o.request_id,
                                comm::MessageType::kExpertForwardResult);
    account(layer, /*backward=*/false, o.owner, shard_, reply.wire_size());
    const std::size_t owner = o.owner;
    const std::uint64_t request_id = o.request_id;
    const std::uint32_t layer32 = static_cast<std::uint32_t>(layer);
    const std::uint32_t expert32 = static_cast<std::uint32_t>(o.expert);
    results.push_back(ag::remote_rows(
        x, expert_tokens[o.expert], std::move(reply.payload),
        [this, owner, request_id, layer32, expert32](const Tensor& dy) {
          comm::Message grad_msg;
          grad_msg.type = comm::MessageType::kExpertBackward;
          grad_msg.request_id = request_id;
          grad_msg.source = static_cast<std::uint32_t>(shard_);
          grad_msg.layer = layer32;
          grad_msg.expert = expert32;
          grad_msg.payload = codec_.apply(dy);
          codec_.stamp(grad_msg);
          record(owner, grad_msg.wire_size());
          account(layer32, /*backward=*/true, shard_, owner,
                  grad_msg.wire_size());
          VELA_CHECK(to_server_[owner]->send(std::move(grad_msg)));
          return [this, owner, request_id, layer32] {
            comm::Message dx = await(
                owner, request_id, comm::MessageType::kExpertBackwardResult);
            account(layer32, /*backward=*/true, owner, shard_,
                    dx.wire_size());
            return std::move(dx.payload);
          };
        }));
  }
  return results;
}

void PeerBackend::record(std::size_t owner, std::uint64_t bytes) {
  // Server inboxes are shared across sources, so requests are attributed
  // here; replies are metered by the per-pair reply channels themselves.
  meter_->record(topology_->node_of(shard_), topology_->node_of(owner),
                 bytes);
}

void PeerBackend::account(std::size_t layer, bool backward, std::size_t src,
                          std::size_t dst, std::uint64_t bytes) {
  ledger_.charge(layer, backward, src, dst, bytes, 1);
}

comm::Message PeerBackend::await(std::size_t owner,
                                 std::uint64_t request_id,
                                 comm::MessageType expected) {
  auto maybe = from_server_[owner]->receive();
  VELA_CHECK_MSG(maybe.has_value(), "EP server " << owner
                                                 << " channel closed");
  VELA_CHECK_MSG(maybe->type == expected && maybe->request_id == request_id,
                 "EP protocol violation: expected "
                     << message_type_name(expected) << "/" << request_id
                     << ", got " << maybe->to_string());
  return std::move(*maybe);
}

}  // namespace vela::ep
