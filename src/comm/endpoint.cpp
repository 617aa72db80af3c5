#include "comm/endpoint.h"

#include <unistd.h>

#include "comm/frame.h"
#include "comm/peer_listener.h"
#include "comm/remote_transport.h"
#include "util/audit.h"
#include "util/check.h"

namespace vela::comm {
namespace {

// Feeds the VELA_AUDIT byte-conservation ledger from the endpoint boundary.
// Every disposition a message can take (accepted by the transport, dropped
// by a fault, rejected by a closed transport, handed to a receiver) reports
// here, so a new code path that forgets one trips the step-end conservation
// check — on every backend, because no charge lives below this layer.
//
// Ordering contract: the posted+enqueued charge happens BEFORE the transport
// send publishes the frame. Once a receiver can observe the message its
// accounting is complete — otherwise a sender preempted between publish and
// charge would make a concurrent step-end check see delivered bytes that
// were never enqueued. A send that then loses the race with close() converts
// its optimistic charge into a drop.
void ledger_posted_enqueued(std::uint64_t bytes) {
  if (audit::enabled())
    audit::ConservationLedger::instance().on_posted_enqueued(bytes);
}
void ledger_posted_dropped(std::uint64_t bytes) {
  if (audit::enabled())
    audit::ConservationLedger::instance().on_posted_dropped(bytes);
}
void ledger_enqueue_rejected(std::uint64_t bytes) {
  if (audit::enabled())
    audit::ConservationLedger::instance().on_enqueue_rejected(bytes);
}
void ledger_received(std::uint64_t bytes) {
  if (audit::enabled())
    audit::ConservationLedger::instance().on_received(bytes);
}

}  // namespace

Endpoint::Endpoint(TransportKind kind, std::size_t src_node,
                   std::size_t dst_node, TrafficMeter* meter)
    : kind_(resolve_transport(kind)),
      src_(src_node),
      dst_(dst_node),
      meter_(meter),
      transport_(make_transport(kind_)) {}

Endpoint::Endpoint(std::unique_ptr<Transport> transport, RemoteRole role,
                   std::size_t src_node, std::size_t dst_node,
                   TrafficMeter* meter)
    : kind_(TransportKind::kSocket),
      role_(role),
      src_(src_node),
      dst_(dst_node),
      meter_(meter),
      transport_(std::move(transport)) {
  VELA_CHECK_MSG(role_ != RemoteRole::kNone,
                 "pre-built-transport endpoints are cross-process lanes; "
                 "use the TransportKind constructor for local ones");
  VELA_CHECK(transport_ != nullptr);
}

bool Endpoint::offer(const Message& msg, std::uint64_t size) {
  // `size` IS msg.wire_size(): send() computes it once and meters before
  // calling offer(), so charging again here would double-count the ledger.
  std::vector<std::uint8_t> frame = encode_frame(msg);  // vela-analyze: allow(uncharged-send)
  // pending() mirrors the ledger: count the message before the transport
  // publishes it, take the count back if the transport turned it away.
  accepted_.fetch_add(1, std::memory_order_relaxed);
  ledger_posted_enqueued(size);
  if (!transport_->send(std::move(frame))) {
    accepted_.fetch_sub(1, std::memory_order_relaxed);
    ledger_enqueue_rejected(size);
    return false;
  }
  if (role_ == RemoteRole::kEgress) {
    // The matching delivery happens in another process whose ledger never
    // saw this post: settle it here so this process balances by itself
    // (and pending() stays zero — nothing local will ever dequeue it).
    delivered_.fetch_add(1, std::memory_order_relaxed);
    ledger_received(size);
  }
  return true;
}

bool Endpoint::send(Message msg) {
  FaultKind fault = FaultKind::kNone;
  if (FaultInjector* injector = injector_.load(std::memory_order_acquire);
      injector != nullptr) {
    // Stamp before the injector mutates: a corrupted payload then fails
    // verification at the receiver, exactly like a real CRC. The stamped
    // checksum travels inside the frame body, so the socket backend carries
    // the corruption end to end just like the in-proc queue.
    msg.stamp_checksum();
    fault = injector->on_send(injector_link_, injector_dir_, msg);
  }
  const std::uint64_t size = msg.wire_size();
  // Account BEFORE publishing: once the receiver can observe the message,
  // its bytes must already be visible in the meter — otherwise a reader that
  // synchronizes on the reply could see a stale count (a real race caught by
  // the byte-equivalence tests). A send that loses the race with close()
  // slightly overcounts, which only happens during shutdown. Dropped and
  // corrupted messages still left the sender's NIC, so their bytes count;
  // a duplicate is two transmissions and counts twice.
  const std::uint64_t transmissions = fault == FaultKind::kDuplicate ? 2 : 1;
  bytes_sent_.fetch_add(size * transmissions, std::memory_order_relaxed);
  messages_sent_.fetch_add(transmissions, std::memory_order_relaxed);
  if (meter_ != nullptr) {
    for (std::uint64_t i = 0; i < transmissions; ++i) {
      meter_->record(src_, dst_, size);
    }
  }
  switch (fault) {
    case FaultKind::kDrop:
      ledger_posted_dropped(size);
      return true;  // transmitted, never delivered
    case FaultKind::kSever:
      ledger_posted_dropped(size);
      transport_->close();
      return false;
    case FaultKind::kDuplicate: {
      const bool first = offer(msg, size);
      const bool second = offer(msg, size);
      return first && second;
    }
    default:
      return offer(msg, size);
  }
}

void Endpoint::deliver(const std::vector<std::uint8_t>& frame, Message* out) {
  std::string error;
  VELA_CHECK_MSG(decode_frame(frame, out, &error),
                 "transport delivered an undecodable frame: " + error);
  const std::uint64_t size = out->wire_size();
  if (role_ == RemoteRole::kIngress) {
    // The sender lives in another process: these bytes enter this node
    // here, so the meter and the ledger's posted half are charged at
    // receive (paired with the received half just below — in_flight never
    // rises, matching the egress side's settle-at-send).
    accepted_.fetch_add(1, std::memory_order_relaxed);
    ledger_posted_enqueued(size);
    if (meter_ != nullptr) meter_->record(src_, dst_, size);
  }
  bytes_received_.fetch_add(size, std::memory_order_relaxed);
  messages_received_.fetch_add(1, std::memory_order_relaxed);
  delivered_.fetch_add(1, std::memory_order_relaxed);
  ledger_received(size);
}

std::optional<Message> Endpoint::receive() {
  std::optional<std::vector<std::uint8_t>> frame = transport_->receive();
  if (!frame.has_value()) return std::nullopt;
  Message msg;
  deliver(*frame, &msg);
  return msg;
}

std::optional<Message> Endpoint::try_receive() {
  std::optional<std::vector<std::uint8_t>> frame = transport_->try_receive();
  if (!frame.has_value()) return std::nullopt;
  Message msg;
  deliver(*frame, &msg);
  return msg;
}

PopStatus Endpoint::receive_for(std::chrono::milliseconds timeout,
                                Message* out) {
  std::vector<std::uint8_t> frame;
  const PopStatus status = transport_->receive_for(timeout, &frame);
  if (status == PopStatus::kOk) deliver(frame, out);
  return status;
}

void Endpoint::set_fault_injector(FaultInjector* injector, std::size_t link,
                                  LinkDir dir) {
  // Lane id/direction first, pointer last: a sender that wins the acquire
  // load must see a fully-described lane.
  injector_link_ = link;
  injector_dir_ = dir;
  injector_.store(injector, std::memory_order_release);
  // Connection-level faults live below the frame layer: hand the script
  // straight to the transport (nullptr clears any previous script).
  transport_->set_connection_script(
      injector != nullptr ? injector->connection_script(link, dir) : nullptr);
}

void Endpoint::close() { transport_->close(); }

std::size_t Endpoint::pending() const {
  const std::uint64_t accepted = accepted_.load(std::memory_order_relaxed);
  const std::uint64_t delivered = delivered_.load(std::memory_order_relaxed);
  return accepted > delivered ? static_cast<std::size_t>(accepted - delivered)
                              : 0;
}

std::unique_ptr<Endpoint> make_endpoint(TransportKind kind,
                                        std::size_t src_node,
                                        std::size_t dst_node,
                                        TrafficMeter* meter) {
  return std::make_unique<Endpoint>(kind, src_node, dst_node, meter);
}

std::unique_ptr<DuplexLink> make_duplex_link(TransportKind kind,
                                             std::size_t master_node,
                                             std::size_t worker_node,
                                             TrafficMeter* meter) {
  return std::make_unique<DuplexLink>(kind, master_node, worker_node, meter);
}

std::unique_ptr<DuplexLink> make_master_remote_link(
    PeerListener& listener, std::uint32_t rank,
    std::uint64_t expected_capacity, std::size_t master_node,
    std::size_t worker_node, TrafficMeter* meter,
    std::chrono::milliseconds accept_timeout, ReconnectPolicy policy,
    util::Clock* clock) {
  AcceptedPeer down =
      listener.take_peer(rank, session::kLaneToWorker, accept_timeout);
  if (!down.valid()) return nullptr;
  AcceptedPeer up =
      listener.take_peer(rank, session::kLaneToMaster, accept_timeout);
  if (!up.valid()) {
    ::close(down.fd);
    return nullptr;
  }
  // The two lanes must come from the same process instance and agree on
  // what the worker hosts; a mismatch is a launcher/scenario bug.
  VELA_CHECK_MSG(down.id.session_id == up.id.session_id,
                 "worker " << rank << " identified two different sessions");
  VELA_CHECK_MSG(down.id.capacity == expected_capacity &&
                     up.id.capacity == expected_capacity,
                 "worker " << rank << " announced capacity "
                           << down.id.capacity << ", expected "
                           << expected_capacity);
  auto to_worker = RemoteSocketTransport::adopt(
      std::move(down), RemoteSocketTransport::Role::kSender, &listener, clock,
      policy);
  auto to_master = RemoteSocketTransport::adopt(
      std::move(up), RemoteSocketTransport::Role::kReceiver, &listener, clock,
      policy);
  return std::make_unique<DuplexLink>(
      std::move(to_worker), RemoteRole::kEgress, std::move(to_master),
      RemoteRole::kIngress, master_node, worker_node, meter);
}

std::unique_ptr<DuplexLink> make_worker_remote_link(
    std::uint16_t port, std::uint32_t rank, std::uint64_t capacity,
    std::uint64_t session_id, std::size_t master_node,
    std::size_t worker_node, ReconnectPolicy policy, util::Clock* clock) {
  session::PeerIdentity id;
  id.rank = rank;
  id.capacity = capacity;
  id.session_id = session_id;
  id.lane = session::kLaneToWorker;
  auto to_worker = RemoteSocketTransport::dial(
      port, RemoteSocketTransport::Role::kReceiver, id, clock, policy);
  id.lane = session::kLaneToMaster;
  auto to_master = RemoteSocketTransport::dial(
      port, RemoteSocketTransport::Role::kSender, id, clock, policy);
  // The worker's receive half of the to_worker lane and send half of the
  // to_master lane; un-metered (attribution lives at the master).
  return std::make_unique<DuplexLink>(
      std::move(to_worker), RemoteRole::kIngress, std::move(to_master),
      RemoteRole::kEgress, master_node, worker_node, /*meter=*/nullptr);
}

}  // namespace vela::comm
