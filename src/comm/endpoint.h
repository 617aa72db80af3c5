// Point-to-point endpoint between two processes of the runtime — the
// transport-agnostic layer of the comm fabric (DESIGN.md §10).
//
// An Endpoint owns exactly the responsibilities that must be identical on
// every backend:
//
//   * Message ↔ frame serialization (frame.h, lossless: the frame is the
//     Message body; the socket session record adds the length and the one
//     CRC where bytes leave the process, the in-process queue hashes
//     nothing);
//   * traffic attribution — the TrafficMeter, the per-endpoint byte/message
//     counters, and the VELA_AUDIT conservation ledger are all charged HERE,
//     never in a runtime and never in a Transport. The charge is always
//     Message::wire_size() (the accounted protocol size), never the physical
//     frame size, so Fig. 5/6 numbers are invariant across backends;
//   * fault injection and integrity: the checksum is stamped and the
//     FaultInjector consulted before framing, so a corrupted message frames
//     cleanly and is only rejected by the receiving runtime's checksum_ok()
//     — drop/sever/duplicate/corrupt behave identically over a queue and a
//     socket, and ReliableLink's retransmit logic needs no backend code.
//
// This replaces the old comm::Channel (which fused all of the above with a
// hard-wired BlockingQueue<Message>). Construction goes through
// make_endpoint/make_duplex_link or a config's TransportKind; vela_lint's
// direct-transport rule keeps ad-hoc construction out of the runtimes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>

#include "comm/fault_injector.h"
#include "comm/message.h"
#include "comm/traffic_meter.h"
#include "comm/transport.h"

namespace vela::comm {

// Which half of a cross-process lane this Endpoint is (DESIGN.md §12).
//
// When both halves of a lane live in one process (kNone), this single
// Endpoint does all the accounting. When the lane crosses a process
// boundary, each process owns one Endpoint over one RemoteSocketTransport,
// and the accounting splits so that every process's ledger balances by
// itself AND the union over processes equals the in-process charges:
//
//   * kEgress  — the local send half. Meters at send exactly as kNone does
//     (the bytes left this node's NIC), but pairs the ledger's posted
//     charge with an immediate received charge: the matching delivery
//     happens in another process, whose own ledger never saw the post.
//   * kIngress — the local receive half. Meters and charges the ledger
//     (posted + received, paired) at receive time; the sender's meter lives
//     in the other process. Order-freedom of the TrafficMeter sums plus the
//     request/reply discipline of the runtimes (the master awaits every
//     reply within the step) make the per-step totals bit-identical to the
//     in-process run — the cross-mode gate pins this.
//
// Both remote roles advance accepted_ and delivered_ together, so
// pending() == 0 and the ledger's in_flight stays zero at every boundary.
enum class RemoteRole : std::uint8_t { kNone, kEgress, kIngress };

class Endpoint {
 public:
  // `src_node`/`dst_node` locate the endpoints for traffic attribution.
  // `meter` may be null (un-metered control channels). `kind` is resolved
  // against VELA_TRANSPORT once, at construction.
  Endpoint(TransportKind kind, std::size_t src_node, std::size_t dst_node,
           TrafficMeter* meter);

  // Cross-process lane half over a pre-built transport (a
  // RemoteSocketTransport from the dial/adopt factories). kind() reports
  // kSocket — remote lanes are the socket fabric by construction.
  Endpoint(std::unique_ptr<Transport> transport, RemoteRole role,
           std::size_t src_node, std::size_t dst_node, TrafficMeter* meter);

  // Sends a message; records its wire size. Returns false if closed.
  bool send(Message msg);

  // Blocks for the next message; nullopt once closed and drained.
  std::optional<Message> receive();
  std::optional<Message> try_receive();
  // Timed receive: kOk fills *out, kTimeout means nothing arrived, kClosed
  // means the endpoint is closed and drained. The retry layer is built on
  // this — a timeout is a suspected fault, a close a confirmed one.
  PopStatus receive_for(std::chrono::milliseconds timeout, Message* out);

  // Attaches a fault injector (may be null to detach). `link` and `dir`
  // identify this endpoint in the injector's per-lane fault plan. While an
  // injector is attached every outgoing message is checksummed.
  void set_fault_injector(FaultInjector* injector, std::size_t link,
                          LinkDir dir);

  void close();
  [[nodiscard]] bool closed() const { return transport_->closed(); }

  // Messages accepted by the transport but not yet handed to a receiver.
  // Maintained here (not read from a backend queue) with the same
  // charge-before-publish ordering as the conservation ledger, so at a
  // quiescent step boundary pending() over all endpoints equals the
  // ledger's in_flight count on every backend.
  [[nodiscard]] std::size_t pending() const;

  [[nodiscard]] std::size_t src_node() const { return src_; }
  [[nodiscard]] std::size_t dst_node() const { return dst_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_.load(); }
  [[nodiscard]] std::uint64_t messages_sent() const {
    return messages_sent_.load();
  }
  // Receive-side counters, maintained in every mode: a consumer that wants
  // per-lane traffic (the --processes bench emitters) reads bytes_sent() on
  // its send half and bytes_received() on its receive half, which is
  // mode-agnostic — in a remote process the send half of the reverse lane
  // is unreachable.
  [[nodiscard]] std::uint64_t bytes_received() const {
    return bytes_received_.load();
  }
  [[nodiscard]] std::uint64_t messages_received() const {
    return messages_received_.load();
  }
  [[nodiscard]] RemoteRole remote_role() const { return role_; }
  [[nodiscard]] TransportKind kind() const { return kind_; }
  [[nodiscard]] const char* backend_name() const { return transport_->name(); }

 private:
  // Frames `msg` and offers it to the transport, with the ledger charged
  // before the frame is published (see channel ordering contract).
  bool offer(const Message& msg, std::uint64_t size);

  // Shared receive epilogue: decodes a delivered frame into *out, then
  // charges counters + ledger (+ ingress meter) at its wire_size().
  void deliver(const std::vector<std::uint8_t>& frame, Message* out);

  TransportKind kind_;
  RemoteRole role_ = RemoteRole::kNone;
  std::size_t src_, dst_;
  TrafficMeter* meter_;
  std::unique_ptr<Transport> transport_;
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> messages_received_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> delivered_{0};
  // Atomic: detach (master thread, at shutdown) can race a worker's late
  // reply send. The lane id/direction are only written before the pointer
  // is published (release/acquire pairing in set_fault_injector / send).
  std::atomic<FaultInjector*> injector_{nullptr};
  std::size_t injector_link_ = 0;
  LinkDir injector_dir_ = LinkDir::kToWorker;
};

// The bidirectional master↔worker link: a pair of endpoints.
struct DuplexLink {
  explicit DuplexLink(TransportKind kind = TransportKind::kDefault,
                      std::size_t master_node = 0, std::size_t worker_node = 0,
                      TrafficMeter* meter = nullptr)
      : to_worker(kind, master_node, worker_node, meter),
        to_master(kind, worker_node, master_node, meter) {}

  // Cross-process link: each lane is its own pre-built remote transport and
  // this process plays one role per lane (the master holds egress/ingress,
  // the worker the mirror image). Built by the remote factories below.
  DuplexLink(std::unique_ptr<Transport> to_worker_transport,
             RemoteRole to_worker_role,
             std::unique_ptr<Transport> to_master_transport,
             RemoteRole to_master_role, std::size_t master_node,
             std::size_t worker_node, TrafficMeter* meter)
      : to_worker(std::move(to_worker_transport), to_worker_role, master_node,
                  worker_node, meter),
        to_master(std::move(to_master_transport), to_master_role, worker_node,
                  master_node, meter) {}

  Endpoint to_worker;
  Endpoint to_master;

  // Attaches `injector` (null detaches) to both directions under lane id
  // `link` (the worker index in the master's fleet).
  void set_fault_injector(FaultInjector* injector, std::size_t link) {
    to_worker.set_fault_injector(injector, link, LinkDir::kToWorker);
    to_master.set_fault_injector(injector, link, LinkDir::kToMaster);
  }

  void close() {
    to_worker.close();
    to_master.close();
  }
};

// Factories — how the runtimes (and tests that are not about the fabric
// itself) construct endpoints; `kind` may be kDefault to follow
// VELA_TRANSPORT.
[[nodiscard]] std::unique_ptr<Endpoint> make_endpoint(TransportKind kind,
                                                      std::size_t src_node,
                                                      std::size_t dst_node,
                                                      TrafficMeter* meter);
[[nodiscard]] std::unique_ptr<DuplexLink> make_duplex_link(
    TransportKind kind, std::size_t master_node, std::size_t worker_node,
    TrafficMeter* meter);

// --- multi-process deployment (DESIGN.md §12) --------------------------------

class PeerListener;  // comm/peer_listener.h

// Master-side half of a cross-process link: blocks until worker `rank` has
// dialed both lanes of `listener` and identified itself, then adopts the
// two connections (to_worker = egress, to_master = ingress). The worker's
// announced expert capacity must equal `expected_capacity` — a scenario
// mismatch between launcher and worker is a configuration bug, caught here.
// Returns nullptr if the worker does not appear within `accept_timeout`.
[[nodiscard]] std::unique_ptr<DuplexLink> make_master_remote_link(
    PeerListener& listener, std::uint32_t rank,
    std::uint64_t expected_capacity, std::size_t master_node,
    std::size_t worker_node, TrafficMeter* meter,
    std::chrono::milliseconds accept_timeout, ReconnectPolicy policy = {},
    util::Clock* clock = nullptr);

// Worker-side half: dials the master's `port` twice (once per lane),
// announcing (rank, capacity, session_id) on each. Un-metered — traffic
// attribution lives with the master's meter. session_id must be stable for
// the life of this process (reconnects re-identify with it) and unique
// across processes (the launcher/VELA node derives it from the pid).
[[nodiscard]] std::unique_ptr<DuplexLink> make_worker_remote_link(
    std::uint16_t port, std::uint32_t rank, std::uint64_t capacity,
    std::uint64_t session_id, std::size_t master_node,
    std::size_t worker_node, ReconnectPolicy policy = {},
    util::Clock* clock = nullptr);

}  // namespace vela::comm
