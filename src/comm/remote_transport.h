// Cross-process socket transport of the comm fabric (DESIGN.md §12).
//
// RemoteSocketTransport is ONE direction of a master↔worker DuplexLink whose
// two ends live in different OS processes: a single session half
// (comm/session.h) plus the connection source that half resumes from.
//
//   * kSender   — a session::SenderHalf: sequence numbers, replay buffer,
//     acks, goodbye-then-FIN, and the ConnectionScript faults the Endpoint
//     forwards from the FaultInjector.
//   * kReceiver — a session::ReceiverHalf: in-order delivery, dedupe, acks,
//     hello on every connection, goodbye (closed) vs bare EOF (resume).
//
// The halves are the loopback SocketTransport's, so everything the
// equivalence gates pin — exactly-once delivery, replay charged to
// on_session_replay, goodbye semantics — holds across process boundaries.
//
// Sources: the worker process is always the dialer — it connects to the
// master's PeerListener port and opens with a kIdent record, and after a
// loss it redials and re-identifies with the same session id. The master
// adopts connections from the PeerListener and, after a loss, takes the
// re-identified one from PeerListener::take_resume. The kHello handshake
// then runs as on any socket lane.
#pragma once

#include <memory>

#include "comm/peer_listener.h"
#include "comm/session.h"
#include "comm/transport.h"

namespace vela::comm {

class RemoteSocketTransport final : public Transport {
 public:
  enum class Role : std::uint8_t { kSender, kReceiver };

  // Dialer side (worker process): connects to 127.0.0.1:`port` and
  // announces `id`; the receiver role then offers its hello. The initial
  // connect is retried on `policy`'s backoff schedule; failure to reach the
  // master at all fails a VELA_CHECK (a worker without a master cannot run).
  [[nodiscard]] static std::unique_ptr<RemoteSocketTransport> dial(
      std::uint16_t port, Role role, const session::PeerIdentity& id,
      util::Clock* clock = nullptr, ReconnectPolicy policy = {});

  // Acceptor side (master process): adopts a connection the `listener`
  // accepted and identified. `listener` is retained (non-owning) as the
  // resume source after a connection loss; it must outlive this transport.
  [[nodiscard]] static std::unique_ptr<RemoteSocketTransport> adopt(
      AcceptedPeer peer, Role role, PeerListener* listener,
      util::Clock* clock = nullptr, ReconnectPolicy policy = {});

  ~RemoteSocketTransport() override;

  RemoteSocketTransport(const RemoteSocketTransport&) = delete;
  RemoteSocketTransport& operator=(const RemoteSocketTransport&) = delete;

  bool send(std::vector<std::uint8_t> frame) override;
  std::optional<std::vector<std::uint8_t>> receive() override;
  std::optional<std::vector<std::uint8_t>> try_receive() override;
  PopStatus receive_for(std::chrono::milliseconds timeout,
                        std::vector<std::uint8_t>* out) override;
  void close() override;
  [[nodiscard]] bool closed() const override;
  [[nodiscard]] const char* name() const override { return "socket"; }
  void set_connection_script(const ConnectionScript* script) override;

  [[nodiscard]] SessionStats session_stats() const;

 private:
  RemoteSocketTransport(Role role, session::ConnectionPtr conn,
                        session::ConnectionSource source, util::Clock* clock,
                        ReconnectPolicy policy);
  session::SessionHalf& half() const;
  session::ReceiverHalf& receiver() const;

  std::unique_ptr<session::SenderHalf> sender_;      // kSender only
  std::unique_ptr<session::ReceiverHalf> receiver_;  // kReceiver only
};

}  // namespace vela::comm
