#include "comm/remote_transport.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/rng.h"

namespace vela::comm {

namespace {

// Real-time bound on writing the kIdent record to a fresh connection.
constexpr int kIdentBudgetMs = 2000;

}  // namespace

RemoteSocketTransport::RemoteSocketTransport(Role role,
                                             session::ConnectionPtr conn,
                                             session::ConnectionSource source,
                                             util::Clock* clock,
                                             ReconnectPolicy policy) {
  if (role == Role::kSender) {
    sender_ = std::make_unique<session::SenderHalf>(
        std::move(conn), std::move(source), clock, policy);
  } else {
    receiver_ = std::make_unique<session::ReceiverHalf>(
        std::move(conn), std::move(source), clock, policy);
  }
}

RemoteSocketTransport::~RemoteSocketTransport() = default;

std::unique_ptr<RemoteSocketTransport> RemoteSocketTransport::dial(
    std::uint16_t port, Role role, const session::PeerIdentity& id,
    util::Clock* clock, ReconnectPolicy policy) {
  session::ConnectionSource redial = [port, id]() -> session::ConnectionPtr {
    const int fd = session::dial_socket(port);
    if (fd < 0) return nullptr;
    auto conn = std::make_shared<session::Connection>(fd);
    const auto ident = session::encode_ident_record(id);
    if (!session::write_all_timed(fd, ident.data(), ident.size(),
                                  kIdentBudgetMs)) {
      return nullptr;
    }
    return conn;
  };
  util::Clock* clk = clock != nullptr ? clock : &util::system_clock();
  Rng jitter(policy.jitter_seed);
  session::ConnectionPtr conn;
  for (int attempt = 1; attempt <= policy.max_attempts && conn == nullptr;
       ++attempt) {
    if (attempt > 1) {
      clk->sleep_for(session::backoff_delay(policy, attempt, &jitter));
    }
    conn = redial();
  }
  VELA_CHECK_MSG(conn != nullptr,
                 "remote transport: could not reach master on port "
                     << port << " after " << policy.max_attempts
                     << " attempt(s)");
  return std::unique_ptr<RemoteSocketTransport>(
      // vela-lint: allow(naked-new) -- private ctor
      new RemoteSocketTransport(role, std::move(conn), std::move(redial),
                                clock, policy));
}

std::unique_ptr<RemoteSocketTransport> RemoteSocketTransport::adopt(
    AcceptedPeer peer, Role role, PeerListener* listener, util::Clock* clock,
    ReconnectPolicy policy) {
  VELA_CHECK_MSG(listener != nullptr,
                 "remote transport: acceptor side needs a listener");
  VELA_CHECK_MSG(peer.valid(), "remote transport: adopt of an invalid peer");
  const session::PeerIdentity id = peer.id;
  // How long one attempt waits for the peer to redial and re-identify.
  const auto wait = std::chrono::milliseconds(
      std::max<std::int64_t>(policy.backoff_max.count(), 50));
  session::ConnectionSource take_resume =
      [listener, id, wait]() -> session::ConnectionPtr {
    AcceptedPeer again =
        listener->take_resume(id.rank, id.lane, id.session_id, wait);
    if (!again.valid()) return nullptr;
    return std::make_shared<session::Connection>(again.fd, again.leftover);
  };
  return std::unique_ptr<RemoteSocketTransport>(
      // vela-lint: allow(naked-new) -- private ctor
      new RemoteSocketTransport(
          role, std::make_shared<session::Connection>(peer.fd, peer.leftover),
          std::move(take_resume), clock, policy));
}

session::SessionHalf& RemoteSocketTransport::half() const {
  if (sender_ != nullptr) return *sender_;
  return *receiver_;
}

bool RemoteSocketTransport::send(std::vector<std::uint8_t> frame) {
  VELA_CHECK_MSG(sender_ != nullptr,
                 "send() on a receiver-role remote transport");
  return sender_->send(frame);
}

session::ReceiverHalf& RemoteSocketTransport::receiver() const {
  VELA_CHECK_MSG(receiver_ != nullptr,
                 "receive() on a sender-role remote transport");
  return *receiver_;
}

std::optional<std::vector<std::uint8_t>> RemoteSocketTransport::receive() {
  std::vector<std::uint8_t> frame;
  if (receiver().receive(-1, &frame) != PopStatus::kOk) return std::nullopt;
  return frame;
}

std::optional<std::vector<std::uint8_t>> RemoteSocketTransport::try_receive() {
  std::vector<std::uint8_t> frame;
  if (receiver().receive(0, &frame) != PopStatus::kOk) return std::nullopt;
  return frame;
}

PopStatus RemoteSocketTransport::receive_for(std::chrono::milliseconds timeout,
                                             std::vector<std::uint8_t>* out) {
  const long ms = static_cast<long>(timeout.count());
  return receiver().receive(ms < 0 ? 0 : ms, out);
}

void RemoteSocketTransport::close() {
  if (sender_ != nullptr) {
    sender_->close();
  } else {
    receiver_->close();
  }
}

bool RemoteSocketTransport::closed() const { return half().closed(); }

void RemoteSocketTransport::set_connection_script(
    const ConnectionScript* script) {
  if (sender_ != nullptr) sender_->set_connection_script(script);
}

SessionStats RemoteSocketTransport::session_stats() const {
  return half().stats();
}

}  // namespace vela::comm
