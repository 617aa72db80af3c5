#include "comm/transport.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <string>
#include <utility>

#include "comm/session.h"
#include "util/check.h"

namespace vela::comm {

TransportKind resolve_transport(TransportKind kind) {
  if (kind != TransportKind::kDefault) return kind;
  const char* env = std::getenv("VELA_TRANSPORT");
  if (env == nullptr || env[0] == '\0') return TransportKind::kInProc;
  const std::string value(env);
  if (value == "inproc") return TransportKind::kInProc;
  if (value == "socket") return TransportKind::kSocket;
  VELA_CHECK_MSG(false, "VELA_TRANSPORT must be 'inproc' or 'socket', got '" +
                            value + "'");
  return TransportKind::kInProc;  // unreachable
}

TransportKind transport_kind_from_name(const std::string& name) {
  if (name == "inproc") return TransportKind::kInProc;
  if (name == "socket") return TransportKind::kSocket;
  if (name.empty() || name == "default") return TransportKind::kDefault;
  VELA_CHECK_MSG(false, "unknown transport '" + name +
                            "' (expected inproc, socket or default)");
  return TransportKind::kInProc;  // unreachable
}

const char* transport_kind_name(TransportKind kind) {
  switch (resolve_transport(kind)) {
    case TransportKind::kSocket:
      return "socket";
    default:
      return "inproc";
  }
}

// --- InProcTransport --------------------------------------------------------

bool InProcTransport::send(std::vector<std::uint8_t> frame) {
  {
    std::lock_guard<std::mutex> lock(script_mutex_);
    const std::uint64_t index = frames_sent_++;
    if (script_ != nullptr) {
      for (std::size_t i = 0; i < script_->severs.size(); ++i) {
        if (!sever_fired_[i] && script_->severs[i].frame_index == index) {
          // No byte stream to resume on this backend: a scripted sever is a
          // permanent link death, the backend-invariant "worker killed"
          // signal (see header).
          sever_fired_[i] = true;
          queue_.close();
          return false;
        }
      }
    }
  }
  return queue_.push(std::move(frame));
}

std::optional<std::vector<std::uint8_t>> InProcTransport::receive() {
  return queue_.pop();
}

std::optional<std::vector<std::uint8_t>> InProcTransport::try_receive() {
  return queue_.try_pop();
}

PopStatus InProcTransport::receive_for(std::chrono::milliseconds timeout,
                                       std::vector<std::uint8_t>* out) {
  return queue_.pop_for(timeout, out);
}

void InProcTransport::close() { queue_.close(); }

bool InProcTransport::closed() const { return queue_.closed(); }

void InProcTransport::set_connection_script(const ConnectionScript* script) {
  std::lock_guard<std::mutex> lock(script_mutex_);
  script_ = script;
  sever_fired_.assign(script != nullptr ? script->severs.size() : 0, false);
}

// --- SocketTransport ----------------------------------------------------------

SocketTransport::SocketTransport(util::Clock* clock, ReconnectPolicy policy) {
  listen_fd_ = session::make_listen_socket(/*port=*/0, &port_, /*backlog=*/1,
                                           /*bind_attempts=*/1, {}, clock);
  // Connect, then accept off the backlog: one thread runs both steps.
  const auto connect_pair = [this] {
    std::pair<session::ConnectionPtr, session::ConnectionPtr> ends;
    const int dialed = session::dial_socket(port_);
    if (dialed < 0) return ends;
    ends.first = std::make_shared<session::Connection>(dialed);
    const int accepted = ::accept(listen_fd_, nullptr, nullptr);
    if (accepted >= 0) {
      ends.second = std::make_shared<session::Connection>(accepted);
    }
    return ends;
  };
  auto [tx, rx] = connect_pair();
  VELA_CHECK_MSG(rx != nullptr, "socket transport: initial connect failed");
  receiver_ = std::make_unique<session::ReceiverHalf>(std::move(rx), nullptr,
                                                      clock, policy);
  sender_ = std::make_unique<session::SenderHalf>(
      std::move(tx),
      [this, connect_pair]() -> session::ConnectionPtr {
        auto [fresh_tx, fresh_rx] = connect_pair();
        const bool handed_over =
            fresh_rx != nullptr && receiver_->adopt(std::move(fresh_rx));
        return handed_over ? fresh_tx : nullptr;
      },
      clock, policy, [this] { receiver_->kill(); });
}

SocketTransport::~SocketTransport() { ::close(listen_fd_); }

bool SocketTransport::send(std::vector<std::uint8_t> frame) {
  return sender_->send(frame);
}

std::optional<std::vector<std::uint8_t>> SocketTransport::receive() {
  std::vector<std::uint8_t> frame;
  if (receiver_->receive(-1, &frame) != PopStatus::kOk) return std::nullopt;
  return frame;
}

std::optional<std::vector<std::uint8_t>> SocketTransport::try_receive() {
  std::vector<std::uint8_t> frame;
  if (receiver_->receive(0, &frame) != PopStatus::kOk) return std::nullopt;
  return frame;
}

PopStatus SocketTransport::receive_for(std::chrono::milliseconds timeout,
                                       std::vector<std::uint8_t>* out) {
  const long ms = static_cast<long>(timeout.count());
  return receiver_->receive(ms < 0 ? 0 : ms, out);
}

// Closing the sending side is the whole close: the receiver drains to the
// goodbye (close-then-drain).
void SocketTransport::close() { sender_->close(); }

bool SocketTransport::closed() const { return sender_->closed(); }

void SocketTransport::set_connection_script(const ConnectionScript* script) {
  sender_->set_connection_script(script);
}

SessionStats SocketTransport::session_stats() const {
  SessionStats stats = sender_->stats();
  stats.duplicates_discarded = receiver_->stats().duplicates_discarded;
  return stats;
}

ReconnectPolicy default_reconnect_policy() {
  ReconnectPolicy policy;
  if (const char* env = std::getenv("VELA_RECONNECT_ATTEMPTS");
      env != nullptr && env[0] != '\0') {
    const long attempts = std::strtol(env, nullptr, 10);
    VELA_CHECK_MSG(attempts >= 1, "VELA_RECONNECT_ATTEMPTS must be >= 1, got '" +
                                      std::string(env) + "'");
    policy.max_attempts = static_cast<int>(attempts);
  }
  return policy;
}

std::unique_ptr<Transport> make_transport(TransportKind kind) {
  if (resolve_transport(kind) == TransportKind::kSocket) {
    return std::make_unique<SocketTransport>(nullptr,
                                             default_reconnect_policy());
  }
  return std::make_unique<InProcTransport>();
}

}  // namespace vela::comm
