// Session-resume tests for the socket backends (`ctest -L degrade`,
// DESIGN.md §11, §12).
//
// The contract under test: a severed TCP connection loses no frames and
// duplicates none — the transport reconnects under a bounded, deterministic
// backoff schedule, replays every unacknowledged session record, and the
// receiver's sequence numbers dedupe anything the cut left ambiguous. The
// property sweep tears the connection at EVERY byte offset of a session
// record (0 .. kSessionDataOverheadBytes + frame size) and requires
// exactly-once in-order delivery at each offset. The conservation audit
// proves replayed bytes are charged exactly once at the accounting boundary.
//
// The torn-connection, refusal, backoff, exhausted-budget and accept-delay
// cases are templates over the lane type and run on both socket backends:
// SessionResume.* on the loopback SocketTransport, RemoteSessionResume.* on
// a RemotePair (a cross-process lane built in one process, below).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/endpoint.h"
#include "comm/fault_injector.h"
#include "comm/message.h"
#include "comm/peer_listener.h"
#include "comm/remote_transport.h"
#include "comm/session.h"
#include "comm/transport.h"
#include "tensor/tensor.h"
#include "util/audit.h"
#include "util/clock.h"

namespace vela {
namespace {

using std::chrono::milliseconds;

std::vector<std::uint8_t> test_frame(std::size_t len, std::uint8_t tag) {
  std::vector<std::uint8_t> f(len);
  for (std::size_t i = 0; i < len; ++i) {
    f[i] = static_cast<std::uint8_t>(tag * 31u + i * 7u + 1u);
  }
  return f;
}

// A worker→master lane in one process: the worker's sender is a real
// RemoteSocketTransport::dial over a PeerListener; the master's receiver is
// the half RemoteSocketTransport::adopt builds (take_resume as its source).
// A resume pump thread hands each re-identified connection straight to that
// receiver half, which writes the hello, so the sender resumes while the
// test thread is still sending — as on the loopback, where the sender hands
// the accepted end over itself. (A thread draining the receiver instead
// would deliver frame 0 before the cut and change the replay counts the
// tests pin.) The injected clock times the sender, whose schedule the tests
// pin; the receiver uses the system clock.
class RemotePair {
 public:
  RemotePair(util::Clock* clock, comm::ReconnectPolicy policy)
      : listener_(comm::make_peer_listener()) {
    comm::session::PeerIdentity id;
    id.lane = comm::session::kLaneToMaster;
    id.session_id = 1;
    sender_ = comm::RemoteSocketTransport::dial(
        listener_->bound_port(), comm::RemoteSocketTransport::Role::kSender,
        id, clock, policy);
    comm::AcceptedPeer peer =
        listener_->take_peer(id.rank, id.lane, milliseconds(5000));
    EXPECT_TRUE(peer.valid());
    const comm::session::ConnectionSource take_resume =
        [this, id]() -> comm::session::ConnectionPtr {
      comm::AcceptedPeer again = listener_->take_resume(
          id.rank, id.lane, id.session_id, milliseconds(20));
      if (!again.valid()) return nullptr;
      return std::make_shared<comm::session::Connection>(again.fd,
                                                         again.leftover);
    };
    receiver_ = std::make_unique<comm::session::ReceiverHalf>(
        std::make_shared<comm::session::Connection>(peer.fd, peer.leftover),
        take_resume, nullptr, policy);
    pump_ = std::thread([this, take_resume] {
      while (!stop_.load()) {
        if (auto fresh = take_resume()) (void)receiver_->adopt(fresh);
      }
    });
  }

  ~RemotePair() {
    stop_.store(true);
    pump_.join();
  }

  bool send(std::vector<std::uint8_t> frame) {
    return sender_->send(std::move(frame));
  }
  std::optional<std::vector<std::uint8_t>> receive() {
    std::vector<std::uint8_t> frame;
    if (receiver_->receive(-1, &frame) != PopStatus::kOk) return std::nullopt;
    return frame;
  }
  void close() { sender_->close(); }
  bool closed() const { return sender_->closed(); }
  void set_connection_script(const comm::ConnectionScript* script) {
    sender_->set_connection_script(script);
  }
  comm::SessionStats session_stats() const {
    comm::SessionStats stats = sender_->session_stats();
    stats.duplicates_discarded = receiver_->stats().duplicates_discarded;
    return stats;
  }

 private:
  std::unique_ptr<comm::PeerListener> listener_;
  std::unique_ptr<comm::RemoteSocketTransport> sender_;
  std::unique_ptr<comm::session::ReceiverHalf> receiver_;
  std::atomic<bool> stop_{false};
  std::thread pump_;
};

// Declares TEST(SessionResume, name) on the loopback backend and
// TEST(RemoteSessionResume, name) on RemotePair, both running body<Lane>().
#define SESSION_RESUME_ON_BOTH_BACKENDS(name, body)                  \
  TEST(SessionResume, name) { body<comm::SocketTransport>(); }       \
  TEST(RemoteSessionResume, name) { body<RemotePair>(); }

// --- torn-connection property sweep -----------------------------------------

template <class Lane>
void torn_connection_at_every_byte_offset() {
  constexpr std::size_t kFrameLen = 32;
  const std::size_t record_len = comm::kSessionDataOverheadBytes + kFrameLen;
  // Offset 0 cuts before any byte; record_len cuts between records (the
  // whole severed record made it onto the wire).
  for (std::size_t cut = 0; cut <= record_len; ++cut) {
    SCOPED_TRACE("byte_offset=" + std::to_string(cut));
    util::FakeClock clock;
    comm::ConnectionScript script;
    script.severs.push_back({1, cut});
    Lane transport(&clock, comm::ReconnectPolicy{});
    transport.set_connection_script(&script);

    for (std::uint8_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(transport.send(test_frame(kFrameLen, i)));
    }
    for (std::uint8_t i = 0; i < 3; ++i) {
      const auto got = transport.receive();
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, test_frame(kFrameLen, i));
    }

    const comm::SessionStats stats = transport.session_stats();
    EXPECT_EQ(stats.frames_sent, 3u);
    EXPECT_EQ(stats.severs_injected, 1u);
    EXPECT_EQ(stats.reconnects, 1u);
    // Nothing was acked before the cut, so resume replays frames 0 and 1.
    EXPECT_EQ(stats.replayed_frames, 2u);
    EXPECT_EQ(stats.replayed_bytes, 2u * record_len);
    transport.close();
  }
}
SESSION_RESUME_ON_BOTH_BACKENDS(TornConnectionAtEveryByteOffsetLosesNothing,
                                torn_connection_at_every_byte_offset)

TEST(SessionResume, HelloHandshakePrunesDeliveredFrames) {
  util::FakeClock clock;
  comm::ConnectionScript script;
  script.severs.push_back({1, 5});
  comm::SocketTransport transport(&clock, comm::ReconnectPolicy{});
  transport.set_connection_script(&script);

  // Frame 0 round-trips before the sever: the receiver's next-expected
  // sequence number (carried by the resume hello) is authoritative, so the
  // replay after the cut cannot contain more than frames {0, 1} and the
  // receiver dedupes any overlap.
  ASSERT_TRUE(transport.send(test_frame(16, 0)));
  auto got = transport.receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, test_frame(16, 0));

  ASSERT_TRUE(transport.send(test_frame(16, 1)));  // severed mid-record
  ASSERT_TRUE(transport.send(test_frame(16, 2)));
  for (std::uint8_t i = 1; i <= 2; ++i) {
    got = transport.receive();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, test_frame(16, i));
  }

  const comm::SessionStats stats = transport.session_stats();
  EXPECT_EQ(stats.reconnects, 1u);
  EXPECT_GE(stats.replayed_frames, 1u);
  EXPECT_LE(stats.replayed_frames, 2u);
  // Exactly-once held above; any replayed copy of frame 0 was discarded.
  EXPECT_EQ(stats.duplicates_discarded, stats.replayed_frames - 1u);
  transport.close();
}

TEST(SessionResume, ConcurrentReceiverSurvivesRepeatedSevers) {
  constexpr int kFrames = 60;
  util::FakeClock clock;
  comm::ConnectionScript script;
  // Full-record cuts while the receiver is actively draining: the replay
  // may race a delivery that already happened, which is exactly what the
  // receiver-side sequence dedupe is for. A full-record cut therefore need
  // not replay anything — when the receiver has parsed the record before
  // the fresh connection's hello, the hello already covers it. Only the
  // mid-record cut at frame 25 must replay: the receiver cannot hold a
  // record of which 7 bytes arrived.
  const std::size_t record_len = comm::kSessionDataOverheadBytes + 24;
  script.severs.push_back({10, record_len});
  script.severs.push_back({25, 7});
  script.severs.push_back({40, record_len});
  comm::SocketTransport transport(&clock, comm::ReconnectPolicy{});
  transport.set_connection_script(&script);

  std::vector<std::vector<std::uint8_t>> received;
  std::thread rx([&transport, &received] {
    while (auto f = transport.receive()) received.push_back(std::move(*f));
  });
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(transport.send(test_frame(24, static_cast<std::uint8_t>(i))));
  }
  transport.close();
  rx.join();

  // Exactly once, in order — no matter how deliveries interleaved with the
  // three resumes.
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(received[i], test_frame(24, static_cast<std::uint8_t>(i)))
        << "frame " << i;
  }
  const comm::SessionStats stats = transport.session_stats();
  EXPECT_EQ(stats.severs_injected, 3u);
  EXPECT_EQ(stats.reconnects, 3u);
  EXPECT_GE(stats.replayed_frames, 1u);
}

// --- reconnect schedule ------------------------------------------------------

template <class Lane>
void refusals_short_of_the_budget_recover() {
  util::FakeClock clock;
  comm::ConnectionScript script;
  script.severs.push_back({1, 0});
  script.refuse_reconnects = 3;
  comm::ReconnectPolicy policy;  // base 5ms, ×2, max 250ms, 8 attempts
  Lane transport(&clock, policy);
  transport.set_connection_script(&script);

  for (std::uint8_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(transport.send(test_frame(16, i)));
  }
  for (std::uint8_t i = 0; i < 3; ++i) {
    const auto got = transport.receive();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, test_frame(16, i));
  }

  const comm::SessionStats stats = transport.session_stats();
  EXPECT_EQ(stats.refused_connects, 3u);
  EXPECT_EQ(stats.reconnects, 1u);
  // Attempt 1 is immediate; attempts 2–4 back off 5, 10, 20 ms plus a
  // seeded jitter in [0, base] each — all in virtual time.
  EXPECT_EQ(clock.sleep_calls(), 3u);
  EXPECT_GE(clock.total_slept(), milliseconds(35));
  EXPECT_LE(clock.total_slept(), milliseconds(50));
  transport.close();
}
SESSION_RESUME_ON_BOTH_BACKENDS(RefusalsShortOfTheBudgetRecover,
                                refusals_short_of_the_budget_recover)

template <class Lane>
void backoff_schedule_is_deterministic_and_bounded() {
  const auto run = [](comm::ReconnectPolicy policy) {
    util::FakeClock clock;
    comm::ConnectionScript script;
    script.severs.push_back({0, 0});
    script.refuse_reconnects = 6;
    Lane transport(&clock, policy);
    transport.set_connection_script(&script);
    EXPECT_TRUE(transport.send(test_frame(8, 1)));
    const auto got = transport.receive();
    EXPECT_TRUE(got.has_value());
    transport.close();
    return clock.total_slept();
  };

  comm::ReconnectPolicy policy;
  const auto first = run(policy);
  const auto second = run(policy);
  // Same seed, same schedule: the jitter is deterministic by construction.
  EXPECT_EQ(first, second);
  // Attempts 2–7 back off 5, 10, 20, 40, 80, 160 ms (+ jitter ≤ 5 each).
  EXPECT_GE(first, milliseconds(315));
  EXPECT_LE(first, milliseconds(345));

  // A tight cap truncates the exponential tail.
  policy.backoff_max = milliseconds(20);
  const auto capped = run(policy);
  EXPECT_GE(capped, milliseconds(5 + 10 + 20 * 4));
  EXPECT_LE(capped, milliseconds(5 + 10 + 20 * 4 + 6 * 5));
}
SESSION_RESUME_ON_BOTH_BACKENDS(BackoffScheduleIsDeterministicAndBounded,
                                backoff_schedule_is_deterministic_and_bounded)

// Every socket lane that is not handed a policy — make_transport and both
// vela_node roles — builds it here.
TEST(SessionResume, ReconnectAttemptsEnvCapsTheDefaultPolicy) {
  ::setenv("VELA_RECONNECT_ATTEMPTS", "3", 1);
  EXPECT_EQ(comm::default_reconnect_policy().max_attempts, 3);
  ::unsetenv("VELA_RECONNECT_ATTEMPTS");
  EXPECT_EQ(comm::default_reconnect_policy().max_attempts,
            comm::ReconnectPolicy{}.max_attempts);
}

template <class Lane>
void exhausted_reconnect_budget_kills_the_session() {
  util::FakeClock clock;
  comm::ConnectionScript script;
  script.severs.push_back({1, 0});
  script.refuse_reconnects = 99;  // >= budget: the sever is permanent
  comm::ReconnectPolicy policy;
  policy.max_attempts = 3;
  Lane transport(&clock, policy);
  transport.set_connection_script(&script);

  EXPECT_TRUE(transport.send(test_frame(16, 0)));
  EXPECT_FALSE(transport.send(test_frame(16, 1)));  // budget exhausted here
  EXPECT_TRUE(transport.closed());
  EXPECT_FALSE(transport.send(test_frame(16, 2)));

  // The receiver must terminate (frames the cut stranded may be lost; the
  // layers above turn this into worker death and re-placement).
  std::size_t drained = 0;
  while (transport.receive().has_value()) ++drained;
  EXPECT_LE(drained, 1u);

  const comm::SessionStats stats = transport.session_stats();
  EXPECT_EQ(stats.refused_connects, 3u);
  EXPECT_EQ(stats.reconnects, 0u);
  EXPECT_EQ(stats.severs_injected, 1u);
}
SESSION_RESUME_ON_BOTH_BACKENDS(ExhaustedReconnectBudgetKillsTheSession,
                                exhausted_reconnect_budget_kills_the_session)

template <class Lane>
void accept_delay_is_charged_to_the_injected_clock() {
  util::FakeClock clock;
  comm::ConnectionScript script;
  script.severs.push_back({1, 3});
  script.accept_delay = milliseconds(75);
  Lane transport(&clock, comm::ReconnectPolicy{});
  transport.set_connection_script(&script);

  for (std::uint8_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(transport.send(test_frame(16, i)));
  }
  for (std::uint8_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(transport.receive().has_value());
  }
  // Attempt 1 carries no backoff sleep, so the only charge is the scripted
  // accept stall — in virtual time, not wall time.
  EXPECT_EQ(clock.total_slept(), milliseconds(75));
  EXPECT_EQ(clock.sleep_calls(), 1u);
  transport.close();
}
SESSION_RESUME_ON_BOTH_BACKENDS(AcceptDelayIsChargedToTheInjectedClock,
                                accept_delay_is_charged_to_the_injected_clock)

// --- backend invariance at the transport layer -------------------------------

TEST(SessionResume, InProcScriptedSeverClosesTheQueuePermanently) {
  comm::InProcTransport transport;
  comm::ConnectionScript script;
  script.severs.push_back({2, 0});
  script.refuse_reconnects = 99;
  transport.set_connection_script(&script);

  EXPECT_TRUE(transport.send(test_frame(16, 0)));
  EXPECT_TRUE(transport.send(test_frame(16, 1)));
  EXPECT_FALSE(transport.send(test_frame(16, 2)));  // sever: permanent close
  EXPECT_TRUE(transport.closed());
  EXPECT_FALSE(transport.send(test_frame(16, 3)));

  // Close-then-drain: frames accepted before the sever are delivered.
  auto got = transport.receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, test_frame(16, 0));
  got = transport.receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, test_frame(16, 1));
  EXPECT_FALSE(transport.receive().has_value());
}

TEST(SessionResume, SeverPlusRefuseAllKillsTheLinkOnBothBackends) {
  // The backend-invariant "worker killed" signal: sends before the sever
  // succeed, the severed send and everything after it fail, and the
  // transport reports closed. (What the receiver can still drain differs —
  // in-proc keeps its queue, TCP loses kernel-buffered bytes with the
  // connection — which is why the degrade path above this layer only
  // relies on the death signal, not on drained bytes.)
  util::FakeClock clock;
  comm::ReconnectPolicy policy;
  policy.max_attempts = 2;
  comm::ConnectionScript script;
  script.severs.push_back({1, 0});
  script.refuse_reconnects = 99;

  comm::InProcTransport inproc;
  comm::SocketTransport socket(&clock, policy);
  for (comm::Transport* t :
       std::vector<comm::Transport*>{&inproc, &socket}) {
    SCOPED_TRACE(t->name());
    t->set_connection_script(&script);
    EXPECT_TRUE(t->send(test_frame(16, 0)));
    EXPECT_FALSE(t->send(test_frame(16, 1)));
    EXPECT_FALSE(t->send(test_frame(16, 2)));
    EXPECT_TRUE(t->closed());
    std::size_t drained = 0;
    while (t->receive().has_value()) ++drained;
    EXPECT_LE(drained, 1u);
  }
}

// --- conservation audit ------------------------------------------------------

TEST(SessionResume, ReplayedBytesAreChargedExactlyOnce) {
  // The ledger accounts at the Endpoint (message) boundary; session replays
  // happen below it. With replays > 0 and the balance intact, the replayed
  // bytes were charged exactly once: the receiver's dedupe keeps a replayed
  // frame from ever reaching `delivered` twice.
  audit::set_enabled_for_testing(true);
  audit::ConservationLedger::instance().reset_for_testing();
  std::vector<std::pair<std::string, std::string>> violations;
  audit::set_violation_handler(
      [&violations](const std::string& category, const std::string& detail) {
        violations.emplace_back(category, detail);
      });
  {
    comm::FaultPlan plan;
    comm::ConnectionFaultRule rule;
    rule.link = 0;
    rule.dir = comm::LinkDir::kToWorker;
    rule.script.severs.push_back({2, 7});
    plan.connection_rules.push_back(rule);
    comm::FaultInjector injector(plan);

    comm::DuplexLink link(comm::TransportKind::kSocket, 0, 1, nullptr);
    link.set_fault_injector(&injector, 0);
    for (std::uint64_t i = 0; i < 6; ++i) {
      comm::Message m;
      m.type = comm::MessageType::kExpertForward;
      m.request_id = i;
      m.payload = Tensor::ones({2, 4});
      ASSERT_TRUE(link.to_worker.send(std::move(m)));
    }
    for (std::uint64_t i = 0; i < 6; ++i) {
      const auto got = link.to_worker.receive();
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->request_id, i);
    }
    const auto snap = audit::ConservationLedger::instance().snapshot();
    EXPECT_GE(snap.session_replays, 1u);
    EXPECT_GT(snap.session_replay_bytes, 0u);
    EXPECT_TRUE(snap.balanced());
    EXPECT_EQ(snap.posted, snap.delivered);  // everything arrived, no drops
    audit::ConservationLedger::instance().check("session-resume-test");
    link.close();
  }
  audit::set_violation_handler(nullptr);
  audit::ConservationLedger::instance().reset_for_testing();
  audit::set_enabled_for_testing(false);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " audit violation(s), first: "
      << violations.front().first << ": " << violations.front().second;
}

}  // namespace
}  // namespace vela
