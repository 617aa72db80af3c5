// Byte-stream transport under the comm fabric (DESIGN.md §10, §11).
//
// A Transport moves complete frames (frame.h: one encoded Message body each)
// from one endpoint to another. It knows nothing about Messages, meters,
// ledgers or message-level fault injection — all of that lives one layer
// up in comm::Endpoint, which is what makes the backends interchangeable:
// the same fine-tune must be bit-exact (losses, weights, TrafficMeter
// counts) under every TransportKind.
//
// Backends:
//
//   * InProcTransport — a BlockingQueue of frame buffers; exactly the
//     blocking-queue semantics the runtime has always had. Nothing is
//     hashed on this path: the buffer never leaves the process.
//   * SocketTransport — a localhost TCP connection with session resume: a
//     session::SenderHalf and a session::ReceiverHalf (comm/session.h)
//     over a private listen socket. A severed connection is re-established
//     with bounded, deterministically jittered backoff, and the hello
//     handshake replays every unacknowledged frame, so a cut cable loses
//     nothing. Each frame rides a session data record that carries its
//     length and its CRC; a corrupt byte stream fails a VELA_CHECK. Only
//     an exhausted reconnect budget closes the transport, which the layers
//     above translate into worker death.
//   * RemoteSocketTransport (comm/remote_transport.h) — one of those halves
//     in each of two processes (DESIGN.md §12).
//
// Connection-level fault scripting: a ConnectionScript (installed by the
// Endpoint from the FaultInjector's plan) describes faults *below* the
// frame layer — severing the TCP stream mid-record at an exact byte
// offset, refusing the next N reconnect attempts, delaying accepts. On the
// socket backends the sender half runs them through the real resume
// machinery; on the in-proc backend (which has no byte stream or
// reconnect) a scripted sever closes the queue permanently, so a "sever +
// refuse-all-reconnects" script kills a link identically on every backend
// and degrade tests are backend-invariant.
//
// Selection: VELA_TRANSPORT=inproc|socket (config fields default to
// kDefault, which defers to the environment; unset means inproc).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "util/blocking_queue.h"
#include "util/clock.h"

namespace vela::comm {

enum class TransportKind : std::uint8_t {
  kDefault,  // resolve from VELA_TRANSPORT (unset → kInProc)
  kInProc,
  kSocket,
};

// Resolves kDefault against the VELA_TRANSPORT environment variable
// (read per call, so tests can flip it); other kinds pass through.
// Unrecognized values fail a VELA_CHECK rather than silently degrading.
[[nodiscard]] TransportKind resolve_transport(TransportKind kind);

// "inproc" / "socket" (resolves kDefault first).
[[nodiscard]] const char* transport_kind_name(TransportKind kind);

// Parses a --transport flag value: "inproc", "socket", or "default"/"" (=
// follow VELA_TRANSPORT). Anything else fails a VELA_CHECK.
[[nodiscard]] TransportKind transport_kind_from_name(const std::string& name);

// --- connection-level fault scripting (DESIGN.md §11) -----------------------

// Scripted faults below the frame layer. Deterministic by construction:
// sever points are keyed by the send-order index of the data frame (each
// lane has a single logical sender order), and reconnect refusals count
// attempts, not time.
struct ConnectionScript {
  struct Sever {
    // 0-based index of the send() call during which the connection is cut.
    std::uint64_t frame_index = 0;
    // Bytes of that frame's session record that make it onto the wire
    // before the cut. 0 = cut before any byte; >= record size = the whole
    // record arrives and the cut lands between records (the replay-dedupe
    // case). Ignored by the in-proc backend (no byte stream).
    std::size_t byte_offset = 0;
  };
  std::vector<Sever> severs;  // each fires once
  // Number of reconnect attempts refused (connection reset at accept)
  // before one is allowed to succeed. Set it >= the reconnect budget to
  // make a sever permanent.
  int refuse_reconnects = 0;
  // Stall applied before each successful re-accept (a slow peer).
  std::chrono::milliseconds accept_delay{0};
};

// Reconnect schedule for socket session resume. Attempt 1 is immediate;
// attempt k >= 2 first sleeps min(base * multiplier^(k-2), max) plus a
// deterministic jitter in [0, base] drawn from `jitter_seed`. After
// `max_attempts` failures the session is declared dead and the transport
// closes.
struct ReconnectPolicy {
  std::chrono::milliseconds backoff_base{5};
  std::chrono::milliseconds backoff_max{250};
  double backoff_multiplier = 2.0;
  int max_attempts = 8;
  std::uint64_t jitter_seed = 0x5eedf00dULL;
};

// The policy a socket lane uses unless one is passed in: the defaults
// above, with max_attempts capped by VELA_RECONNECT_ATTEMPTS when set
// (>= 1, read per call).
[[nodiscard]] ReconnectPolicy default_reconnect_policy();

// Observability counters for the session layer (socket backends).
struct SessionStats {
  std::uint64_t frames_sent = 0;        // data records first-transmitted
  std::uint64_t reconnects = 0;         // successful session resumes
  std::uint64_t refused_connects = 0;   // attempts refused by script
  std::uint64_t replayed_frames = 0;    // data records re-sent on resume
  std::uint64_t replayed_bytes = 0;     // physical bytes of those records
  std::uint64_t duplicates_discarded = 0;  // receiver-side seq dedupe
  std::uint64_t severs_injected = 0;    // scripted cuts that fired
};

// Session record overhead on the socket stream: u8 record type + u64
// sequence number + u32 frame length + u32 CRC. The torn-connection property
// test sweeps every byte offset of (overhead + frame size).
inline constexpr std::size_t kSessionDataOverheadBytes = 17;

// Unidirectional frame pipe. Thread-safe: the EP runtime's shared inboxes
// have many writers and the fabric makes no single-reader promise either.
// Semantics mirror BlockingQueue: send() after close() returns false,
// receivers drain buffered frames after close() before seeing end-of-stream.
class Transport {
 public:
  virtual ~Transport() = default;

  // Queues one complete frame; false if the transport is closed (the frame
  // is dropped). A true return means the frame was accepted in order and
  // intact — partial writes and transparent session resumes never surface
  // to the caller.
  virtual bool send(std::vector<std::uint8_t> frame) = 0;

  // Blocks for the next frame; nullopt once closed and drained.
  virtual std::optional<std::vector<std::uint8_t>> receive() = 0;
  virtual std::optional<std::vector<std::uint8_t>> try_receive() = 0;
  // Timed receive: kOk fills *out, kTimeout means nothing arrived, kClosed
  // means closed and drained.
  virtual PopStatus receive_for(std::chrono::milliseconds timeout,
                                std::vector<std::uint8_t>* out) = 0;

  virtual void close() = 0;
  [[nodiscard]] virtual bool closed() const = 0;

  [[nodiscard]] virtual const char* name() const = 0;

  // Installs a connection-fault script (nullptr clears). Non-owning: the
  // script must outlive the transport, same contract as the FaultInjector
  // it is derived from. Default: ignored (backends without connection
  // faults).
  virtual void set_connection_script(const ConnectionScript* script) {
    (void)script;
  }
};

// Factory — the only way the layers above comm construct a transport
// (vela_lint's direct-transport rule enforces this).
[[nodiscard]] std::unique_ptr<Transport> make_transport(TransportKind kind);

// In-process backend: frames ride a BlockingQueue, preserving the original
// channel semantics bit for bit. A scripted sever closes the queue
// permanently — in-proc has no byte stream to resume.
class InProcTransport final : public Transport {
 public:
  bool send(std::vector<std::uint8_t> frame) override;
  std::optional<std::vector<std::uint8_t>> receive() override;
  std::optional<std::vector<std::uint8_t>> try_receive() override;
  PopStatus receive_for(std::chrono::milliseconds timeout,
                        std::vector<std::uint8_t>* out) override;
  void close() override;
  [[nodiscard]] bool closed() const override;
  [[nodiscard]] const char* name() const override { return "inproc"; }
  void set_connection_script(const ConnectionScript* script) override;

 private:
  BlockingQueue<std::vector<std::uint8_t>> queue_;
  std::mutex script_mutex_;
  const ConnectionScript* script_ = nullptr;  // guarded by script_mutex_
  std::uint64_t frames_sent_ = 0;             // guarded by script_mutex_
  std::vector<bool> sever_fired_;             // guarded by script_mutex_
};

namespace session {
class SenderHalf;
class ReceiverHalf;
}  // namespace session

// Loopback socket backend: both session halves of one lane in this object,
// over a private 127.0.0.1 listen socket retained for the life of the
// transport. The constructor connects and accepts the first connection; on
// a loss the sender connects and accepts again and hands the accepted end
// to its own receiver half, in the sending thread.
class SocketTransport final : public Transport {
 public:
  // `clock` drives backoff sleeps and defaults to the system clock;
  // `policy` bounds the reconnect schedule. Both are test injection points.
  explicit SocketTransport(util::Clock* clock = nullptr,
                           ReconnectPolicy policy = {});
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

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
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::unique_ptr<session::ReceiverHalf> receiver_;
  std::unique_ptr<session::SenderHalf> sender_;
};

}  // namespace vela::comm
