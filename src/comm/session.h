// The socket fabric's session layer (DESIGN.md §11, §12): the record codec,
// and the two session halves every socket-backed lane is built from.
//
// Every byte on a socket-backed lane travels inside a session record
// (little-endian):
//
//   kData    := u8 1 | u64 seq | u32 frame_len | u32 crc | frame[frame_len]
//   kAck     := u8 2 | u64 next_expected_seq      (reverse direction)
//   kHello   := u8 3 | u64 next_expected_seq      (resume handshake)
//   kGoodbye := u8 4                              (graceful close)
//   kIdent   := u8 5 | u32 magic | u32 version | u32 rank | u8 lane |
//               u64 capacity | u64 session_id     (peer discovery, §12)
//
// The data record holds the stream's one length and one integrity check:
// `crc` is FNV-1a over the record's other bytes (type, seq, frame_len, then
// the frame), so bytes that cross a process boundary are checked once, here.
//
// A lane is one SenderHalf and one ReceiverHalf at the two ends of a TCP
// connection. The sender numbers frames, keeps every data record until a
// cumulative ack (or a hello) covers it, and replays the rest on a fresh
// connection; the receiver delivers strictly in sequence order, discards
// replayed duplicates, acks, offers kHello(next_expected) on every
// connection it is given, and tells a goodbye (closed) from a bare EOF
// (lost, resume). Neither half knows where connections come from: each takes
// a ConnectionSource that supplies a fresh one after a loss.
//
//   * loopback SocketTransport (transport.h): both halves in one object; the
//     sender's source connects to a private listen socket, accepts, and
//     hands the accepted end to its own receiver half, which writes the
//     hello — all in the sending thread. The receiver has no source: it
//     waits for that hand-over, or for the sender to report the session
//     dead.
//   * RemoteSocketTransport (remote_transport.h): one half per process.
//     The worker's source dials the master and re-identifies with a kIdent
//     record (same session id); the master's source is
//     PeerListener::take_resume.
//
// Connection-level fault scripts (ConnectionScript: sever at a frame/byte
// offset, refuse reconnects, delay accepts) run in the sender half, so they
// act the same on every socket-backed lane.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "comm/transport.h"
#include "util/rng.h"

namespace vela::comm::session {

enum : std::uint8_t {
  kRecData = 1,
  kRecAck = 2,
  kRecHello = 3,
  kRecGoodbye = 4,
  kRecIdent = 5,
};

// "VELA" little-endian; a dialer that opens with anything else is not a
// vela_node and is rejected by the listener without crashing it.
inline constexpr std::uint32_t kIdentMagic = 0x414C4556u;
inline constexpr std::uint32_t kIdentVersion = 1;
// u8 type + u32 magic + u32 version + u32 rank + u8 lane + u64 capacity +
// u64 session_id.
inline constexpr std::size_t kIdentRecordBytes = 30;

// The two lanes of a master↔worker DuplexLink, as announced in kIdent.
enum : std::uint8_t {
  kLaneToWorker = 0,  // master → worker data; the dialing worker receives
  kLaneToMaster = 1,  // worker → master data; the dialing worker sends
};

// Worker identity carried by a kIdent record.
struct PeerIdentity {
  std::uint32_t rank = 0;
  std::uint8_t lane = kLaneToWorker;
  std::uint64_t capacity = 0;    // experts the worker hosts at start
  std::uint64_t session_id = 0;  // stable across reconnects of one process
};

struct Record {
  std::uint8_t type = 0;
  std::uint64_t seq = 0;            // kData/kAck/kHello
  PeerIdentity ident;               // kIdent only
  bool ident_valid = false;         // magic+version checked out
  std::vector<std::uint8_t> frame;  // kData only
};

// Incremental session-record segmenter: feed() raw bytes in arbitrary pieces
// (socket reads never align with record boundaries) and next() yields whole
// records in order. An unknown record type, an oversize frame length or a
// data-record CRC mismatch fails a VELA_CHECK — a corrupt stream cannot be
// resynchronized. Feed from listener-side handshakes instead goes through
// next_lenient(), which reports corruption as a rejection rather than
// aborting the process.
class RecordParser {
 public:
  void feed(const std::uint8_t* data, std::size_t size);
  [[nodiscard]] bool next(Record* out);
  // Like next(), but a corrupt stream sets *corrupt and returns false
  // instead of failing a check (the listener rejects the peer and lives on).
  [[nodiscard]] bool next_lenient(Record* out, bool* corrupt);
  [[nodiscard]] std::size_t buffered_bytes() const { return buffer_.size(); }
  // Moves out any bytes buffered past the last extracted record (a
  // handshake reader hands them to the adopting transport's parser).
  [[nodiscard]] std::vector<std::uint8_t> take_buffered() {
    return std::move(buffer_);
  }

 private:
  // Extracts the next whole record; on a corrupt stream sets *corrupt to the
  // reason and returns false.
  bool parse(Record* out, const char** corrupt);

  std::vector<std::uint8_t> buffer_;
};

[[nodiscard]] std::vector<std::uint8_t> encode_data_record(
    std::uint64_t seq, const std::vector<std::uint8_t>& frame);
[[nodiscard]] std::vector<std::uint8_t> encode_ctrl_record(std::uint8_t type,
                                                           std::uint64_t seq);
[[nodiscard]] std::vector<std::uint8_t> encode_ident_record(
    const PeerIdentity& id);

// --- socket plumbing -----------------------------------------------------------

// Blocking write with EINTR retry; false on a dead peer.
bool write_all(int fd, const std::uint8_t* data, std::size_t size);

// Non-blocking write with a real-time budget: used where the only drainer
// may itself be momentarily stalled (reconnect replay), so a wedged peer
// fails the attempt instead of deadlocking.
bool write_all_timed(int fd, const std::uint8_t* data, std::size_t size,
                     int budget_ms);

// Blocking read of one record with a real-time deadline (handshakes). False
// on EOF, timeout or — in lenient mode — a malformed stream.
bool read_record_blocking(int fd, RecordParser* parser, Record* out,
                          int budget_ms, bool lenient = false);

// Creates a listening TCP socket on 127.0.0.1:`port` with SO_REUSEADDR set.
// `port` 0 binds an ephemeral port; the actually-bound port is written to
// *bound_port either way (reported back to the launcher). A bind collision
// (EADDRINUSE) is retried up to `bind_attempts` times with `retry_delay`
// slept on `clock` between attempts — bounded, on the injected clock, so
// collision behavior is testable in virtual time. Returns the listener fd;
// fails a VELA_CHECK once the attempt budget is exhausted.
int make_listen_socket(std::uint16_t port, std::uint16_t* bound_port,
                       int backlog, int bind_attempts,
                       std::chrono::milliseconds retry_delay,
                       util::Clock* clock);

// Connects to 127.0.0.1:`port` with TCP_NODELAY. Returns -1 on failure.
int dial_socket(std::uint16_t port);

// --- session halves -------------------------------------------------------------

// One TCP connection of a lane. `parser` holds the inbound stream (data and
// goodbye at the receiving end, acks and hellos at the sending end) and
// `eof` marks the peer's side gone; both belong to the owning half's
// thread. The fd closes with the last reference.
struct Connection {
  explicit Connection(int fd_in,
                      const std::vector<std::uint8_t>& leftover = {});
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Shuts both directions down without a goodbye: what a killed peer looks
  // like, and what wakes a thread polling on the fd.
  void cut() const;

  const int fd;
  RecordParser parser;
  bool eof = false;
};
using ConnectionPtr = std::shared_ptr<Connection>;

// One reconnect attempt after a loss: a fresh connection, or nullptr.
using ConnectionSource = std::function<ConnectionPtr()>;

// Sleep before reconnect attempt `attempt` (>= 2): min(base · mult^(attempt-2),
// max) plus a jitter in [0, base] drawn from `jitter`.
[[nodiscard]] std::chrono::milliseconds backoff_delay(
    const ReconnectPolicy& policy, int attempt, Rng* jitter);

// What both halves share: the reconnect schedule, the closed/dead flags and
// the counters.
class SessionHalf {
 public:
  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] SessionStats stats() const;

 protected:
  SessionHalf(ConnectionSource source, util::Clock* clock,
              ReconnectPolicy policy);
  ~SessionHalf() = default;

  // Runs up to policy.max_attempts calls of `attempt`, sleeping the backoff
  // on the clock before every retry; true (one more reconnect counted) as
  // soon as one succeeds. Once the budget is spent the session is dead:
  // the half reports closed and the layers above see the peer as gone.
  bool reconnect(const std::function<bool()>& attempt);
  void count(std::uint64_t SessionStats::*field, std::uint64_t n = 1);

  const ConnectionSource source_;
  util::Clock* const clock_;
  std::atomic<bool> closed_{false};
  std::atomic<bool> dead_{false};

 private:
  const ReconnectPolicy policy_;
  Rng jitter_;  // only reconnect() draws, under the owning half's op lock
  mutable std::mutex stats_mutex_;
  SessionStats stats_;  // guarded by stats_mutex_
};

class SenderHalf final : public SessionHalf {
 public:
  // `on_dead` (optional) runs once the reconnect budget is exhausted.
  SenderHalf(ConnectionPtr conn, ConnectionSource source, util::Clock* clock,
             ReconnectPolicy policy, std::function<void()> on_dead = {});

  // True once the frame is on the wire in order, after a resume if the
  // connection broke; false if the half is closed or the session died.
  bool send(const std::vector<std::uint8_t>& frame);
  // Goodbye after the last complete record, then FIN.
  void close();
  void set_connection_script(const ConnectionScript* script);

 private:
  void drain_acks();
  void prune_replay(std::uint64_t next_expected);
  const ConnectionScript::Sever* take_sever(std::uint64_t seq);
  bool resume();
  bool replay_onto(Connection& fresh);

  std::mutex mutex_;  // serializes callers; guards everything below
  ConnectionPtr conn_;
  std::uint64_t next_seq_ = 0;
  // Encoded data records not yet covered by an ack or hello.
  std::deque<std::pair<std::uint64_t, std::vector<std::uint8_t>>> replay_;
  const ConnectionScript* script_ = nullptr;
  std::vector<bool> sever_fired_;
  int refused_ = 0;
  const std::function<void()> on_dead_;
};

class ReceiverHalf final : public SessionHalf {
 public:
  // Offers hello(0) on `conn` and starts receiving from it. An empty
  // `source` means the receiver never reconnects by itself: after a loss it
  // waits for adopt() or kill() from the sender in the same process.
  ReceiverHalf(ConnectionPtr conn, ConnectionSource source,
               util::Clock* clock, ReconnectPolicy policy);

  // Offers hello(next_expected) on `fresh` and, if that was written, makes
  // it the live connection. Safe from any thread.
  bool adopt(ConnectionPtr fresh);
  // The next in-order frame; `timeout_ms` < 0 blocks, 0 polls.
  PopStatus receive(long timeout_ms, std::vector<std::uint8_t>* out);
  // Local end of stream.
  void close();
  // The session is dead (the sender in the same process ran out of
  // reconnects): receive() reports closed once the parsed records run out.
  void kill();

 private:
  ConnectionPtr snapshot() const;
  void publish(ConnectionPtr conn);
  bool resume(const ConnectionPtr& lost);
  void ack(const Connection& conn, std::uint64_t next_expected);

  std::mutex op_mutex_;  // serializes receive callers
  mutable std::mutex conn_mutex_;
  std::condition_variable conn_cv_;
  ConnectionPtr conn_;  // guarded by conn_mutex_
  std::atomic<std::uint64_t> next_expected_{0};
  bool goodbye_received_ = false;  // guarded by op_mutex_
};

}  // namespace vela::comm::session
