#include "comm/session.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "comm/frame.h"
#include "util/audit.h"
#include "util/check.h"
#include "util/fnv1a.h"
#include "util/logging.h"

namespace vela::comm::session {

namespace {

// Handshake and replay budgets: real-time bounds on a loopback round trip,
// not protocol time.
constexpr int kHandshakeBudgetMs = 2000;
constexpr int kReplayBudgetMs = 5000;

void put_u32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

void RecordParser::feed(const std::uint8_t* data, std::size_t size) {
  compact();
  buffer_.insert(buffer_.end(), data, data + size);
}

std::vector<std::uint8_t> RecordParser::take_buffered() {
  compact();
  return std::move(buffer_);
}

void RecordParser::compact() {
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
  head_ = 0;
}

namespace {

// Header length for a record type; 0 for an unknown type.
std::size_t header_bytes_for(std::uint8_t type) {
  switch (type) {
    case kRecData:
      return kSessionDataOverheadBytes;
    case kRecAck:
    case kRecHello:
      return 1 + sizeof(std::uint64_t);
    case kRecGoodbye:
      return 1;
    case kRecIdent:
      return kIdentRecordBytes;
    default:
      return 0;
  }
}

// The data record's CRC: FNV-1a over every other byte of the record — the
// type/seq/length head that precedes the CRC slot, then the frame.
constexpr std::size_t kDataHeadBytes =
    1 + sizeof(std::uint64_t) + sizeof(std::uint32_t);
static_assert(kDataHeadBytes + sizeof(std::uint32_t) ==
              kSessionDataOverheadBytes);

std::uint32_t data_record_crc(const std::uint8_t* head,
                              const std::uint8_t* frame, std::size_t len) {
  return util::fnv1a(frame, len, util::fnv1a(head, kDataHeadBytes));
}

}  // namespace

bool RecordParser::next(Record* out) {
  const char* corrupt = nullptr;
  const bool got = parse(out, &corrupt);
  VELA_CHECK_MSG(corrupt == nullptr, "session stream corrupted: " << corrupt);
  return got;
}

bool RecordParser::next_lenient(Record* out, bool* corrupt) {
  const char* why = nullptr;
  const bool got = parse(out, &why);
  *corrupt = why != nullptr;
  return got;
}

bool RecordParser::parse(Record* out, const char** corrupt) {
  const std::uint8_t* rec = buffer_.data() + head_;
  const std::size_t avail = buffer_.size() - head_;
  if (avail == 0) return false;
  const std::uint8_t type = rec[0];
  const std::size_t header = header_bytes_for(type);
  if (header == 0) {
    *corrupt = "unknown record type";
    return false;
  }
  if (avail < header) return false;
  std::size_t total = header;
  if (type == kRecData) {
    const std::uint32_t len = get_u32(rec + 9);
    if (len > kMaxFrameBodyBytes) {
      *corrupt = "oversize data record length";
      return false;
    }
    total += len;
    if (avail < total) return false;
    if (get_u32(rec + kDataHeadBytes) !=
        data_record_crc(rec, rec + header, len)) {
      *corrupt = "data record CRC mismatch";
      return false;
    }
  }
  out->type = type;
  out->seq = 0;
  out->ident_valid = false;
  out->frame.clear();
  switch (type) {
    case kRecData:
      out->seq = get_u64(rec + 1);
      out->frame.assign(rec + header, rec + total);
      break;
    case kRecAck:
    case kRecHello:
      out->seq = get_u64(rec + 1);
      break;
    case kRecIdent: {
      const std::uint8_t* p = rec + 1;
      const std::uint32_t magic = get_u32(p);
      const std::uint32_t version = get_u32(p + 4);
      out->ident.rank = get_u32(p + 8);
      out->ident.lane = p[12];
      out->ident.capacity = get_u64(p + 13);
      out->ident.session_id = get_u64(p + 21);
      out->ident_valid = magic == kIdentMagic && version == kIdentVersion &&
                         (out->ident.lane == kLaneToWorker ||
                          out->ident.lane == kLaneToMaster);
      break;
    }
    case kRecGoodbye:
      break;  // goodbye carries nothing beyond the type byte
  }
  head_ += total;
  return true;
}

std::vector<std::uint8_t> encode_data_record(
    std::uint64_t seq, const std::vector<std::uint8_t>& frame) {
  VELA_CHECK_MSG(frame.size() <= kMaxFrameBodyBytes,
                 "frame too large for one session record");
  std::vector<std::uint8_t> rec;
  rec.reserve(kSessionDataOverheadBytes + frame.size());
  rec.push_back(kRecData);
  put_u64(&rec, seq);
  put_u32(&rec, static_cast<std::uint32_t>(frame.size()));
  put_u32(&rec, data_record_crc(rec.data(), frame.data(), frame.size()));
  rec.insert(rec.end(), frame.begin(), frame.end());
  return rec;
}

std::vector<std::uint8_t> encode_ctrl_record(std::uint8_t type,
                                             std::uint64_t seq) {
  std::vector<std::uint8_t> rec;
  if (type == kRecGoodbye) {
    rec.push_back(kRecGoodbye);
    return rec;
  }
  rec.reserve(1 + sizeof(std::uint64_t));
  rec.push_back(type);
  put_u64(&rec, seq);
  return rec;
}

std::vector<std::uint8_t> encode_ident_record(const PeerIdentity& id) {
  std::vector<std::uint8_t> rec;
  rec.reserve(kIdentRecordBytes);
  rec.push_back(kRecIdent);
  put_u32(&rec, kIdentMagic);
  put_u32(&rec, kIdentVersion);
  put_u32(&rec, id.rank);
  rec.push_back(id.lane);
  put_u64(&rec, id.capacity);
  put_u64(&rec, id.session_id);
  VELA_CHECK(rec.size() == kIdentRecordBytes);
  return rec;
}

bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Poll deadlines are OS-level waits, the injection point itself.
// vela-lint: allow(naked-clock)
bool write_all_timed(int fd, const std::uint8_t* data, std::size_t size,
                     int budget_ms) {
  // vela-lint: allow(naked-clock)
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(budget_ms);
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n =
        ::send(fd, data + off, size - off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return false;
    }
    // vela-lint: allow(naked-clock)
    const auto remaining = deadline - std::chrono::steady_clock::now();
    const auto ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
            .count();
    if (ms <= 0) return false;
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    ::poll(&pfd, 1, static_cast<int>(ms));
  }
  return true;
}

// Handshake reads are real-time bounded (loopback round trip, not protocol
// time). vela-lint: allow(naked-clock)
bool read_record_blocking(int fd, RecordParser* parser, Record* out,
                          int budget_ms, bool lenient) {
  // vela-lint: allow(naked-clock)
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(budget_ms);
  while (true) {
    if (lenient) {
      bool corrupt = false;
      if (parser->next_lenient(out, &corrupt)) return true;
      if (corrupt) return false;
    } else {
      if (parser->next(out)) return true;
    }
    // vela-lint: allow(naked-clock)
    const auto remaining = deadline - std::chrono::steady_clock::now();
    const auto ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
            .count();
    if (ms <= 0) return false;
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, static_cast<int>(ms));
    if (ready <= 0) {
      if (ready < 0 && errno == EINTR) continue;
      return false;
    }
    std::uint8_t buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    parser->feed(buf, static_cast<std::size_t>(n));
  }
}

int make_listen_socket(std::uint16_t port, std::uint16_t* bound_port,
                       int backlog, int bind_attempts,
                       std::chrono::milliseconds retry_delay,
                       util::Clock* clock) {
  util::Clock* clk = clock != nullptr ? clock : &util::system_clock();
  VELA_CHECK_MSG(bind_attempts >= 1, "bind_attempts must be >= 1");
  int last_errno = 0;
  for (int attempt = 1; attempt <= bind_attempts; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    VELA_CHECK_MSG(fd >= 0, "socket(): " + std::string(std::strerror(errno)));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      last_errno = errno;
      ::close(fd);
      // Only a collision is worth retrying — the port may free up. Anything
      // else (EACCES, bad address) will not change on a re-bind.
      VELA_CHECK_MSG(last_errno == EADDRINUSE,
                     "bind(127.0.0.1:" << port
                                       << "): " << std::strerror(last_errno));
      if (attempt < bind_attempts) clk->sleep_for(retry_delay);
      continue;
    }
    VELA_CHECK_MSG(::listen(fd, backlog) == 0,
                   "listen(): " + std::string(std::strerror(errno)));
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    VELA_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) ==
               0);
    if (bound_port != nullptr) *bound_port = ntohs(bound.sin_port);
    return fd;
  }
  VELA_CHECK_MSG(false, "bind(127.0.0.1:"
                            << port << "): port still in use after "
                            << bind_attempts << " attempt(s): "
                            << std::strerror(last_errno));
  return -1;  // unreachable
}

int dial_socket(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

// --- session halves -------------------------------------------------------------

Connection::Connection(int fd_in, const std::vector<std::uint8_t>& leftover)
    : fd(fd_in) {
  if (!leftover.empty()) parser.feed(leftover.data(), leftover.size());
}

Connection::~Connection() { ::close(fd); }

void Connection::cut() const { ::shutdown(fd, SHUT_RDWR); }

std::chrono::milliseconds backoff_delay(const ReconnectPolicy& policy,
                                        int attempt, Rng* jitter) {
  const auto base = policy.backoff_base.count();
  double delay = static_cast<double>(base);
  for (int k = 2; k < attempt; ++k) delay *= policy.backoff_multiplier;
  delay = std::min(delay, static_cast<double>(policy.backoff_max.count()));
  const auto extra = static_cast<std::int64_t>(
      jitter->uniform_index(static_cast<std::uint64_t>(base) + 1));
  return std::chrono::milliseconds(static_cast<std::int64_t>(delay) + extra);
}

SessionHalf::SessionHalf(ConnectionSource source, util::Clock* clock,
                         ReconnectPolicy policy)
    : source_(std::move(source)),
      clock_(clock != nullptr ? clock : &util::system_clock()),
      policy_(policy),
      jitter_(policy.jitter_seed) {}

SessionStats SessionHalf::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void SessionHalf::count(std::uint64_t SessionStats::*field, std::uint64_t n) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.*field += n;
}

bool SessionHalf::reconnect(const std::function<bool()>& attempt) {
  for (int k = 1; k <= policy_.max_attempts; ++k) {
    if (k > 1) clock_->sleep_for(backoff_delay(policy_, k, &jitter_));
    if (attempt()) {
      count(&SessionStats::reconnects);
      VELA_LOG_DEBUG("session") << "resumed after " << k << " attempt(s)";
      return true;
    }
  }
  dead_.store(true, std::memory_order_release);
  closed_.store(true, std::memory_order_release);
  VELA_LOG_WARN("session") << "reconnect budget exhausted ("
                           << policy_.max_attempts
                           << " attempts); session dead";
  return false;
}

// --- sender ---------------------------------------------------------------------

SenderHalf::SenderHalf(ConnectionPtr conn, ConnectionSource source,
                       util::Clock* clock, ReconnectPolicy policy,
                       std::function<void()> on_dead)
    : SessionHalf(std::move(source), clock, policy),
      conn_(std::move(conn)),
      on_dead_(std::move(on_dead)) {}

bool SenderHalf::send(const std::vector<std::uint8_t>& frame) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed()) return false;
  drain_acks();
  const std::uint64_t seq = next_seq_++;
  replay_.emplace_back(seq, encode_data_record(seq, frame));
  const std::vector<std::uint8_t>& record = replay_.back().second;
  count(&SessionStats::frames_sent);

  if (const ConnectionScript::Sever* sever = take_sever(seq)) {
    // Scripted cut: exactly byte_offset bytes of the record reach the wire,
    // then the connection dies. The record stays in the replay buffer.
    const std::size_t cut = std::min(sever->byte_offset, record.size());
    if (cut > 0) write_all(conn_->fd, record.data(), cut);
    conn_->cut();
    count(&SessionStats::severs_injected);
  } else if (write_all(conn_->fd, record.data(), record.size())) {
    return true;
  }
  // The connection is gone. A resume replays everything unacknowledged,
  // this frame included, so success means the frame is on the wire.
  return resume();
}

void SenderHalf::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  // The receiver drains what is buffered, sees the goodbye and reports
  // closed; an EOF without goodbye is a loss and resumes instead.
  const auto bye = encode_ctrl_record(kRecGoodbye, 0);
  write_all(conn_->fd, bye.data(), bye.size());
  ::shutdown(conn_->fd, SHUT_WR);
}

void SenderHalf::set_connection_script(const ConnectionScript* script) {
  std::lock_guard<std::mutex> lock(mutex_);
  script_ = script;
  sever_fired_.assign(script != nullptr ? script->severs.size() : 0, false);
  refused_ = 0;
}

// Opportunistic, non-blocking: cumulative acks and hellos prune the replay
// buffer.
void SenderHalf::drain_acks() {
  std::uint8_t buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(conn_->fd, buf, sizeof(buf), MSG_DONTWAIT)) > 0) {
    conn_->parser.feed(buf, static_cast<std::size_t>(n));
  }
  Record rec;
  while (conn_->parser.next(&rec)) {
    VELA_CHECK_MSG(rec.type == kRecAck || rec.type == kRecHello,
                   "unexpected session record on ack direction: "
                       << static_cast<int>(rec.type));
    prune_replay(rec.seq);
  }
}

void SenderHalf::prune_replay(std::uint64_t next_expected) {
  while (!replay_.empty() && replay_.front().first < next_expected) {
    replay_.pop_front();
  }
}

const ConnectionScript::Sever* SenderHalf::take_sever(std::uint64_t seq) {
  if (script_ == nullptr) return nullptr;
  for (std::size_t i = 0; i < script_->severs.size(); ++i) {
    if (!sever_fired_[i] && script_->severs[i].frame_index == seq) {
      sever_fired_[i] = true;
      return &script_->severs[i];
    }
  }
  return nullptr;
}

bool SenderHalf::resume() {
  const bool resumed = reconnect([this] {
    if (script_ != nullptr && refused_ < script_->refuse_reconnects) {
      ++refused_;
      count(&SessionStats::refused_connects);
      return false;
    }
    if (script_ != nullptr && script_->accept_delay.count() > 0) {
      clock_->sleep_for(script_->accept_delay);
    }
    ConnectionPtr fresh = source_();
    if (fresh == nullptr || !replay_onto(*fresh)) return false;
    conn_->cut();
    conn_ = std::move(fresh);
    return true;
  });
  if (!resumed) {
    conn_->cut();
    if (on_dead_) on_dead_();
  }
  return resumed;
}

// The hello handshake, sending side: wait for the receiver's hello (stale
// acks may precede it), prune to it, replay the rest.
bool SenderHalf::replay_onto(Connection& fresh) {
  Record rec;
  do {
    if (!read_record_blocking(fresh.fd, &fresh.parser, &rec,
                              kHandshakeBudgetMs)) {
      return false;
    }
  } while (rec.type == kRecAck);
  if (rec.type != kRecHello) return false;
  prune_replay(rec.seq);
  for (const auto& entry : replay_) {
    const std::vector<std::uint8_t>& record = entry.second;
    // A wedged fresh connection fails the attempt; the next hello re-syncs.
    if (!write_all_timed(fresh.fd, record.data(), record.size(),
                         kReplayBudgetMs)) {
      return false;
    }
    count(&SessionStats::replayed_frames);
    count(&SessionStats::replayed_bytes, record.size());
    if (audit::enabled()) {
      audit::ConservationLedger::instance().on_session_replay(record.size());
    }
  }
  return true;
}

// --- receiver -------------------------------------------------------------------

ReceiverHalf::ReceiverHalf(ConnectionPtr conn, ConnectionSource source,
                           util::Clock* clock, ReconnectPolicy policy)
    : SessionHalf(std::move(source), clock, policy) {
  // Best effort: a connection that is already dead shows up as EOF on the
  // first receive and resumes.
  const auto hello = encode_ctrl_record(kRecHello, 0);
  write_all(conn->fd, hello.data(), hello.size());
  publish(std::move(conn));
}

ConnectionPtr ReceiverHalf::snapshot() const {
  std::lock_guard<std::mutex> lock(conn_mutex_);
  return conn_;
}

void ReceiverHalf::publish(ConnectionPtr conn) {
  ConnectionPtr old;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    old = std::exchange(conn_, std::move(conn));
  }
  conn_cv_.notify_all();
  // Wakes a receive still polling the lost connection.
  if (old != nullptr) old->cut();
}

// The hello handshake, receiving side. A stale next_expected (a delivery
// racing this call) only makes the replay overlap, which dedupe absorbs.
bool ReceiverHalf::adopt(ConnectionPtr fresh) {
  const auto hello = encode_ctrl_record(
      kRecHello, next_expected_.load(std::memory_order_acquire));
  if (!write_all_timed(fresh->fd, hello.data(), hello.size(),
                       kHandshakeBudgetMs)) {
    return false;
  }
  publish(std::move(fresh));
  return true;
}

void ReceiverHalf::close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  snapshot()->cut();
}

void ReceiverHalf::kill() {
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    dead_.store(true, std::memory_order_release);
  }
  conn_cv_.notify_all();
}

// Best effort: a lost ack only delays pruning (the hello is authoritative).
void ReceiverHalf::ack(const Connection& conn, std::uint64_t next_expected) {
  const auto rec = encode_ctrl_record(kRecAck, next_expected);
  write_all(conn.fd, rec.data(), rec.size());
}

bool ReceiverHalf::resume(const ConnectionPtr& lost) {
  if (!source_) {
    std::unique_lock<std::mutex> lock(conn_mutex_);
    conn_cv_.wait(lock, [&] {
      return conn_ != lost || dead_.load(std::memory_order_acquire);
    });
    return !dead_.load(std::memory_order_acquire);
  }
  return reconnect([&] {
    if (snapshot() != lost) return true;  // handed over meanwhile
    ConnectionPtr fresh = source_();
    return fresh != nullptr && adopt(std::move(fresh));
  });
}

PopStatus ReceiverHalf::receive(long timeout_ms,
                                std::vector<std::uint8_t>* out) {
  std::lock_guard<std::mutex> op(op_mutex_);
  // Poll deadlines are OS-level waits, the injection point itself.
  // vela-lint: allow(naked-clock)
  const auto deadline =
      timeout_ms < 0
          ? std::chrono::steady_clock::time_point::max()
          // vela-lint: allow(naked-clock)
          : std::chrono::steady_clock::now() +
                std::chrono::milliseconds(timeout_ms);
  while (true) {
    if (closed() && !goodbye_received_) return PopStatus::kClosed;
    const ConnectionPtr conn = snapshot();
    Record rec;
    if (conn->parser.next(&rec)) {
      if (rec.type == kRecGoodbye) {
        goodbye_received_ = true;
        continue;
      }
      VELA_CHECK_MSG(rec.type == kRecData,
                     "unexpected session record on data direction: "
                         << static_cast<int>(rec.type));
      const std::uint64_t expected =
          next_expected_.load(std::memory_order_acquire);
      if (rec.seq == expected) {
        next_expected_.store(expected + 1, std::memory_order_release);
        ack(*conn, expected + 1);
        *out = std::move(rec.frame);
        return PopStatus::kOk;
      }
      VELA_CHECK_MSG(rec.seq < expected,
                     "session resume broke ordering: got seq "
                         << rec.seq << ", expected " << expected);
      // A replayed record already delivered: discard (exactly-once) and
      // re-ack so the sender prunes.
      count(&SessionStats::duplicates_discarded);
      ack(*conn, expected);
      continue;
    }
    if (goodbye_received_ || dead_.load(std::memory_order_acquire)) {
      return PopStatus::kClosed;
    }
    if (conn->eof) {
      // EOF without goodbye: the connection was lost, not closed.
      if (!resume(conn)) return PopStatus::kClosed;
      continue;
    }

    int wait_ms = -1;
    if (timeout_ms >= 0) {
      // vela-lint: allow(naked-clock)
      const auto remaining = deadline - std::chrono::steady_clock::now();
      const auto ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
              .count();
      if (ms < 0 && timeout_ms != 0) return PopStatus::kTimeout;
      wait_ms = ms < 0 ? 0 : static_cast<int>(ms);
    }
    pollfd pfd{};
    pfd.fd = conn->fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      VELA_CHECK_MSG(false, "poll(): " + std::string(std::strerror(errno)));
    }
    if (ready == 0) {
      if (timeout_ms == 0) return PopStatus::kTimeout;
      continue;  // re-check the deadline at the loop top
    }
    std::uint8_t buf[65536];
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != ECONNRESET && errno != EPIPE) {
        VELA_CHECK_MSG(false, "recv(): " + std::string(std::strerror(errno)));
      }
    }
    if (n <= 0) {
      conn->eof = true;
      continue;
    }
    conn->parser.feed(buf, static_cast<std::size_t>(n));
  }
}

}  // namespace vela::comm::session
