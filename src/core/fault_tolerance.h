// Fault-tolerant request/reply layer over a master↔worker DuplexLink.
//
// The raw Endpoint is an unreliable transport once a FaultInjector is in
// play: messages can vanish, arrive twice, or arrive corrupted, and the
// channel itself can die. ReliableLink turns that into the semantics the
// broker and master need:
//
//   * every request keeps a retransmit copy until its reply arrives;
//   * await() enforces a per-request timeout and retransmits with
//     exponential backoff (bounded by RetryPolicy::max_retries);
//   * corrupted replies (checksum mismatch) are dropped and re-requested;
//   * duplicate replies — from duplication faults or from retransmits the
//     worker answered twice — are recognized and discarded;
//   * replies to *other* outstanding requests that arrive out of order are
//     stashed and handed to their own await() later;
//   * a closed channel or an exhausted retry budget raises
//     WorkerFailedError, the structured signal the recovery path (worker
//     respawn + step retry) is built on. Genuine protocol violations —
//     replies that match nothing ever sent — still raise CheckError.
//
// Retransmission is idempotent because workers dedupe requests by
// (type, request_id) and replay the cached reply instead of re-executing.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "comm/endpoint.h"
#include "util/clock.h"

namespace vela::core {

struct RetryPolicy {
  // First-attempt reply timeout; each retransmission multiplies it by
  // `backoff`. Generous by default — on a healthy link the timer never
  // fires, so only genuinely lost messages pay it.
  std::chrono::milliseconds timeout{1000};
  int max_retries = 3;   // retransmissions after the first send
  double backoff = 2.0;  // timeout growth per retransmission
};

// Counters the runtime surfaces through StepReport.
struct FaultStats {
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t corrupt_dropped = 0;
  std::uint64_t duplicates_discarded = 0;
};

// A worker stopped answering (dead channel or exhausted retries). Carries
// the worker index so MasterProcess/VelaSystem can respawn exactly it.
class WorkerFailedError : public std::runtime_error {
 public:
  WorkerFailedError(std::size_t worker, const std::string& what)
      : std::runtime_error("worker " + std::to_string(worker) +
                           " failed: " + what),
        worker_(worker) {}

  std::size_t worker() const { return worker_; }

 private:
  std::size_t worker_;
};

// The reply type each request type is answered with (kShutdown and friends
// that have no reply map to themselves).
comm::MessageType expected_reply_type(comm::MessageType request);

class ReliableLink {
 public:
  // `clock` drives every await deadline (nullptr = system clock); tests
  // inject a FakeClock so timeout/backoff schedules resolve in virtual
  // time instead of wall time.
  ReliableLink(std::size_t worker, comm::DuplexLink* link,
               const RetryPolicy* policy, util::Clock* clock = nullptr);

  // Re-attaches after a worker respawn: the fresh link starts with no
  // outstanding requests; everything in flight on the old link is abandoned
  // (late duplicates of it will be discarded, not treated as violations).
  void reset(comm::DuplexLink* link);

  // Swaps the time source (nullptr = system clock). Safe between awaits;
  // MasterProcess::set_clock fans this out to every link.
  void set_clock(util::Clock* clock);

  comm::DuplexLink* link() { return link_; }
  std::size_t worker() const { return worker_; }
  const RetryPolicy& policy() const { return *policy_; }
  FaultStats& stats() { return stats_; }
  const FaultStats& stats() const { return stats_; }

  // Sends a request, keeping a retransmit copy until the reply arrives.
  // Throws WorkerFailedError if the channel is severed.
  void post(comm::Message msg);

  // Re-sends `msg` as a recovery retransmission, keeping it as the request's
  // retransmit copy: counts it in stats(), tallies the audit ledger's
  // retransmit share and charges `on_retransmit(bytes)` (optional).
  // Throws WorkerFailedError if the channel is severed.
  void retransmit(comm::Message msg,
                  const std::function<void(std::uint64_t)>& on_retransmit =
                      nullptr);

  // Blocks for the reply to `request_id` of the given type, retransmitting
  // on timeout. `on_retransmit(bytes)` (optional) lets the caller charge
  // retransmitted bytes to its own ledgers; the TrafficMeter sees them
  // automatically. `policy_override` (optional) replaces the link's policy
  // for this await only (probes use one short attempt).
  comm::Message await(comm::MessageType expected, std::uint64_t request_id,
                      const std::function<void(std::uint64_t)>& on_retransmit =
                          nullptr,
                      const RetryPolicy* policy_override = nullptr);

  // Abandons every outstanding request: their eventual replies are treated
  // as discardable duplicates. Called before aborting a failed step.
  void abandon_outstanding();

  // Liveness check: true if the worker answers a kProbe within
  // `policy_override` (or the link policy). Never throws.
  bool probe(std::uint64_t request_id,
             const RetryPolicy* policy_override = nullptr);

  // Insertion-ordered recently-completed keys (tests pin this order: the
  // eviction sequence must not depend on unordered_map iteration order).
  const std::deque<std::uint64_t>& recent_keys_for_testing() const {
    return recent_order_;
  }

 private:
  static std::uint64_t key_of(comm::MessageType type, std::uint64_t id) {
    return (static_cast<std::uint64_t>(type) << 56) ^ id;
  }
  void remember(std::uint64_t key);

  std::size_t worker_;
  comm::DuplexLink* link_;
  const RetryPolicy* policy_;
  util::Clock* clock_;
  FaultStats stats_;
  // request_id → retransmit copy of the request still awaiting its reply.
  std::unordered_map<std::uint64_t, comm::Message> outstanding_;
  // (reply type, id) → reply that arrived while awaiting a different one.
  std::unordered_map<std::uint64_t, comm::Message> stash_;
  // Recently completed (reply type, id) keys; duplicates of these are
  // silently discarded. Bounded FIFO.
  std::unordered_set<std::uint64_t> recent_;
  std::deque<std::uint64_t> recent_order_;
};

}  // namespace vela::core
