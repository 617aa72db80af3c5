#include "core/fault_tolerance.h"

#include <algorithm>
#include <vector>

#include "util/audit.h"
#include "util/check.h"
#include "util/logging.h"

namespace vela::core {

namespace {
constexpr std::size_t kRecentCapacity = 1024;
}  // namespace

comm::MessageType expected_reply_type(comm::MessageType request) {
  using comm::MessageType;
  switch (request) {
    case MessageType::kExpertForward:
      return MessageType::kExpertForwardResult;
    case MessageType::kExpertBackward:
      return MessageType::kExpertBackwardResult;
    case MessageType::kOptimizerStep:
      return MessageType::kOptimizerStepDone;
    case MessageType::kFetchExpert:
    case MessageType::kQueryExpert:
      return MessageType::kExpertState;
    case MessageType::kInstallExpert:
      return MessageType::kInstallExpertDone;
    case MessageType::kLoadExpertState:
      return MessageType::kLoadExpertStateDone;
    case MessageType::kProbe:
      return MessageType::kProbeAck;
    case MessageType::kAbortStep:
      return MessageType::kAbortStepDone;
    case MessageType::kSnapshotExpert:
      return MessageType::kExpertSnapshot;
    case MessageType::kRestoreExpert:
      return MessageType::kRestoreExpertDone;
    case MessageType::kStorePriorities:
      return MessageType::kStorePrioritiesDone;
    // Fire-and-forget control messages and the replies themselves have no
    // reply; listing them explicitly (no default:) makes the compiler and
    // vela_analyze flag this map when a new MessageType is added.
    case MessageType::kExpertForwardResult:
    case MessageType::kExpertBackwardResult:
    case MessageType::kOptimizerStepDone:
    case MessageType::kExpertState:
    case MessageType::kInstallExpertDone:
    case MessageType::kLoadExpertStateDone:
    case MessageType::kAllReduceChunk:
    case MessageType::kShutdown:
    case MessageType::kProbeAck:
    case MessageType::kAbortStepDone:
    case MessageType::kExpertSnapshot:
    case MessageType::kRestoreExpertDone:
    case MessageType::kCrash:
    case MessageType::kStorePrioritiesDone:
    case MessageType::kPrefetchExperts:  // dispatch hint, never awaited
      return request;
  }
  return request;  // unreachable: the switch above is exhaustive
}

ReliableLink::ReliableLink(std::size_t worker, comm::DuplexLink* link,
                           const RetryPolicy* policy, util::Clock* clock)
    : worker_(worker),
      link_(link),
      policy_(policy),
      clock_(clock != nullptr ? clock : &util::system_clock()) {
  VELA_CHECK(link_ != nullptr && policy_ != nullptr);
}

void ReliableLink::reset(comm::DuplexLink* link) {
  VELA_CHECK(link != nullptr);
  abandon_outstanding();
  link_ = link;
}

void ReliableLink::set_clock(util::Clock* clock) {
  clock_ = clock != nullptr ? clock : &util::system_clock();
}

void ReliableLink::remember(std::uint64_t key) {
  if (recent_.insert(key).second) {
    recent_order_.push_back(key);
    while (recent_order_.size() > kRecentCapacity) {
      recent_.erase(recent_order_.front());
      recent_order_.pop_front();
    }
  }
}

void ReliableLink::post(comm::Message msg) {
  comm::Message copy = msg;
  const std::uint64_t id = msg.request_id;
  if (!link_->to_worker.send(std::move(msg))) {
    throw WorkerFailedError(worker_, "channel severed while sending " +
                                         copy.to_string());
  }
  outstanding_[id] = std::move(copy);
}

void ReliableLink::retransmit(
    comm::Message msg,
    const std::function<void(std::uint64_t)>& on_retransmit) {
  const std::uint64_t bytes = msg.wire_size();
  ++stats_.retransmissions;
  VELA_LOG_DEBUG("rlink") << "worker " << worker_ << ": retransmitting "
                          << msg.to_string();
  comm::Message copy = msg;
  if (!link_->to_worker.send(std::move(msg))) {
    throw WorkerFailedError(worker_, "channel severed while retransmitting");
  }
  outstanding_[copy.request_id] = std::move(copy);
  if (audit::enabled()) {
    audit::ConservationLedger::instance().on_retransmit(bytes);
  }
  if (on_retransmit) on_retransmit(bytes);
}

void ReliableLink::abandon_outstanding() {
  // remember() evicts oldest-first once the recent-set fills, so the order
  // keys enter it is observable. Sort before inserting: unordered_map
  // iteration order would make the surviving set hash-seed dependent.
  std::vector<std::uint64_t> keys;
  keys.reserve(outstanding_.size() + stash_.size());
  for (const auto& [id, req] : outstanding_) {
    keys.push_back(key_of(expected_reply_type(req.type), id));
  }
  outstanding_.clear();
  for (const auto& [key, reply] : stash_) keys.push_back(key);
  stash_.clear();
  std::sort(keys.begin(), keys.end());
  for (std::uint64_t key : keys) remember(key);
}

comm::Message ReliableLink::await(
    comm::MessageType expected, std::uint64_t request_id,
    const std::function<void(std::uint64_t)>& on_retransmit,
    const RetryPolicy* policy_override) {
  const RetryPolicy& policy =
      policy_override != nullptr ? *policy_override : *policy_;
  const std::uint64_t want = key_of(expected, request_id);

  // A reply that raced ahead of this await.
  if (auto it = stash_.find(want); it != stash_.end()) {
    comm::Message reply = std::move(it->second);
    stash_.erase(it);
    outstanding_.erase(request_id);
    remember(want);
    return reply;
  }

  double timeout_ms = static_cast<double>(policy.timeout.count());
  for (int attempt = 0;; ++attempt) {
    // All deadlines flow through the injected clock: wait_slice converts
    // the remaining virtual budget into the real blocking duration (the
    // identity on the system clock; a FakeClock advances virtual time and
    // blocks for about a millisecond, so timeout tests run fast).
    auto deadline = clock_->now() + std::chrono::milliseconds(
                                        static_cast<std::int64_t>(timeout_ms));
    for (;;) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                clock_->now());
      if (remaining.count() <= 0) break;
      comm::Message reply;
      const PopStatus status =
          link_->to_master.receive_for(clock_->wait_slice(remaining), &reply);
      if (status == PopStatus::kClosed) {
        throw WorkerFailedError(worker_,
                                "channel closed while awaiting " +
                                    std::string(comm::message_type_name(
                                        expected)));
      }
      if (status == PopStatus::kTimeout) break;
      if (!reply.checksum_ok()) {
        ++stats_.corrupt_dropped;
        VELA_LOG_DEBUG("rlink") << "worker " << worker_
                                << ": dropping corrupted " << reply.to_string();
        continue;
      }
      const std::uint64_t key = key_of(reply.type, reply.request_id);
      if (key == want) {
        outstanding_.erase(request_id);
        remember(want);
        return reply;
      }
      if (outstanding_.count(reply.request_id) > 0 &&
          expected_reply_type(outstanding_[reply.request_id].type) ==
              reply.type) {
        stash_[key] = std::move(reply);  // out-of-order reply; deliver later
        continue;
      }
      if (recent_.count(key) > 0 || stash_.count(key) > 0) {
        ++stats_.duplicates_discarded;
        continue;
      }
      VELA_CHECK_MSG(false, "protocol violation: worker "
                                << worker_ << " sent unexpected "
                                << reply.to_string() << " while awaiting "
                                << comm::message_type_name(expected) << "/"
                                << request_id);
    }

    // Timed out. Retransmit the stored request, or give the worker up.
    ++stats_.timeouts;
    if (attempt >= policy.max_retries) {
      throw WorkerFailedError(
          worker_, std::string("no ") + comm::message_type_name(expected) +
                       " after " + std::to_string(attempt + 1) +
                       " attempt(s)");
    }
    auto it = outstanding_.find(request_id);
    VELA_CHECK_MSG(it != outstanding_.end(),
                   "await without a posted request " << request_id);
    retransmit(it->second, on_retransmit);
    timeout_ms *= policy.backoff;
  }
}

bool ReliableLink::probe(std::uint64_t request_id,
                         const RetryPolicy* policy_override) {
  comm::Message msg;
  msg.type = comm::MessageType::kProbe;
  msg.request_id = request_id;
  try {
    post(std::move(msg));
    await(comm::MessageType::kProbeAck, request_id, nullptr, policy_override);
    return true;
  } catch (const WorkerFailedError&) {
    outstanding_.erase(request_id);
    remember(key_of(comm::MessageType::kProbeAck, request_id));
    return false;
  }
}

}  // namespace vela::core
