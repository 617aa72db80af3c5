// The Expert Manager process of Fig. 4, realized as a thread.
//
// A worker owns a subset of the model's experts and trains them locally: no
// gradient ever leaves the worker, which is precisely how VELA avoids data
// parallelism's all-reduce. The expert state and compute — store, forward
// tapes and their pins, fragment trains, grouped backward, the local AdamW
// step — live in the shared core::ExpertExecutor (core/expert_executor.h),
// the same executor the EP baseline's expert server runs. The worker keeps
// the transport around it: the master link, batching of compute runs, the
// reply cache, and the control plane (fetch, snapshot, restore, install,
// store priorities, prefetch, abort, crash).
//
// Request handling is idempotent: every (type, request id) pair is served at
// most once and its reply cached, so a master retransmission (after a lost
// request or a lost reply) replays the cached reply instead of re-executing.
// Checksummed messages that fail verification are dropped — the master's
// timeout/retry recovers them. Both are prerequisites for the retry layer in
// core/fault_tolerance.h.
#pragma once

#include <deque>
#include <thread>
#include <unordered_map>
#include <vector>

#include "comm/endpoint.h"
#include "core/expert_executor.h"
#include "core/protocol.h"

namespace vela::comm {
class TrafficMeter;
}

namespace vela::core {

class ExpertWorker {
 public:
  // `link` is the duplex master↔worker connection; the worker receives on
  // link->to_worker and replies on link->to_master. `initial_experts` are
  // constructed (from the spec's base_seed) before the thread starts.
  // `meter` (optional) receives the store's page-in/page-out byte series —
  // in-process workers share the master's TrafficMeter, remote vela_nodes
  // run unmetered.
  ExpertWorker(WorkerSpec spec, comm::DuplexLink* link,
               std::vector<ExpertKey> initial_experts,
               comm::TrafficMeter* meter = nullptr);
  ~ExpertWorker();

  ExpertWorker(const ExpertWorker&) = delete;
  ExpertWorker& operator=(const ExpertWorker&) = delete;

  void start();
  // Blocks until the worker thread exits (send kShutdown first, or close the
  // channel).
  void join();

  const WorkerSpec& spec() const { return spec_; }
  // Thread-unsafe introspection; call only after join() (tests).
  std::size_t experts_hosted() const { return executor_.store().size(); }
  std::size_t requests_served() const { return requests_served_; }
  std::size_t duplicates_replayed() const { return duplicates_replayed_; }
  std::size_t corrupt_dropped() const { return corrupt_dropped_; }
  const store::ExpertStore& expert_store() const { return executor_.store(); }

 private:
  void run();
  void run_loop(const std::string& tag);
  // Drains and handles one batch of messages. Consecutive forward (resp.
  // backward) requests are computed as parallel tasks on the shared
  // util::ThreadPool; everything else is handled serially in arrival order.
  // Returns false when the worker must terminate (closed channel, shutdown
  // or injected crash).
  bool process_batch(std::vector<comm::Message> batch, const std::string& tag);
  // Sends a reply and caches a copy under `key` for idempotent replay.
  // Returns false when the master-side channel is gone (terminate loop).
  bool reply_and_cache(std::uint64_t key, comm::Message reply);
  static std::uint64_t dedupe_key(const comm::Message& m) {
    // (type, id) key matching ReliableLink's: forward and backward of the
    // same request share an id, so the type disambiguates the cache entry.
    return (static_cast<std::uint64_t>(m.type) << 56) ^ m.request_id;
  }

  WorkerSpec spec_;
  comm::DuplexLink* link_;
  ExpertExecutor executor_;
  // (request type, request id) → cached reply, bounded FIFO.
  std::unordered_map<std::uint64_t, comm::Message> reply_cache_;
  std::deque<std::uint64_t> reply_cache_order_;
  std::size_t requests_served_ = 0;
  std::size_t duplicates_replayed_ = 0;
  std::size_t corrupt_dropped_ = 0;
  std::thread thread_;
};

}  // namespace vela::core
