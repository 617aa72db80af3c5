#include "core/master.h"

#include <algorithm>

#include "comm/peer_listener.h"
#include "util/check.h"
#include "util/logging.h"

namespace vela::core {

MasterProcess::MasterProcess(const cluster::ClusterTopology& topology,
                             const WorkerSpec& spec_template,
                             placement::Placement placement,
                             std::size_t num_layers, std::size_t num_experts,
                             comm::TransportKind transport)
    : topology_(topology),
      transport_(comm::resolve_transport(transport)),
      meter_(&topology_),
      placement_(std::move(placement)),
      spec_template_(spec_template),
      num_layers_(num_layers),
      num_experts_(num_experts) {
  VELA_CHECK(placement_.num_layers() == num_layers &&
             placement_.num_experts() == num_experts);
  const std::size_t n = topology_.num_workers();
  const std::size_t master_node = topology_.master_node();

  links_.reserve(n);
  workers_.reserve(n);
  rlinks_.reserve(n);
  respawn_counts_.assign(n, 0);
  dead_.assign(n, false);
  for (std::size_t w = 0; w < n; ++w) {
    links_.push_back(comm::make_duplex_link(
        transport_, master_node, topology_.worker_node(w), &meter_));
    WorkerSpec spec = spec_template_;
    spec.worker_id = w;
    spec.node = topology_.worker_node(w);
    std::vector<ExpertKey> assigned;
    for (const auto& [l, e] : placement_.experts_of(w)) {
      assigned.push_back(
          {static_cast<std::uint32_t>(l), static_cast<std::uint32_t>(e)});
    }
    workers_.push_back(std::make_unique<ExpertWorker>(
        spec, links_.back().get(), assigned, &meter_));
    workers_.back()->start();
    rlinks_.push_back(
        std::make_unique<ReliableLink>(w, links_.back().get(), &retry_policy_));
  }
  std::vector<ReliableLink*> rlink_ptrs;
  for (auto& rl : rlinks_) rlink_ptrs.push_back(rl.get());
  broker_ = std::make_unique<ExpertBroker>(
      rlink_ptrs, &placement_, num_layers, wire_codec(spec_template_));
  resolve_paging();
}

MasterProcess::MasterProcess(const cluster::ClusterTopology& topology,
                             const WorkerSpec& spec_template,
                             placement::Placement placement,
                             std::size_t num_layers, std::size_t num_experts,
                             const RemoteFleetConfig& remote)
    : topology_(topology),
      transport_(comm::TransportKind::kSocket),
      meter_(&topology_),
      placement_(std::move(placement)),
      spec_template_(spec_template),
      num_layers_(num_layers),
      num_experts_(num_experts),
      remote_(true) {
  VELA_CHECK(placement_.num_layers() == num_layers &&
             placement_.num_experts() == num_experts);
  VELA_CHECK_MSG(remote.listener != nullptr,
                 "a remote fleet needs a PeerListener to adopt workers from");
  const std::size_t n = topology_.num_workers();
  const std::size_t master_node = topology_.master_node();

  links_.reserve(n);
  workers_.reserve(n);
  rlinks_.reserve(n);
  respawn_counts_.assign(n, 0);
  dead_.assign(n, false);
  for (std::size_t w = 0; w < n; ++w) {
    auto link = comm::make_master_remote_link(
        *remote.listener, static_cast<std::uint32_t>(w),
        placement_.experts_of(w).size(), master_node,
        topology_.worker_node(w), &meter_, remote.accept_timeout,
        remote.reconnect, remote.clock);
    VELA_CHECK_MSG(link != nullptr,
                   "worker " << w << " never dialed in (waited "
                             << remote.accept_timeout.count() << "ms)");
    links_.push_back(std::move(link));
    // The worker runtime lives in its own process (core/node_runtime.h);
    // this slot only marks the rank as occupied.
    workers_.push_back(nullptr);
    rlinks_.push_back(
        std::make_unique<ReliableLink>(w, links_.back().get(), &retry_policy_));
  }
  std::vector<ReliableLink*> rlink_ptrs;
  for (auto& rl : rlinks_) rlink_ptrs.push_back(rl.get());
  broker_ = std::make_unique<ExpertBroker>(
      rlink_ptrs, &placement_, num_layers, wire_codec(spec_template_));
  resolve_paging();
  VELA_LOG_INFO("master") << "remote fleet assembled: " << n
                          << " worker process(es)";
}

void MasterProcess::resolve_paging() {
  // The same resolution every in-process worker's store performs (spec
  // overrides env); a remote vela_node resolves its own environment, which
  // the launcher exports identically, so the master's view matches.
  store::StoreConfig cfg;
  cfg.budget = spec_template_.expert_budget;
  cfg.dir = spec_template_.store_dir;
  cfg.dtype = spec_template_.store_dtype;
  paging_ = cfg.resolved().bounded();
  broker_->set_store_hints(paging_);
}

void MasterProcess::set_store_priorities(Tensor priorities) {
  VELA_CHECK_MSG(priorities.size() == num_layers_ * num_experts_,
                 "store priorities need one score per (layer, expert): got "
                     << priorities.size() << ", want "
                     << num_layers_ * num_experts_);
  store_priorities_ = std::move(priorities);
  if (!paging_) return;  // unbounded stores ignore priorities; save the bytes
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (dead_[w]) continue;
    comm::Message msg;
    msg.type = comm::MessageType::kStorePriorities;
    msg.request_id = next_request_++;
    msg.layer = static_cast<std::uint32_t>(num_layers_);
    msg.expert = static_cast<std::uint32_t>(num_experts_);
    msg.payload = store_priorities_;
    exchange(w, std::move(msg));
  }
}

MasterProcess::~MasterProcess() { shutdown(); }

comm::Message MasterProcess::exchange(std::size_t worker, comm::Message msg) {
  const comm::MessageType reply_type = expected_reply_type(msg.type);
  const std::uint64_t id = msg.request_id;
  rlinks_[worker]->post(std::move(msg));
  return rlinks_[worker]->await(reply_type, id);
}

void MasterProcess::broadcast_optimizer_step(std::uint32_t step,
                                             float scheduled_lr) {
  std::vector<std::uint64_t> ids(workers_.size());
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (dead_[w]) continue;  // degraded fleet: dead slots host no experts
    comm::Message msg;
    msg.type = comm::MessageType::kOptimizerStep;
    msg.request_id = ids[w] = next_request_++;
    msg.step = step;
    if (scheduled_lr >= 0.0f) {
      msg.payload = Tensor::full({1}, scheduled_lr);
    }
    rlinks_[w]->post(std::move(msg));
  }
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (dead_[w]) continue;
    rlinks_[w]->await(comm::MessageType::kOptimizerStepDone, ids[w]);
  }
}

void MasterProcess::apply_placement(const placement::Placement& next) {
  VELA_CHECK(next.num_layers() == placement_.num_layers() &&
             next.num_experts() == placement_.num_experts());
  std::size_t moved = 0;
  for (std::size_t l = 0; l < next.num_layers(); ++l) {
    for (std::size_t e = 0; e < next.num_experts(); ++e) {
      const std::size_t from = placement_.worker_of(l, e);
      const std::size_t to = next.worker_of(l, e);
      if (from == to) continue;
      VELA_CHECK_MSG(!dead_[from] && !dead_[to],
                     "apply_placement would migrate ("
                         << l << "," << e << ") across dead worker "
                         << (dead_[from] ? from : to)
                         << "; use degrade_to for post-failure moves");
      ++moved;
      const ExpertKey key{static_cast<std::uint32_t>(l),
                          static_cast<std::uint32_t>(e)};
      // A standby replica on the destination would collide with the
      // migrating primary; retire it first.
      drop_standby(key, to);

      comm::Message fetch;
      fetch.type = comm::MessageType::kFetchExpert;
      fetch.request_id = next_request_++;
      fetch.layer = key.layer;
      fetch.expert = key.expert;
      comm::Message state = exchange(from, std::move(fetch));

      comm::Message install;
      install.type = comm::MessageType::kInstallExpert;
      install.request_id = next_request_++;
      install.layer = key.layer;
      install.expert = key.expert;
      install.payload = std::move(state.payload);
      exchange(to, std::move(install));
    }
  }
  placement_ = next;
  broker_->set_placement(&placement_);
  VELA_LOG_INFO("master") << "applied new placement; migrated " << moved
                          << " experts";
}

Tensor MasterProcess::query_expert_state(std::size_t layer,
                                         std::size_t expert) {
  const std::size_t w = placement_.worker_of(layer, expert);
  comm::Message msg;
  msg.type = comm::MessageType::kQueryExpert;
  msg.request_id = next_request_++;
  msg.layer = static_cast<std::uint32_t>(layer);
  msg.expert = static_cast<std::uint32_t>(expert);
  return exchange(w, std::move(msg)).payload;
}

void MasterProcess::load_expert_state(std::size_t layer, std::size_t expert,
                                      Tensor state) {
  const std::size_t w = placement_.worker_of(layer, expert);
  comm::Message msg;
  msg.type = comm::MessageType::kLoadExpertState;
  msg.request_id = next_request_++;
  msg.layer = static_cast<std::uint32_t>(layer);
  msg.expert = static_cast<std::uint32_t>(expert);
  msg.payload = std::move(state);
  exchange(w, std::move(msg));
}

void MasterProcess::attach_fault_injector(comm::FaultInjector* injector) {
  injector_ = injector;
  for (std::size_t w = 0; w < links_.size(); ++w) {
    links_[w]->set_fault_injector(injector_, w);
  }
}

void MasterProcess::set_clock(util::Clock* clock) {
  clock_ = clock != nullptr ? clock : &util::system_clock();
  for (auto& rl : rlinks_) rl->set_clock(clock_);
}

bool MasterProcess::probe_worker(std::size_t w) {
  VELA_CHECK(w < workers_.size());
  if (dead_[w]) return false;
  if (links_[w]->to_worker.closed() || links_[w]->to_master.closed()) {
    return false;
  }
  // One retransmission: a single dropped or corrupted ack must not condemn
  // a live worker. Truly dead workers usually hit the closed-channel fast
  // path above and never pay these timeouts.
  RetryPolicy policy = retry_policy_;
  policy.max_retries = 1;
  return rlinks_[w]->probe(next_request_++, &policy);
}

void MasterProcess::snapshot_experts() {
  if (!spec_template_.lora.enabled) return;
  // Post every snapshot request up front so worker-side state packing for
  // later experts overlaps with receiving earlier replies, then collect in
  // request order (ReliableLink stashes out-of-order arrivals). Same
  // messages, same bytes, same retry semantics as the serial
  // exchange-per-expert loop — only the waiting overlaps.
  struct Outstanding {
    ExpertKey key;
    std::size_t worker;
    std::uint64_t request_id;
  };
  std::vector<Outstanding> outstanding;
  outstanding.reserve(num_layers_ * num_experts_);
  for (std::size_t l = 0; l < num_layers_; ++l) {
    for (std::size_t e = 0; e < num_experts_; ++e) {
      const ExpertKey key{static_cast<std::uint32_t>(l),
                          static_cast<std::uint32_t>(e)};
      const std::size_t worker = placement_.worker_of(l, e);
      // A window exists between declaring a worker dead and degrading the
      // placement off it; experts still mapped there keep their previous
      // snapshot (they will be restored from it during the degrade).
      if (dead_[worker]) continue;
      comm::Message msg;
      msg.type = comm::MessageType::kSnapshotExpert;
      msg.request_id = next_request_++;
      msg.layer = key.layer;
      msg.expert = key.expert;
      const std::uint64_t id = msg.request_id;
      rlinks_[worker]->post(std::move(msg));
      outstanding.push_back({key, worker, id});
    }
  }
  for (const auto& o : outstanding) {
    snapshot_[o.key] = rlinks_[o.worker]
                           ->await(comm::MessageType::kExpertSnapshot,
                                   o.request_id)
                           .payload;
  }
  // Standbys track the snapshot: push the fresh state out so a fail-over
  // source is never staler than the master's own copy.
  for (const auto& [key, hosts] : standbys_) {
    for (const std::size_t s : hosts) {
      restore_expert(s, key, snapshot_[key]);
    }
  }
}

void MasterProcess::add_standby_replica(std::size_t layer, std::size_t expert,
                                        std::size_t worker) {
  VELA_CHECK(worker < workers_.size());
  const ExpertKey key{static_cast<std::uint32_t>(layer),
                      static_cast<std::uint32_t>(expert)};
  VELA_CHECK_MSG(worker != placement_.worker_of(layer, expert),
                 "standby for " << to_string(key)
                                << " would land on its own primary");
  auto& hosts = standbys_[key];
  for (const std::size_t s : hosts) VELA_CHECK(s != worker);

  Tensor state;
  if (auto it = snapshot_.find(key); it != snapshot_.end()) {
    state = it->second;
  } else if (spec_template_.lora.enabled) {
    comm::Message msg;
    msg.type = comm::MessageType::kSnapshotExpert;
    msg.request_id = next_request_++;
    msg.layer = key.layer;
    msg.expert = key.expert;
    state = exchange(placement_.worker_of(layer, expert), std::move(msg))
                .payload;
  }
  restore_expert(worker, key, std::move(state));
  hosts.push_back(worker);
}

void MasterProcess::drop_standby(const ExpertKey& key, std::size_t worker) {
  auto it = standbys_.find(key);
  if (it == standbys_.end()) return;
  auto& hosts = it->second;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    if (hosts[i] != worker) continue;
    comm::Message fetch;
    fetch.type = comm::MessageType::kFetchExpert;
    fetch.request_id = next_request_++;
    fetch.layer = key.layer;
    fetch.expert = key.expert;
    exchange(worker, std::move(fetch));  // state discarded; primary is live
    hosts.erase(hosts.begin() + i);
    break;
  }
  if (hosts.empty()) standbys_.erase(it);
}

Tensor MasterProcess::recovery_state(const ExpertKey& key, std::size_t dead) {
  // Prefer a live standby: it was refreshed at the last snapshot and its
  // fetch is charged to the recovering step like any other traffic.
  if (auto it = standbys_.find(key); it != standbys_.end()) {
    for (const std::size_t s : it->second) {
      if (s == dead || dead_[s]) continue;
      try {
        comm::Message msg;
        msg.type = comm::MessageType::kSnapshotExpert;
        msg.request_id = next_request_++;
        msg.layer = key.layer;
        msg.expert = key.expert;
        recovery_bytes_ += msg.wire_size();
        comm::Message reply = exchange(s, std::move(msg));
        recovery_bytes_ += reply.wire_size();
        return std::move(reply.payload);
      } catch (const WorkerFailedError&) {
        // Standby host is failing too; fall through to the next source.
      }
    }
  }
  if (auto it = snapshot_.find(key); it != snapshot_.end()) return it->second;
  return {};  // fresh from the seed — lossy, but the step still completes
}

void MasterProcess::restore_expert(std::size_t w, const ExpertKey& key,
                                   Tensor state) {
  comm::Message msg;
  msg.type = comm::MessageType::kRestoreExpert;
  msg.request_id = next_request_++;
  msg.layer = key.layer;
  msg.expert = key.expert;
  msg.payload = std::move(state);
  recovery_bytes_ += msg.wire_size();
  recovery_bytes_ += exchange(w, std::move(msg)).wire_size();
}

void MasterProcess::respawn_worker(std::size_t w) {
  VELA_CHECK(w < workers_.size());
  VELA_CHECK_MSG(!dead_[w], "worker " << w << " was declared dead; "
                                      << "dead slots are never respawned");
  VELA_LOG_INFO("master") << "respawning worker " << w;
  // State restoration below is recovery traffic: meter it into the step's
  // recovery phase on top of the regular external/total accounting.
  comm::TrafficMeter::RecoveryScope recovery_scope(&meter_);
  // Tear down whatever is left: close both directions (unblocks a wedged
  // thread) and join. join() is a no-op if the thread already exited.
  links_[w]->close();
  if (workers_[w] != nullptr) workers_[w]->join();

  std::unique_ptr<comm::DuplexLink> fresh;
  if (remote_) {
    // respawn_within_budget gated on the hook; reaching here without one is
    // a driver bug, not a recoverable condition.
    VELA_CHECK_MSG(remote_respawner_ != nullptr,
                   "remote worker " << w << " respawn without a respawner");
    fresh = remote_respawner_(w);
    VELA_CHECK_MSG(fresh != nullptr,
                   "remote respawner produced no link for worker " << w);
  } else {
    fresh = comm::make_duplex_link(transport_, topology_.master_node(),
                                   topology_.worker_node(w), &meter_);
  }
  if (injector_ != nullptr) fresh->set_fault_injector(injector_, w);
  links_[w] = std::move(fresh);
  rlinks_[w]->reset(links_[w].get());

  if (!remote_) {
    WorkerSpec spec = spec_template_;
    spec.worker_id = w;
    spec.node = topology_.worker_node(w);
    // Start empty: every expert is reinstalled over the wire so recovery
    // traffic is measured, exactly like migration traffic. (A remote
    // replacement process also starts expert-less by contract — the
    // respawner relaunches vela_node with an empty assignment.)
    workers_[w] = std::make_unique<ExpertWorker>(
        spec, links_[w].get(), std::vector<ExpertKey>{}, &meter_);
    workers_[w]->start();
  }
  ++workers_recovered_;
  ++respawn_counts_[w];
  if (monitor_ != nullptr) monitor_->reset_peer(w);

  // Re-prime the fresh store with the last locality broadcast — the respawn
  // wiped it with everything else.
  if (paging_ && store_priorities_.size() > 0) {
    comm::Message prio;
    prio.type = comm::MessageType::kStorePriorities;
    prio.request_id = next_request_++;
    prio.layer = static_cast<std::uint32_t>(num_layers_);
    prio.expert = static_cast<std::uint32_t>(num_experts_);
    prio.payload = store_priorities_;
    recovery_bytes_ += prio.wire_size();
    recovery_bytes_ += exchange(w, std::move(prio)).wire_size();
  }

  for (const auto& [l, e] : placement_.experts_of(w)) {
    const ExpertKey key{static_cast<std::uint32_t>(l),
                        static_cast<std::uint32_t>(e)};
    restore_expert(w, key, recovery_state(key, w));
  }
  // Standby replicas that lived on the dead worker are rebuilt from the
  // current primaries (or the master snapshot when a primary is also down).
  for (auto& [key, hosts] : standbys_) {
    for (const std::size_t s : hosts) {
      if (s != w) continue;
      restore_expert(w, key, recovery_state(key, w));
    }
  }
}

bool MasterProcess::respawn_within_budget(std::size_t w) {
  if (dead_[w]) return false;
  if (remote_ && remote_respawner_ == nullptr) {
    // No way to restart a process from here: skip straight to the degrade
    // path. Killing a worker must shrink the fleet, never hang the step.
    VELA_LOG_WARN("master") << "remote worker " << w
                            << " failed and no respawner is installed; "
                            << "declaring it dead";
    mark_worker_dead(w);
    return false;
  }
  if (respawn_budget_ >= 0 && respawn_counts_[w] >= respawn_budget_) {
    VELA_LOG_WARN("master") << "worker " << w << " exhausted its respawn "
                            << "budget (" << respawn_budget_
                            << "); declaring it dead";
    mark_worker_dead(w);
    return false;
  }
  respawn_worker(w);
  return true;
}

RecoveryReport MasterProcess::recover_step() {
  // Everything in flight is void: replies may be lost, duplicated or stale.
  for (auto& rl : rlinks_) rl->abandon_outstanding();

  RecoveryReport report;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (dead_[w]) continue;
    if (probe_worker(w)) {
      if (monitor_ != nullptr) monitor_->record_ack(w);
      continue;
    }
    if (respawn_within_budget(w)) {
      ++report.respawned;
    } else {
      report.declared_dead.push_back(w);
    }
  }
  // Discard the in-flight step on the survivors (fresh respawns have
  // nothing to discard, but the abort is idempotent and cheap).
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (dead_[w]) continue;
    comm::Message msg;
    msg.type = comm::MessageType::kAbortStep;
    msg.request_id = next_request_++;
    try {
      exchange(w, std::move(msg));
    } catch (const WorkerFailedError&) {
      // Died between probe and abort: respawn (the fresh worker needs no
      // abort) or, out of budget, retire the slot.
      if (respawn_within_budget(w)) {
        ++report.respawned;
      } else {
        report.declared_dead.push_back(w);
      }
    }
  }
  return report;
}

std::size_t MasterProcess::num_live_workers() const {
  std::size_t live = 0;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (!dead_[w]) ++live;
  }
  return live;
}

void MasterProcess::mark_worker_dead(std::size_t w) {
  VELA_CHECK(w < workers_.size());
  if (dead_[w]) return;
  VELA_CHECK_MSG(num_live_workers() > 1,
                 "cannot declare the last live worker (" << w << ") dead");
  dead_[w] = true;
  if (monitor_ != nullptr) monitor_->mark_dead(w);
  // Tear down the channel and thread exactly like a respawn would, but
  // permanently: the slot is never rebuilt.
  links_[w]->close();
  if (workers_[w] != nullptr) workers_[w]->join();
  rlinks_[w]->abandon_outstanding();
  // Standby replicas hosted on the dead worker are gone with it.
  for (auto it = standbys_.begin(); it != standbys_.end();) {
    auto& hosts = it->second;
    hosts.erase(std::remove(hosts.begin(), hosts.end(), w), hosts.end());
    it = hosts.empty() ? standbys_.erase(it) : std::next(it);
  }
  VELA_LOG_WARN("master") << "worker " << w << " declared dead; "
                          << num_live_workers() << " worker(s) remain";
}

void MasterProcess::degrade_to(const placement::Placement& next) {
  VELA_CHECK(next.num_layers() == placement_.num_layers() &&
             next.num_experts() == placement_.num_experts());
  // Orphan migration is recovery traffic (metered into the recovery phase
  // on top of regular accounting) and tallied in recovery_bytes().
  comm::TrafficMeter::RecoveryScope recovery_scope(&meter_);
  std::size_t migrated = 0;
  for (std::size_t l = 0; l < next.num_layers(); ++l) {
    for (std::size_t e = 0; e < next.num_experts(); ++e) {
      const std::size_t from = placement_.worker_of(l, e);
      const std::size_t to = next.worker_of(l, e);
      if (from == to) {
        VELA_CHECK_MSG(!dead_[from], "degraded placement keeps ("
                                         << l << "," << e
                                         << ") on dead worker " << from);
        continue;
      }
      VELA_CHECK_MSG(dead_[from] && !dead_[to],
                     "degrade_to may only move orphans of dead workers to "
                     "live survivors; ("
                         << l << "," << e << ") moves " << from << " -> "
                         << to);
      const ExpertKey key{static_cast<std::uint32_t>(l),
                          static_cast<std::uint32_t>(e)};
      // Recover the state BEFORE retiring a standby on the destination: a
      // standby on `to` may itself be the best (freshest) recovery source.
      Tensor state = recovery_state(key, from);
      drop_standby(key, to);
      restore_expert(to, key, std::move(state));
      ++migrated;
    }
  }
  placement_ = next;
  broker_->set_placement(&placement_);
  VELA_LOG_INFO("master") << "degraded to " << num_live_workers()
                          << " worker(s); migrated " << migrated
                          << " orphaned expert(s)";
}

void MasterProcess::enable_heartbeat(const LivenessConfig& cfg,
                                     util::Clock* clock) {
  monitor_ = std::make_unique<HeartbeatMonitor>(
      workers_.size(), cfg, clock != nullptr ? clock : clock_);
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (dead_[w]) monitor_->mark_dead(w);
  }
}

RecoveryReport MasterProcess::heartbeat_tick() {
  RecoveryReport report;
  if (monitor_ == nullptr) return report;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (dead_[w] || !monitor_->due(w)) continue;
    if (probe_worker(w)) {
      monitor_->record_ack(w);
      continue;
    }
    monitor_->record_miss(w);
    if (monitor_->state(w) == PeerState::kSuspect) {
      VELA_LOG_WARN("master") << "worker " << w << " is suspect ("
                              << monitor_->consecutive_misses(w)
                              << " consecutive missed heartbeat(s))";
    } else if (monitor_->state(w) == PeerState::kDead) {
      if (respawn_within_budget(w)) {
        ++report.respawned;
      } else {
        report.declared_dead.push_back(w);
      }
    }
  }
  return report;
}

FaultStats MasterProcess::fault_stats() const {
  FaultStats total;
  for (const auto& rl : rlinks_) {
    const FaultStats& s = rl->stats();
    total.retransmissions += s.retransmissions;
    total.timeouts += s.timeouts;
    total.corrupt_dropped += s.corrupt_dropped;
    total.duplicates_discarded += s.duplicates_discarded;
  }
  return total;
}

void MasterProcess::shutdown() {
  if (down_) return;
  down_ = true;
  // Detach the injector first: teardown traffic is not a fault target (a
  // fault injected into kShutdown could hang the join below), and the
  // injector — owned by the caller — may already be destroyed when
  // shutdown() runs from the destructor.
  if (injector_ != nullptr) {
    injector_ = nullptr;
    for (auto& link : links_) link->set_fault_injector(nullptr, 0);
  }
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    comm::Message msg;
    msg.type = comm::MessageType::kShutdown;
    // Best effort: a severed link or an already-dead worker returns false,
    // which is fine — the close below guarantees the thread exits.
    links_[w]->to_worker.send(std::move(msg));
  }
  // close() wakes any worker blocked in receive() once its backlog drains,
  // so join() cannot hang even for workers that never saw the kShutdown.
  // Remote fleets have no threads to join — the kShutdown plus the goodbye
  // that close() sends let each vela_node process exit on its own.
  for (auto& link : links_) link->close();
  for (auto& worker : workers_) {
    if (worker != nullptr) worker->join();
  }
}

}  // namespace vela::core
