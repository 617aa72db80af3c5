// Per-process runtimes of the multi-process deployment mode (DESIGN.md §12).
//
// A deployment is one master process plus N vela_node worker processes.
// Everything here is derived from a shared Scenario string, so every
// process reconstructs bit-identical configuration independently:
//
//   * run_worker_node — the body of `vela_node --role worker`: rebuild the
//     worker's spec and expert assignment from the scenario, dial the
//     master's listener twice (one connection per lane), and serve requests
//     until kShutdown / link close;
//   * make_remote_master — the master side: adopt N identified workers from
//     a PeerListener into a MasterProcess (remote-fleet ctor), ready to be
//     wrapped in a VelaSystem;
//   * MultiProcCluster — the whole topology driven from the calling process
//     (the in-tree test fixture and the bench --processes mode): listener on
//     an ephemeral port, N spawned vela_node children with per-process log
//     capture, the remote master, and the VelaSystem on top;
//   * run_fine_tune — the scenario's fine-tuning loop plus the artifact
//     bundle (losses, per-step per-phase byte ledgers, request counts) that
//     the cross-mode bit-exactness gate compares between modes.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/launcher.h"
#include "comm/peer_listener.h"
#include "core/scenario.h"
#include "core/vela_system.h"
#include "data/corpus.h"

namespace vela::core {

// Runs a worker process: hosts the experts `initial_placement` assigns to
// `rank` (none when `fresh_start` — the respawn contract: a replacement
// process starts empty and is restocked over the wire), dials the master's
// `port`, serves until shutdown. `session_id` must be unique per process
// incarnation (vela_node uses its pid); reconnects re-identify with it.
// `reconnect` bounds both lanes' session resume. Returns the process exit
// code (0 = clean shutdown).
int run_worker_node(const Scenario& scenario, std::uint32_t rank,
                    std::uint16_t port, std::uint64_t session_id,
                    bool fresh_start = false,
                    comm::ReconnectPolicy reconnect = {});

// Builds the master's fleet by adopting `scenario.workers` identified peers
// from `listener`. Construction fails loudly if a worker does not dial in
// within `accept_timeout`.
std::unique_ptr<MasterProcess> make_remote_master(
    const Scenario& scenario, comm::PeerListener* listener,
    std::chrono::milliseconds accept_timeout,
    comm::ReconnectPolicy reconnect = {}, util::Clock* clock = nullptr);

struct MultiProcOptions {
  std::string node_binary;  // path to the vela_node executable
  std::string log_dir;      // per-worker log files land here ("" = inherit)
  std::chrono::milliseconds accept_timeout{30000};
  comm::ReconnectPolicy reconnect;  // master-side session-resume policy
  util::Clock* clock = nullptr;
};

// One whole multi-process topology, master side in this process. The
// destructor shuts the system down (workers exit on kShutdown) and reaps
// every child; kill-a-worker tests reach the children via worker().
class MultiProcCluster {
 public:
  MultiProcCluster(const Scenario& scenario, const MultiProcOptions& opts);
  ~MultiProcCluster();

  MultiProcCluster(const MultiProcCluster&) = delete;
  MultiProcCluster& operator=(const MultiProcCluster&) = delete;

  VelaSystem& system() { return *system_; }
  const Scenario& scenario() const { return scenario_; }
  const data::SyntheticCorpus& corpus() const { return corpus_; }
  comm::PeerListener& listener() { return *listener_; }
  std::uint16_t port() const { return listener_->bound_port(); }
  cluster::ChildProcess& worker(std::size_t w) { return *children_[w]; }
  std::size_t num_workers() const { return children_.size(); }

  // Spawns a replacement vela_node for rank `w` (fresh start, new pid =
  // new session id) — the building block of a remote respawner hook.
  void relaunch_worker(std::size_t w);

  // Graceful teardown (idempotent; the destructor calls it): shutdown the
  // fleet, reap all children, return the worst exit code.
  int shutdown_and_wait();

 private:
  cluster::ProcessSpec worker_spec(std::size_t w, bool fresh_start) const;

  Scenario scenario_;
  MultiProcOptions opts_;
  data::SyntheticCorpus corpus_;
  std::unique_ptr<comm::PeerListener> listener_;
  std::vector<std::unique_ptr<cluster::ChildProcess>> children_;
  std::unique_ptr<VelaSystem> system_;
  bool down_ = false;
};

// What the cross-mode bit-exactness gate compares (ISSUE: losses, weights,
// per-phase TrafficMeter ledgers, broker request counts). Weights are
// compared via the serialized checkpoint when `checkpoint_path` is given.
struct FineTuneArtifacts {
  std::vector<float> losses;
  std::vector<std::uint64_t> step_external_bytes;
  std::vector<std::uint64_t> step_total_bytes;
  std::vector<std::uint64_t> step_recovery_bytes;
  std::uint64_t lifetime_external_bytes = 0;
  std::uint64_t lifetime_total_bytes = 0;
  std::uint64_t requests = 0;
};

// Runs the scenario's fine-tuning loop (scenario.steps steps over the
// scenario's deterministic batch schedule) on an already-built system.
FineTuneArtifacts run_fine_tune(VelaSystem& vela, const Scenario& scenario,
                                const data::SyntheticCorpus& corpus,
                                const std::string& checkpoint_path = "");

// The in-process reference half of the cross-mode gate: same scenario, same
// corpus, fleet as threads over `kind` transport.
FineTuneArtifacts run_in_process(const Scenario& scenario,
                                 comm::TransportKind kind,
                                 const std::string& checkpoint_path = "");

}  // namespace vela::core
