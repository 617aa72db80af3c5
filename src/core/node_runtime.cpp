#include "core/node_runtime.h"

#include <utility>

#include "core/expert_worker.h"
#include "data/batch.h"
#include "util/check.h"
#include "util/logging.h"

namespace vela::core {

int run_worker_node(const Scenario& scenario, std::uint32_t rank,
                    std::uint16_t port, std::uint64_t session_id,
                    bool fresh_start, comm::ReconnectPolicy reconnect) {
  const VelaSystemConfig cfg = scenario.system_config(/*remote=*/true);
  cluster::ClusterTopology topology(cfg.cluster);
  VELA_CHECK_MSG(rank < topology.num_workers(),
                 "rank " << rank << " out of range for a " << scenario.workers
                         << "-worker scenario");
  const std::size_t node = topology.worker_node(rank);
  const WorkerSpec spec = make_worker_spec(cfg, rank, node);

  std::vector<ExpertKey> assigned;
  if (!fresh_start) {
    const placement::Placement p = initial_placement(
        cfg.model.num_layers, cfg.model.num_experts, topology.num_workers());
    for (const auto& [l, e] : p.experts_of(rank)) {
      assigned.push_back(
          {static_cast<std::uint32_t>(l), static_cast<std::uint32_t>(e)});
    }
  }

  // Capacity travels in the kIdent handshake; the master cross-checks it
  // against its own placement, so a scenario mismatch between launcher and
  // worker dies at connect time, not as silent divergence mid-run.
  auto link = comm::make_worker_remote_link(
      port, rank, assigned.size(), session_id, topology.master_node(), node,
      reconnect);
  VELA_LOG_INFO("node") << "worker " << rank << " connected to port " << port
                        << " hosting " << assigned.size() << " expert(s)";

  ExpertWorker worker(spec, link.get(), std::move(assigned));
  worker.start();
  worker.join();  // exits on kShutdown, injected crash, or link close
  VELA_LOG_INFO("node") << "worker " << rank << " served "
                        << worker.requests_served() << " request(s); exiting";
  return 0;
}

std::unique_ptr<MasterProcess> make_remote_master(
    const Scenario& scenario, comm::PeerListener* listener,
    std::chrono::milliseconds accept_timeout, comm::ReconnectPolicy reconnect,
    util::Clock* clock) {
  const VelaSystemConfig cfg = scenario.system_config(/*remote=*/true);
  cluster::ClusterTopology topology(cfg.cluster);
  RemoteFleetConfig remote;
  remote.listener = listener;
  remote.accept_timeout = accept_timeout;
  remote.reconnect = reconnect;
  remote.clock = clock;
  return std::make_unique<MasterProcess>(
      topology, make_worker_spec(cfg, 0, 0),
      initial_placement(cfg.model.num_layers, cfg.model.num_experts,
                        topology.num_workers()),
      cfg.model.num_layers, cfg.model.num_experts, remote);
}

MultiProcCluster::MultiProcCluster(const Scenario& scenario,
                                   const MultiProcOptions& opts)
    : scenario_(scenario),
      opts_(opts),
      corpus_(scenario.corpus_config(), scenario.corpus_seed) {
  VELA_CHECK_MSG(!opts_.node_binary.empty(),
                 "MultiProcCluster needs the vela_node binary path");
  comm::PeerListenerConfig lc;
  lc.port = 0;  // ephemeral: collisions impossible by construction
  lc.clock = opts_.clock;
  listener_ = comm::make_peer_listener(lc);

  // Spawn ALL workers before adopting any: they dial concurrently, which is
  // exactly the startup pattern the listener's mailboxes exist for.
  children_.reserve(scenario_.workers);
  for (std::size_t w = 0; w < scenario_.workers; ++w) {
    children_.push_back(std::make_unique<cluster::ChildProcess>(
        worker_spec(w, /*fresh_start=*/false)));
  }
  auto master = make_remote_master(scenario_, listener_.get(),
                                   opts_.accept_timeout, opts_.reconnect,
                                   opts_.clock);
  system_ = std::make_unique<VelaSystem>(
      scenario_.system_config(/*remote=*/true), std::move(master), &corpus_);
}

MultiProcCluster::~MultiProcCluster() { shutdown_and_wait(); }

cluster::ProcessSpec MultiProcCluster::worker_spec(std::size_t w,
                                                   bool fresh_start) const {
  cluster::ProcessSpec spec;
  spec.binary = opts_.node_binary;
  spec.args = {"--role",     "worker",
               "--rank",     std::to_string(w),
               "--port",     std::to_string(listener_->bound_port()),
               "--scenario", scenario_.serialize()};
  if (fresh_start) spec.args.push_back("--fresh");
  if (!opts_.log_dir.empty()) {
    spec.log_path = opts_.log_dir + "/worker_" + std::to_string(w) +
                    (fresh_start ? "_respawn" : "") + ".log";
  }
  return spec;
}

void MultiProcCluster::relaunch_worker(std::size_t w) {
  VELA_CHECK(w < children_.size());
  // Reap whatever is left of the previous incarnation first (it was killed
  // or crashed — a live worker is never relaunched).
  children_[w]->kill();
  (void)children_[w]->wait();
  children_[w] = std::make_unique<cluster::ChildProcess>(
      worker_spec(w, /*fresh_start=*/true));
}

int MultiProcCluster::shutdown_and_wait() {
  if (down_) return 0;
  down_ = true;
  // ~VelaSystem → MasterProcess::shutdown(): kShutdown to every worker plus
  // a goodbye-close on every lane, so each vela_node exits by itself.
  system_.reset();
  const int worst = cluster::wait_all(children_);
  listener_->stop();
  return worst;
}

FineTuneArtifacts run_fine_tune(VelaSystem& vela, const Scenario& scenario,
                                const data::SyntheticCorpus& corpus,
                                const std::string& checkpoint_path) {
  data::BatchIterator it(
      corpus.make_dataset(scenario.dataset_sequences,
                          scenario.sequence_length),
      scenario.batch_size, scenario.batch_seed, /*shuffle=*/false);
  FineTuneArtifacts art;
  comm::TrafficMeter& meter = vela.master().meter();
  for (std::size_t step = 0; step < scenario.steps; ++step) {
    art.losses.push_back(vela.train_step(it.next()).loss);
    const std::size_t i = meter.num_steps() - 1;
    art.step_external_bytes.push_back(meter.step_external_bytes(i));
    art.step_total_bytes.push_back(meter.step_total_bytes(i));
    art.step_recovery_bytes.push_back(meter.step_recovery_bytes(i));
  }
  art.requests = vela.master().broker().requests_sent();
  art.lifetime_external_bytes = meter.lifetime_external_bytes();
  art.lifetime_total_bytes = meter.lifetime_total_bytes();
  if (!checkpoint_path.empty()) vela.save_checkpoint(checkpoint_path);
  return art;
}

FineTuneArtifacts run_in_process(const Scenario& scenario,
                                 comm::TransportKind kind,
                                 const std::string& checkpoint_path) {
  VelaSystemConfig cfg = scenario.system_config(/*remote=*/false);
  cfg.transport = kind;
  data::SyntheticCorpus corpus(scenario.corpus_config(),
                               scenario.corpus_seed);
  VelaSystem vela(cfg, &corpus);
  return run_fine_tune(vela, scenario, corpus, checkpoint_path);
}

}  // namespace vela::core
