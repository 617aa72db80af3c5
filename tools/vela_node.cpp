// vela_node: one process of a multi-process VELA deployment (DESIGN.md §12).
//
// Roles:
//   --role master  host the PeerListener, adopt the worker fleet, run the
//                  scenario's fine-tuning loop, print the artifact summary.
//                  Announces "VELA_PORT <port>" on stdout once listening so a
//                  launcher (or a human) can start workers against it.
//   --role worker  dial the master's port, host this rank's experts, serve
//                  until shutdown. --fresh starts with zero experts (the
//                  respawn contract: replacements are restocked on the wire).
//
// Every process rebuilds identical configuration from the shared --scenario
// string; nothing is negotiated beyond the kIdent handshake.
//
//   vela_node --role master --scenario "workers=6;steps=2" &
//   vela_node --role worker --rank 0 --port <announced> --scenario "..."
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "comm/peer_listener.h"
#include "core/node_runtime.h"
#include "core/scenario.h"

using namespace vela;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --role master --scenario STR [--port P] "
               "[--checkpoint PATH]\n"
               "       %s --role worker --scenario STR --rank R --port P "
               "[--fresh]\n",
               argv0, argv0);
  return 2;
}

int run_master(const core::Scenario& scenario, std::uint16_t port,
               const std::string& checkpoint_path) {
  comm::PeerListenerConfig lc;
  lc.port = port;
  auto listener = comm::make_peer_listener(lc);
  // The launcher scrapes this exact line from the log; keep it first and
  // flushed so workers can dial before the fleet-adoption timeout.
  std::printf("VELA_PORT %u\n", static_cast<unsigned>(listener->bound_port()));
  std::fflush(stdout);

  auto master = core::make_remote_master(
      scenario, listener.get(), std::chrono::milliseconds(30000),
      comm::default_reconnect_policy());
  data::SyntheticCorpus corpus(scenario.corpus_config(), scenario.corpus_seed);
  core::VelaSystem vela(scenario.system_config(/*remote=*/true),
                        std::move(master), &corpus);

  const core::FineTuneArtifacts art =
      core::run_fine_tune(vela, scenario, corpus, checkpoint_path);
  for (std::size_t s = 0; s < art.losses.size(); ++s) {
    std::printf("step %zu: loss %.6f, external %llu B, total %llu B\n", s,
                static_cast<double>(art.losses[s]),
                static_cast<unsigned long long>(art.step_external_bytes[s]),
                static_cast<unsigned long long>(art.step_total_bytes[s]));
  }
  std::printf("lifetime: external %llu B, total %llu B, requests %llu\n",
              static_cast<unsigned long long>(art.lifetime_external_bytes),
              static_cast<unsigned long long>(art.lifetime_total_bytes),
              static_cast<unsigned long long>(art.requests));
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string role, scenario_str, checkpoint_path;
  long rank = -1, port = 0;
  bool fresh = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--role") {
      role = value();
    } else if (arg == "--scenario") {
      scenario_str = value();
    } else if (arg == "--rank") {
      rank = std::atol(value());
    } else if (arg == "--port") {
      port = std::atol(value());
    } else if (arg == "--checkpoint") {
      checkpoint_path = value();
    } else if (arg == "--fresh") {
      fresh = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (scenario_str.empty() || (role != "master" && role != "worker")) {
    return usage(argv[0]);
  }
  const core::Scenario scenario = core::Scenario::parse(scenario_str);

  if (role == "master") {
    if (port < 0 || port > 65535) return usage(argv[0]);
    return run_master(scenario, static_cast<std::uint16_t>(port),
                      checkpoint_path);
  }
  if (rank < 0 || port <= 0 || port > 65535) return usage(argv[0]);
  // The pid is this incarnation's transport session id: unique per process
  // on one host, so a respawned rank never aliases its predecessor's session.
  return core::run_worker_node(scenario, static_cast<std::uint32_t>(rank),
                               static_cast<std::uint16_t>(port),
                               static_cast<std::uint64_t>(::getpid()), fresh,
                               comm::default_reconnect_policy());
}
