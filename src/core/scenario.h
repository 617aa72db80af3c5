// A serializable run description shared by every process of a multi-process
// deployment (DESIGN.md §12).
//
// The cross-mode bit-exactness gate requires the master process and every
// vela_node worker to reconstruct IDENTICAL configuration — model dims,
// seeds, cluster shape, corpus — from nothing but a string handed across an
// exec boundary. Scenario is that string's schema: a flat key=value record
// with presets resolved by name, so the launcher command line stays small
// and the parse is trivially deterministic. Unknown keys are an error (a
// typo must not silently fall back to a default and diverge the run).
#pragma once

#include <cstdint>
#include <string>

#include "cluster/topology.h"
#include "core/vela_system.h"
#include "data/corpus.h"
#include "model/config.h"

namespace vela::core {

struct Scenario {
  // Model preset by name: "tiny_test" | "tiny_mistral".
  std::string model = "tiny_test";
  // Worker count N. The cluster is N+1 nodes x 1 GPU with an exclusive
  // master node, so every master<->worker link is cross-node and the sum of
  // per-link bytes equals the meter's external bytes exactly (the
  // --processes bench emitters assert this row by row).
  std::size_t workers = 6;
  std::uint64_t seed = 21;
  // Wire precision (DESIGN.md §13). Serialized by NAME, and "default"
  // is serialized too: a remote vela_node must resolve VELA_WIRE_DTYPE from
  // its own (inherited) environment exactly like the master does, so the
  // scenario pins the config-level request, not the resolved codec.
  comm::WireDtype wire_dtype = comm::WireDtype::kDefault;
  unsigned q8_block = 0;  // int8 block length; 0 → VELA_WIRE_BLOCK, then 64
  // Corpus preset by name: "wikitext" | "alpaca" | "shakespeare" | "uniform"
  // (vocab follows the model preset).
  std::string corpus = "wikitext";
  std::uint64_t corpus_seed = 77;
  std::size_t corpus_domains = 6;
  std::size_t dataset_sequences = 6;
  std::size_t sequence_length = 8;
  std::size_t batch_size = 3;
  std::uint64_t batch_seed = 4;
  std::size_t steps = 2;

  model::ModelConfig model_config() const;
  cluster::ClusterConfig cluster_config() const;
  data::CorpusConfig corpus_config() const;
  // transport is pinned to kSocket when `remote`, else kDefault — the
  // in-process halves of the cross-mode gate pass remote=false.
  VelaSystemConfig system_config(bool remote) const;

  // "key=value;key=value;..." — no spaces, exec-argv safe.
  std::string serialize() const;
  // Inverse of serialize(). Fails a VELA_CHECK on unknown keys, malformed
  // pairs or non-numeric values; round-trips exactly.
  static Scenario parse(const std::string& text);
};

}  // namespace vela::core
