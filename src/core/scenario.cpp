#include "core/scenario.h"

#include <cstdlib>
#include <sstream>
#include <vector>

#include "util/check.h"

namespace vela::core {

namespace {

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  VELA_CHECK_MSG(!value.empty(), "scenario: empty value for " << key);
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  VELA_CHECK_MSG(end != nullptr && *end == '\0',
                 "scenario: non-numeric value for " << key << ": " << value);
  return static_cast<std::uint64_t>(parsed);
}

}  // namespace

model::ModelConfig Scenario::model_config() const {
  model::ModelConfig cfg;
  if (model == "tiny_test") {
    cfg = model::ModelConfig::tiny_test();
  } else if (model == "tiny_mistral") {
    cfg = model::ModelConfig::tiny_mistral();
  } else {
    VELA_CHECK_MSG(false, "scenario: unknown model preset: " << model);
  }
  return cfg;
}

cluster::ClusterConfig Scenario::cluster_config() const {
  VELA_CHECK_MSG(workers >= 1, "scenario: needs at least one worker");
  cluster::ClusterConfig cfg = cluster::ClusterConfig::paper_testbed();
  cfg.num_nodes = workers + 1;  // master node + one node per worker
  cfg.gpus_per_node = 1;
  cfg.master_device = 0;
  cfg.master_exclusive = true;
  return cfg;
}

data::CorpusConfig Scenario::corpus_config() const {
  const std::size_t vocab = model_config().vocab;
  if (corpus == "wikitext") {
    return data::CorpusConfig::wikitext_like(vocab, corpus_domains);
  }
  if (corpus == "alpaca") {
    return data::CorpusConfig::alpaca_like(vocab, corpus_domains);
  }
  if (corpus == "shakespeare") {
    return data::CorpusConfig::shakespeare_like(vocab, corpus_domains);
  }
  if (corpus == "uniform") {
    return data::CorpusConfig::uniform(vocab, corpus_domains);
  }
  VELA_CHECK_MSG(false, "scenario: unknown corpus preset: " << corpus);
  return {};
}

VelaSystemConfig Scenario::system_config(bool remote) const {
  VelaSystemConfig cfg;
  cfg.model = model_config();
  cfg.cluster = cluster_config();
  cfg.seed = seed;
  cfg.wire_dtype = wire_dtype;
  cfg.q8_block = q8_block;
  cfg.transport =
      remote ? comm::TransportKind::kSocket : comm::TransportKind::kDefault;
  return cfg;
}

std::string Scenario::serialize() const {
  std::ostringstream out;
  out << "model=" << model << ";workers=" << workers << ";seed=" << seed
      << ";wire_dtype=" << comm::wire_dtype_name(wire_dtype)
      << ";q8_block=" << q8_block << ";corpus=" << corpus << ";corpus_seed=" << corpus_seed
      << ";corpus_domains=" << corpus_domains
      << ";dataset_sequences=" << dataset_sequences
      << ";sequence_length=" << sequence_length << ";batch_size=" << batch_size
      << ";batch_seed=" << batch_seed << ";steps=" << steps;
  return out.str();
}

Scenario Scenario::parse(const std::string& text) {
  Scenario sc;
  std::stringstream in(text);
  std::string pair;
  while (std::getline(in, pair, ';')) {
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    VELA_CHECK_MSG(eq != std::string::npos && eq > 0,
                   "scenario: malformed pair: " << pair);
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    if (key == "model") {
      sc.model = value;
    } else if (key == "workers") {
      sc.workers = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "seed") {
      sc.seed = parse_u64(key, value);
    } else if (key == "wire_dtype") {
      VELA_CHECK_MSG(!value.empty(), "scenario: empty value for " << key);
      sc.wire_dtype = comm::parse_wire_dtype(value);
    } else if (key == "q8_block") {
      sc.q8_block = static_cast<unsigned>(parse_u64(key, value));
    } else if (key == "corpus") {
      sc.corpus = value;
    } else if (key == "corpus_seed") {
      sc.corpus_seed = parse_u64(key, value);
    } else if (key == "corpus_domains") {
      sc.corpus_domains = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "dataset_sequences") {
      sc.dataset_sequences = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "sequence_length") {
      sc.sequence_length = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "batch_size") {
      sc.batch_size = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "batch_seed") {
      sc.batch_seed = parse_u64(key, value);
    } else if (key == "steps") {
      sc.steps = static_cast<std::size_t>(parse_u64(key, value));
    } else {
      VELA_CHECK_MSG(false, "scenario: unknown key: " << key);
    }
  }
  // Presets must resolve; surface a typo at parse time, not mid-run.
  (void)sc.model_config();
  (void)sc.corpus_config();
  return sc;
}

}  // namespace vela::core
