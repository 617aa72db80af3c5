// Seeded input generation for the fine-tune benchmark.
//
// Every batch a workload feeds the program comes from an InputGenerator: a
// pure function of (seed, step), so the same seed gives the same inputs and
// the program sees nothing else. The corpus *structure* (which tokens belong
// to which domain) is fixed; the sequences drawn from it, the profiling set
// and the drift schedule all derive from the seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/corpus.h"
#include "util/rng.h"

namespace perfbench {

using Batch = std::vector<std::vector<std::size_t>>;

struct InputSpec {
  std::size_t batch_size = 12;
  std::size_t seq_len = 32;
  // Drifting domain mix: the corpus popularity law, rotated one domain
  // every 24 steps so the hottest domain keeps moving.
  bool drift = false;
};

class InputGenerator {
 public:
  InputGenerator(const vela::data::SyntheticCorpus& corpus, InputSpec spec,
                 std::uint64_t seed);

  // The batch of `step`.
  Batch batch(std::size_t step) const;
  // `count` sequences for the profiling pass, drawn at step 0's mix.
  Batch profile_set(std::size_t count) const;

  // Tokens a batch trains on (next-token targets).
  std::size_t tokens_per_batch() const {
    return spec_.batch_size * (spec_.seq_len - 1);
  }

 private:
  // Domain mix of `step` (sums to 1). Constant when the spec has no drift.
  std::vector<double> domain_weights(std::size_t step) const;
  std::vector<std::size_t> sequence(std::size_t step, vela::Rng& rng) const;
  // Majority domain of a sequence under the corpus' token→domain map.
  std::size_t domain_of(const std::vector<std::size_t>& seq) const;

  const vela::data::SyntheticCorpus& corpus_;
  InputSpec spec_;
  std::uint64_t seed_;
  std::vector<double> base_weights_;  // the corpus' own domain pmf
};

// FNV-1a over every token of every sequence, chained through `h`.
std::uint64_t digest(const Batch& batch,
                     std::uint64_t h = 14695981039346656037ULL);

}  // namespace perfbench
