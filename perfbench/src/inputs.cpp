#include "inputs.h"

#include <algorithm>

namespace perfbench {

namespace {

// Independent generator stream per (seed, step).
vela::Rng stream(std::uint64_t seed, std::uint64_t step) {
  return vela::Rng(seed * 0x9E3779B97F4A7C15ULL ^ (step + 0x51ED2701ULL));
}

constexpr std::uint64_t kProfileStream = ~0ULL;
constexpr std::size_t kDriftPeriod = 24;
// Rejection-sampling cap for a drifted sequence; far above the expected
// tries (the rarest domain is drawn ~7% of the time).
constexpr int kMaxTries = 10000;

}  // namespace

InputGenerator::InputGenerator(const vela::data::SyntheticCorpus& corpus,
                               InputSpec spec, std::uint64_t seed)
    : corpus_(corpus),
      spec_(spec),
      seed_(seed),
      base_weights_(corpus.domain_distribution()) {}

std::vector<double> InputGenerator::domain_weights(std::size_t step) const {
  if (!spec_.drift) return base_weights_;
  const std::size_t d = base_weights_.size();
  const std::size_t shift = (step / kDriftPeriod) % d;
  std::vector<double> w(d);
  for (std::size_t i = 0; i < d; ++i) w[(i + shift) % d] = base_weights_[i];
  return w;
}

std::size_t InputGenerator::domain_of(
    const std::vector<std::size_t>& seq) const {
  std::vector<std::size_t> votes(corpus_.num_domains(), 0);
  for (std::size_t t : seq) ++votes[corpus_.domain_of_token(t)];
  return static_cast<std::size_t>(
      std::max_element(votes.begin(), votes.end()) - votes.begin());
}

std::vector<std::size_t> InputGenerator::sequence(std::size_t step,
                                                  vela::Rng& rng) const {
  if (!spec_.drift) return corpus_.sample_sequence(spec_.seq_len, rng);
  const std::size_t want = rng.categorical(domain_weights(step));
  std::vector<std::size_t> seq;
  for (int i = 0; i < kMaxTries; ++i) {
    seq = corpus_.sample_sequence(spec_.seq_len, rng);
    if (domain_of(seq) == want) break;
  }
  return seq;
}

Batch InputGenerator::batch(std::size_t step) const {
  vela::Rng rng = stream(seed_, step);
  Batch out;
  out.reserve(spec_.batch_size);
  for (std::size_t i = 0; i < spec_.batch_size; ++i) {
    out.push_back(sequence(step, rng));
  }
  return out;
}

Batch InputGenerator::profile_set(std::size_t count) const {
  vela::Rng rng = stream(seed_, kProfileStream);
  Batch out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(sequence(0, rng));
  return out;
}

std::uint64_t digest(const Batch& batch, std::uint64_t h) {
  for (const auto& seq : batch) {
    for (std::size_t t : seq) {
      for (int b = 0; b < 8; ++b) {
        h ^= (static_cast<std::uint64_t>(t) >> (8 * b)) & 0xFFu;
        h *= 1099511628211ULL;
      }
    }
    h ^= 0xFFu;  // sequence separator
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace perfbench
