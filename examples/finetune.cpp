// Fine-tuning scenarios on the TinyMistral-like model, one per corpus:
//
//   wikitext     the paper's WikiText task: a concentrated wikitext-like
//                corpus. Each step's routing is replayed through the traffic
//                models, so VELA, sequential placement and EP are compared
//                on the SAME routing, with b taken from the system's codec.
//   alpaca       the paper's Alpaca task: flatter domain usage, so less
//                locality to exploit. Reports the sequential → VELA traffic
//                reduction on alpaca-like vs wikitext-like data (the
//                Fig. 5(a) vs 5(b) contrast).
//   shakespeare  real text: the embedded Tiny-Shakespeare sample, char-level
//                — the closest runnable analogue of the paper's §III
//                measurement study. Perplexity before/after and a sample.
//
// Usage: finetune [--corpus wikitext|alpaca|shakespeare] [--steps N]
#include <cstdio>
#include <string>
#include <utility>

#include "core/profiler.h"
#include "core/step_simulator.h"
#include "core/vela_system.h"
#include "data/batch.h"
#include "data/text_corpus.h"
#include "ep/expert_parallel.h"
#include "model/evaluate.h"
#include "model/generate.h"
#include "placement/sequential.h"
#include "util/argparse.h"
#include "util/stats.h"

using namespace vela;

namespace {

core::VelaSystemConfig base_config(std::uint64_t seed) {
  core::VelaSystemConfig cfg;
  cfg.model = model::ModelConfig::tiny_mistral();
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.seed = seed;
  return cfg;
}

void run_wikitext(std::size_t steps) {
  core::VelaSystemConfig cfg = base_config(11);
  cfg.adamw.lr = 1e-4f;
  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 21);
  core::VelaSystem vela(cfg, &corpus);
  std::printf("fine-tuning %s on %s\n", cfg.model.to_string().c_str(),
              corpus.config().name.c_str());

  const auto dataset = corpus.make_dataset(64, 20);
  data::BatchIterator batches(dataset, 8, 3);

  // The paper's workflow: profile first, then place, then fine-tune.
  const double tokens_per_step = 8.0 * 19.0;
  vela.profile(dataset, 8);
  vela.optimize_placement(tokens_per_step);

  // Companion accountants replay the live routing through the baselines,
  // charging each token row what the live broker's codec charges.
  const comm::WireCodec& codec = vela.master().broker().codec();
  const std::size_t row_bytes = codec.row_bytes(cfg.model.model_dim);
  const core::VelaTrafficModel traffic(&vela.topology(), {row_bytes});
  const placement::Placement seq =
      placement::SequentialPlacement().place(core::build_placement_problem(
          vela.profiled_stats()->probability_matrix(), cfg.model,
          vela.topology(), tokens_per_step, cfg.capacity_slack, codec));
  const ep::ExpertParallelModel ep_model(&vela.topology(), {row_bytes});
  const double nodes = static_cast<double>(vela.topology().num_nodes());

  RunningStat loss_stat, vela_mb, seq_mb, ep_mb;
  for (std::size_t step = 0; step < steps; ++step) {
    auto report = vela.train_step(batches.next());
    loss_stat.add(report.loss);
    vela_mb.add(report.external_mb_per_node);
    const auto plans = vela.model().last_plans();
    const double seq_now =
        double(traffic.external_bytes(traffic.account_step(plans, seq))) /
        1e6 / nodes;
    const double ep_now =
        double(ep_model.external_bytes(ep_model.account_step(plans))) / 1e6 /
        nodes;
    seq_mb.add(seq_now);
    ep_mb.add(ep_now);
    if (step % 10 == 0) {
      std::printf("step %2zu: loss %.4f | traffic MB/node: vela %.3f, "
                  "sequential %.3f, EP %.3f\n",
                  step, report.loss, report.external_mb_per_node, seq_now,
                  ep_now);
    }
  }
  std::printf("\nafter %zu steps (wire %s, %zu B/token):\n", steps,
              comm::wire_dtype_name(codec.dtype), row_bytes);
  std::printf("  loss: %.4f -> %.4f\n", loss_stat.max(), loss_stat.min());
  std::printf("  mean cross-node traffic (MB/node/step): vela %.3f | "
              "sequential %.3f | EP %.3f\n",
              vela_mb.mean(), seq_mb.mean(), ep_mb.mean());
  std::printf("  vela vs sequential: %.1f%% less traffic\n",
              100.0 * (1.0 - vela_mb.mean() / seq_mb.mean()));
}

// Fine-tunes `steps` under the boot (sequential) layout, then profiles,
// places and fine-tunes `steps` more. Returns the mean traffic of each half.
std::pair<double, double> sequential_then_vela(
    const data::CorpusConfig& corpus_cfg, std::uint64_t seed,
    std::size_t steps) {
  data::SyntheticCorpus corpus(corpus_cfg, seed + 1);
  core::VelaSystem vela(base_config(seed), &corpus);
  const auto dataset = corpus.make_dataset(48, 16);
  data::BatchIterator batches(dataset, 8, seed + 2);

  RunningStat seq_mb, vela_mb;
  for (std::size_t step = 0; step < steps; ++step) {
    seq_mb.add(vela.train_step(batches.next()).external_mb_per_node);
  }
  vela.profile(dataset, 8);
  vela.optimize_placement(8.0 * 15.0);
  for (std::size_t step = 0; step < steps; ++step) {
    vela_mb.add(vela.train_step(batches.next()).external_mb_per_node);
  }
  return {seq_mb.mean(), vela_mb.mean()};
}

void run_alpaca(std::size_t steps) {
  const auto model_cfg = model::ModelConfig::tiny_mistral();
  std::printf("instruction-tuning scenario: %s\n",
              model_cfg.to_string().c_str());

  const auto [alpaca_seq, alpaca_vela] = sequential_then_vela(
      data::CorpusConfig::alpaca_like(model_cfg.vocab, 6), 31, steps);
  const auto [wiki_seq, wiki_vela] = sequential_then_vela(
      data::CorpusConfig::wikitext_like(model_cfg.vocab, 6), 31, steps);

  std::printf("\ncross-node traffic, sequential -> VELA (MB/node/step):\n");
  std::printf("  alpaca-like  : %.3f -> %.3f  (%.1f%% reduction)\n",
              alpaca_seq, alpaca_vela,
              100.0 * (1.0 - alpaca_vela / alpaca_seq));
  std::printf("  wikitext-like: %.3f -> %.3f  (%.1f%% reduction)\n", wiki_seq,
              wiki_vela, 100.0 * (1.0 - wiki_vela / wiki_seq));
  std::printf("\n=> both tasks benefit; the concentrated wikitext-like corpus"
              "\n   benefits more — the Fig. 5(a) vs 5(b) contrast.\n");
}

void run_shakespeare(std::size_t steps) {
  const std::size_t batch_size = 8;
  const std::size_t seq_len = 32;
  data::TextCorpus text(data::TextCorpus::tiny_shakespeare_sample(), seq_len,
                        seq_len / 2);
  std::printf("corpus: %zu sequences of %zu chars, vocab %zu\n",
              text.num_sequences(), seq_len, text.vocab_size());

  core::VelaSystemConfig cfg = base_config(3);
  cfg.model.vocab = text.vocab_size();
  cfg.adamw.lr = 1e-3f;
  // Planting still needs a domain structure; real text gets one from the
  // char-id partition (uninformative but harmless — locality emerges milder).
  data::SyntheticCorpus plant_corpus(
      data::CorpusConfig::shakespeare_like(cfg.model.vocab, 6), 9);
  core::VelaSystem vela(cfg, &plant_corpus);

  const auto& dataset = text.sequences();
  auto before = model::evaluate_perplexity(vela.model(), dataset, batch_size);
  std::printf("before: loss %.4f, perplexity %.2f over %zu tokens\n",
              before.mean_loss, before.perplexity, before.tokens);

  vela.profile(dataset, batch_size);
  vela.optimize_placement(double(batch_size) * double(seq_len - 1));

  data::BatchIterator batches(dataset, batch_size, 11);
  for (std::size_t step = 0; step < steps; ++step) {
    auto report = vela.train_step(batches.next());
    if (step % 10 == 0) {
      std::printf("step %3zu: loss %.4f (traffic %.3f MB/node)\n", step,
                  report.loss, report.external_mb_per_node);
    }
  }

  auto after = model::evaluate_perplexity(vela.model(), dataset, batch_size);
  std::printf("after : loss %.4f, perplexity %.2f (%.1f%% better)\n",
              after.mean_loss, after.perplexity,
              100.0 * (1.0 - after.perplexity / before.perplexity));

  Rng gen_rng(5);
  model::GenerateOptions gen;
  gen.max_new_tokens = 60;
  gen.temperature = 0.7f;
  gen.top_k = 8;
  auto sample = model::generate(
      vela.model(), text.tokenizer().encode("Now is the "), gen, gen_rng);
  std::printf("\nsample:\n%s\n", text.decode(sample).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const std::string corpus = args.get_string("corpus", "wikitext");
  if (corpus == "wikitext") {
    run_wikitext(args.get_size("steps", 40));
  } else if (corpus == "alpaca") {
    run_alpaca(args.get_size("steps", 12));
  } else if (corpus == "shakespeare") {
    run_shakespeare(args.get_size("steps", 60));
  } else {
    std::fprintf(stderr, "usage: %s [--corpus wikitext|alpaca|shakespeare] "
                         "[--steps N]\n", argv[0]);
    return 2;
  }
  return 0;
}
