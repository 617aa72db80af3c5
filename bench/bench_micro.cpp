// Micro-benchmarks (google-benchmark) of the substrates: tensor kernels,
// autograd, the gate, the simplex solver, endpoints, and the end-to-end
// distributed tiny-model training step.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "bench_common.h"
#include "offload_csv.h"
#include "comm/comm_clock.h"
#include "comm/endpoint.h"
#include "core/step_simulator.h"
#include "core/vela_system.h"
#include "data/corpus.h"
#include "moe/gate.h"
#include "moe/moe_block.h"
#include "nn/expert.h"
#include "placement/locality_aware.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace vela;

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Tensor a = ops::randn({n, n}, rng);
  Tensor b = ops::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::matmul(a, b));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128);

// The model's real GEMM shapes, as {n, k, m}: the expert's w1/w3 forward
// [128×48]·[96×48]ᵀ, its w2 forward [128×96]·[48×96]ᵀ, and one attention
// head's scores [31×24]·[31×24]ᵀ.
void model_gemm_shapes(benchmark::internal::Benchmark* b) {
  b->Args({128, 48, 96})->Args({128, 96, 48})->Args({31, 24, 31});
}

// C[n×m] = A[n×k]·B[m×k]ᵀ: every Linear forward.
void BM_MatmulNT(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto m = static_cast<std::size_t>(state.range(2));
  Rng rng(3);
  Tensor a = ops::randn({n, k}, rng);
  Tensor b = ops::randn({m, k}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::matmul_nt(a, b));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * n * k * m);
}
BENCHMARK(BM_MatmulNT)->Apply(model_gemm_shapes);

// dW[m×k] = dY[n×m]ᵀ·X[n×k]: the weight gradient of the same Linear, with
// the forward's n as the reduction length.
void BM_MatmulTN(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto m = static_cast<std::size_t>(state.range(2));
  Rng rng(4);
  Tensor a = ops::randn({n, m}, rng);
  Tensor b = ops::randn({n, k}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::matmul_tn(a, b));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * n * k * m);
}
BENCHMARK(BM_MatmulTN)->Apply(model_gemm_shapes);

void BM_SoftmaxRows(benchmark::State& state) {
  Rng rng(2);
  Tensor logits = ops::randn({512, 64}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::softmax_rows(logits));
  }
}
BENCHMARK(BM_SoftmaxRows);

void BM_AutogradBackwardChain(benchmark::State& state) {
  for (auto _ : state) {
    ag::Variable x = ag::Variable::leaf(Tensor::ones({64}), true);
    ag::Variable y = x;
    for (int i = 0; i < 64; ++i) y = ag::scale(y, 1.0f);
    ag::backward(ag::sum(y));
    benchmark::DoNotOptimize(x.grad());
  }
}
BENCHMARK(BM_AutogradBackwardChain);

void BM_GateRouting(benchmark::State& state) {
  Rng rng(3);
  moe::TopKGate gate("g", 64, 8, 2, rng);
  Rng xr(4);
  Tensor x = ops::randn({1024, 64}, xr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gate.forward(ag::Variable::constant(x)));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 1024);
}
BENCHMARK(BM_GateRouting);

void BM_EndpointRoundTrip(benchmark::State& state) {
  const auto kind = state.range(0) == 0 ? comm::TransportKind::kInProc
                                        : comm::TransportKind::kSocket;
  // vela-lint: allow(direct-transport) -- benchmarks pin the backend by hand
  comm::Endpoint ch(kind, 0, 0, nullptr);
  Tensor payload({64, 64});
  for (auto _ : state) {
    comm::Message msg;
    msg.payload = payload;
    ch.send(std::move(msg));
    benchmark::DoNotOptimize(ch.receive());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * 64 * 64 * 4);
}
BENCHMARK(BM_EndpointRoundTrip)->Arg(0)->Arg(1);

void BM_SimplexPlacementLp(benchmark::State& state) {
  const auto layers = static_cast<std::size_t>(state.range(0));
  placement::PlacementProblem p;
  p.num_workers = 6;
  p.num_layers = layers;
  p.num_experts = 8;
  Rng rng(5);
  p.probability = ops::rand_uniform({layers, 8}, rng, 0.01f, 1.0f);
  for (std::size_t w = 0; w < 6; ++w) {
    p.bandwidth.push_back(w < 2 ? 18.3e9 : 1.17e9);
    p.worker_node.push_back(w / 2);
  }
  p.capacity.assign(6, (layers * 8) / 6 + 3);
  p.tokens_per_step = 2048;
  p.bytes_per_token = 8192;
  for (auto _ : state) {
    placement::LocalityAwarePlacement la;
    benchmark::DoNotOptimize(la.place(p));
  }
}
BENCHMARK(BM_SimplexPlacementLp)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_DistributedTrainStep(benchmark::State& state) {
  core::VelaSystemConfig cfg;
  cfg.model = model::ModelConfig::tiny_test();
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.seed = 7;
  data::SyntheticCorpus corpus(
      data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 9);
  core::VelaSystem vela(cfg, &corpus);
  auto batch = corpus.make_dataset(4, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vela.train_step(batch));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 4 * 7);
}
BENCHMARK(BM_DistributedTrainStep)->Unit(benchmark::kMillisecond);

void BM_DenseMoEBlockForward(benchmark::State& state) {
  Rng rng(8);
  moe::LocalExpertBackend backend(1, 8, 64, 128, nn::LoRAConfig{8, 16.0f, true},
                                  3);
  moe::MoEBlock block("b", 0, 64, 8, 2, rng, &backend);
  Rng xr(9);
  Tensor x = ops::randn({256, 64}, xr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(block.forward(ag::Variable::constant(x)));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 256);
}
BENCHMARK(BM_DenseMoEBlockForward);

// --- threads-vs-throughput sweep --------------------------------------------
// The same kernels at pool sizes 1/2/4/8 (results are bit-identical across
// sizes; only wall-clock may change). Registered as google-benchmark cases
// and, in main(), re-run as a manual timed sweep that emits
// bench_parallel.json for the scaling record.

void BM_MatmulThreads(benchmark::State& state) {
  util::ThreadPool::set_global_threads(
      static_cast<std::size_t>(state.range(0)));
  const std::size_t n = 256;
  Rng rng(1);
  Tensor a = ops::randn({n, n}, rng);
  Tensor b = ops::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::matmul(a, b));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * n * n * n);
  util::ThreadPool::set_global_threads(0);
}
BENCHMARK(BM_MatmulThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ExpertForwardThreads(benchmark::State& state) {
  util::ThreadPool::set_global_threads(
      static_cast<std::size_t>(state.range(0)));
  Rng rng(6);
  nn::SwiGLUExpert expert("bench.expert", 64, 128, nn::LoRAConfig{}, rng);
  Rng xr(7);
  Tensor x = ops::randn({256, 64}, xr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(expert.forward(ag::Variable::constant(x)));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 256);
  util::ThreadPool::set_global_threads(0);
}
BENCHMARK(BM_ExpertForwardThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Times `iters` calls of `fn` and returns seconds elapsed.
template <typename Fn>
double time_calls(int iters, const Fn& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

void write_bench_parallel_json() {
  const std::size_t kMat = 256;
  Rng rng(1);
  const Tensor a = ops::randn({kMat, kMat}, rng);
  const Tensor b = ops::randn({kMat, kMat}, rng);
  Rng er(6);
  const nn::SwiGLUExpert expert("sweep.expert", 64, 128, nn::LoRAConfig{}, er);
  Rng xr(7);
  const Tensor x = ops::randn({256, 64}, xr);

  struct Point {
    std::size_t threads;
    double matmul_gflops;
    double expert_tokens_per_s;
  };
  std::vector<Point> points;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    util::ThreadPool::set_global_threads(threads);
    // Warm the pool and the caches before timing.
    ops::matmul(a, b);
    expert.forward(ag::Variable::constant(x));
    const int mat_iters = 20;
    const double mat_s = time_calls(mat_iters, [&] {
      benchmark::DoNotOptimize(ops::matmul(a, b));
    });
    const int fwd_iters = 50;
    const double fwd_s = time_calls(fwd_iters, [&] {
      benchmark::DoNotOptimize(expert.forward(ag::Variable::constant(x)));
    });
    points.push_back(
        {threads,
         2.0 * kMat * kMat * kMat * mat_iters / mat_s / 1e9,
         256.0 * fwd_iters / fwd_s});
  }
  util::ThreadPool::set_global_threads(0);

  std::FILE* f = std::fopen("bench_parallel.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open bench_parallel.json for writing\n");
    return;
  }
  std::fprintf(f, "{\n  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"matmul_n\": %zu,\n  \"sweep\": [\n", kMat);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(f,
                 "    {\"threads\": %zu, \"matmul_gflops\": %.3f, "
                 "\"matmul_speedup_vs_1\": %.3f, "
                 "\"expert_fwd_tokens_per_s\": %.1f, "
                 "\"expert_fwd_speedup_vs_1\": %.3f}%s\n",
                 p.threads, p.matmul_gflops,
                 p.matmul_gflops / points[0].matmul_gflops,
                 p.expert_tokens_per_s,
                 p.expert_tokens_per_s / points[0].expert_tokens_per_s,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote bench_parallel.json\n");
}

// Modeled step time of the overlap dispatch pipeline (DESIGN.md §8) versus
// pipeline depth K, on one sampled Mixtral-scale step's byte ledger. The
// modeled clock — not wall-clock — is the meaningful quantity here: on a
// CPU dev box (often a single core) the pipeline cannot show real speedup,
// but the byte ledger is measured and the clock is calibrated, exactly as
// for Fig. 6.
void write_bench_overlap_json() {
  using namespace vela::bench;
  cluster::ClusterTopology topology(cluster::ClusterConfig::paper_testbed());
  const Setting setting = paper_settings()[0];  // mixtral-wikitext
  SettingRuntime runtime(setting);
  const auto problem = make_problem(setting, topology, runtime.probability);
  StrategySet placements = make_placements(problem, setting.seed + 99);
  const core::VelaTrafficModel vela_model(
      &topology, {setting.codec.row_bytes(setting.model.model_dim)});
  comm::CommClockConfig clock_cfg;
  clock_cfg.compute_seconds = 1.9;  // matches bench_fig6_steptime
  comm::CommClock clock(&topology, clock_cfg);
  const auto plans = runtime.router.sample_step(kTokensPerStep);
  const comm::VelaStepRecord record =
      vela_model.account_step(plans, placements.vela);

  std::FILE* f = std::fopen("bench_overlap.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open bench_overlap.json for writing\n");
    return;
  }
  const double sequential_s = clock.vela_step_seconds(record);
  std::fprintf(f, "{\n  \"setting\": \"%s\",\n", setting.name.c_str());
  std::fprintf(f, "  \"compute_seconds\": %.3f,\n",
               clock_cfg.compute_seconds);
  std::fprintf(f, "  \"sequential_step_seconds\": %.6f,\n  \"sweep\": [\n",
               sequential_s);
  const std::size_t depths[] = {1, 2, 4, 8, 16, 32};
  const std::size_t count = sizeof(depths) / sizeof(depths[0]);
  for (std::size_t i = 0; i < count; ++i) {
    const core::ModeledStepTimes t =
        core::modeled_step_times(clock, record, depths[i]);
    std::fprintf(f,
                 "    {\"chunks\": %zu, \"step_seconds\": %.6f, "
                 "\"speedup_vs_sequential\": %.4f}%s\n",
                 depths[i], t.overlap_s, sequential_s / t.overlap_s,
                 i + 1 < count ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote bench_overlap.json\n");
}

// Bounded-memory expert-store sweep (DESIGN.md §15): the Zipf-trace replay
// from bench/offload_csv.h across eviction policies and resident budgets.
// The headline record: locality-priority admission (fed the trace's true
// long-run frequencies, as the placement layer derives from its routing
// statistics) must beat plain LRU's hit rate on the skewed corpus.
void write_bench_offload_json() {
  using vela::bench::OffloadPoint;
  const std::vector<OffloadPoint> points =
      vela::bench::run_offload_sweep(".");

  std::FILE* f = std::fopen("bench_offload.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open bench_offload.json for writing\n");
    return;
  }
  std::fprintf(f, "{\n  \"experts\": %u,\n", vela::bench::kOffloadExperts);
  std::fprintf(f, "  \"touches\": %d,\n", vela::bench::kOffloadTouches);
  std::fprintf(f, "  \"zipf_s\": %.2f,\n  \"sweep\": [\n",
               vela::bench::kOffloadZipfS);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const OffloadPoint& p = points[i];
    std::fprintf(f,
                 "    {\"policy\": \"%s\", \"budget\": %lld, "
                 "\"hit_rate\": %.4f, \"page_out_mb\": %.3f, "
                 "\"page_in_mb\": %.3f, \"thrash_mb\": %.3f, "
                 "\"replicate_once_mb\": %.3f}%s\n",
                 p.policy.c_str(), p.budget, p.hit_rate, p.page_out_mb,
                 p.page_in_mb, p.thrash_mb, p.replicate_once_mb,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote bench_offload.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_bench_parallel_json();
  write_bench_overlap_json();
  write_bench_offload_json();
  return 0;
}
