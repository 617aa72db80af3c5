// Bit-exact determinism across pool sizes: every parallelized kernel and the
// full distributed training step must produce byte-identical results whether
// the shared pool has 1 lane (the serial fallback) or 8. This is the contract
// that makes VELA_THREADS a pure performance knob — never a numerics knob.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "autograd/variable.h"
#include "core/vela_system.h"
#include "data/batch.h"
#include "nn/expert.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace vela {
namespace {

// Runs `fn` under a pool of `threads` lanes, restoring the environment
// default afterwards so test order doesn't leak pool state.
template <typename Fn>
auto with_threads(std::size_t threads, Fn&& fn) {
  util::ThreadPool::set_global_threads(threads);
  auto result = fn();
  util::ThreadPool::set_global_threads(0);
  return result;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
      << what << ": serial and 8-lane results differ bitwise";
}

// Odd, non-grain-aligned sizes on purpose: partial chunks are where a
// thread-count-dependent partition would first show.
Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Rng rng(seed);
  return ops::randn(std::move(shape), rng);
}

TEST(ParallelDeterminism, MatmulFamilyIsBitExact) {
  const Tensor a = random_tensor({67, 129}, 11);
  const Tensor b = random_tensor({129, 33}, 12);
  const Tensor at = random_tensor({129, 67}, 13);
  const Tensor bt = random_tensor({33, 129}, 14);

  const auto run = [&] {
    std::vector<Tensor> out;
    out.push_back(ops::matmul(a, b));
    out.push_back(ops::matmul_tn(at, b));
    out.push_back(ops::matmul_nt(a, bt));
    return out;
  };
  const auto serial = with_threads(1, run);
  const auto threaded = with_threads(8, run);
  expect_bitwise_equal(serial[0], threaded[0], "matmul");
  expect_bitwise_equal(serial[1], threaded[1], "matmul_tn");
  expect_bitwise_equal(serial[2], threaded[2], "matmul_nt");
}

TEST(ParallelDeterminism, SoftmaxRowsAreBitExact) {
  const Tensor logits = random_tensor({513, 77}, 21);
  const auto run = [&] {
    std::vector<Tensor> out;
    out.push_back(ops::softmax_rows(logits));
    out.push_back(ops::log_softmax_rows(logits));
    return out;
  };
  const auto serial = with_threads(1, run);
  const auto threaded = with_threads(8, run);
  expect_bitwise_equal(serial[0], threaded[0], "softmax_rows");
  expect_bitwise_equal(serial[1], threaded[1], "log_softmax_rows");
}

TEST(ParallelDeterminism, ReductionsAreBitExact) {
  // ~100k elements: many reduction chunks, so a merge order that varied
  // with thread count would almost surely change the low bits.
  const Tensor v = random_tensor({100003}, 31);
  const Tensor w = random_tensor({100003}, 32);
  const auto run = [&] {
    return std::vector<float>{ops::sum(v), ops::dot(v, w)};
  };
  const auto serial = with_threads(1, run);
  const auto threaded = with_threads(8, run);
  EXPECT_EQ(serial[0], threaded[0]) << "sum";
  EXPECT_EQ(serial[1], threaded[1]) << "dot";
}

TEST(ParallelDeterminism, ElementwiseAndBroadcastAreBitExact) {
  const Tensor a = random_tensor({91, 257}, 41);
  const Tensor b = random_tensor({91, 257}, 42);
  const Tensor bias = random_tensor({257}, 43);
  const auto run = [&] {
    std::vector<Tensor> out;
    out.push_back(ops::mul(a, b));
    out.push_back(ops::silu(a));
    out.push_back(ops::add_row_broadcast(a, bias));
    out.push_back(ops::sum_rows(a));
    out.push_back(ops::to_half_precision(a));
    return out;
  };
  const auto serial = with_threads(1, run);
  const auto threaded = with_threads(8, run);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_bitwise_equal(serial[i], threaded[i], "elementwise/broadcast");
  }
}

TEST(ParallelDeterminism, ExpertForwardBackwardIsBitExact) {
  // A fresh expert per run (same seed) so optimizer-free parameter state is
  // identical; compare the forward output and every LoRA gradient bitwise.
  const Tensor x = random_tensor({37, 32}, 51);
  const Tensor dy = random_tensor({37, 32}, 52);
  const auto run = [&] {
    Rng rng(7);
    nn::SwiGLUExpert expert("det.expert", 32, 64, nn::LoRAConfig{}, rng);
    ag::Variable in = ag::Variable::leaf(x, /*requires_grad=*/true);
    ag::Variable out = expert.forward(in);
    ag::backward_from(out, dy);
    std::vector<Tensor> result;
    result.push_back(out.value());
    result.push_back(in.grad());
    for (const auto& p : expert.trainable_parameters()) {
      result.push_back(p.var.grad());
    }
    return result;
  };
  const auto serial = with_threads(1, run);
  const auto threaded = with_threads(8, run);
  ASSERT_EQ(serial.size(), threaded.size());
  ASSERT_GT(serial.size(), 2u) << "expected trainable LoRA parameters";
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_bitwise_equal(serial[i], threaded[i], "expert forward/backward");
  }
}

TEST(ParallelDeterminism, FullTrainingStepIsBitExactWithIdenticalTraffic) {
  // End-to-end: two fine-tuning steps through the full master/worker system.
  // Losses must match bitwise and the TrafficMeter must count exactly the
  // same bytes — threading may only change *when* work happens, never what
  // goes over the wire.
  struct StepTrace {
    std::vector<float> losses;
    std::vector<double> external_mb;
  };
  const auto run = [&] {
    core::VelaSystemConfig cfg;
    cfg.model = model::ModelConfig::tiny_test();
    cfg.cluster = cluster::ClusterConfig::paper_testbed();
    cfg.seed = 3;
    cfg.wire_dtype = comm::WireDtype::kFp32;
    cfg.clock.compute_seconds = 0.5;
    data::SyntheticCorpus corpus(
        data::CorpusConfig::wikitext_like(cfg.model.vocab, 6), 17);
    core::VelaSystem vela(cfg, &corpus);
    const auto batch = corpus.make_dataset(2, 6);
    StepTrace trace;
    for (int i = 0; i < 2; ++i) {
      const auto report = vela.train_step(batch);
      trace.losses.push_back(report.loss);
      trace.external_mb.push_back(report.external_mb_per_node);
    }
    return trace;
  };
  const StepTrace serial = with_threads(1, run);
  const StepTrace threaded = with_threads(8, run);
  ASSERT_EQ(serial.losses.size(), threaded.losses.size());
  for (std::size_t i = 0; i < serial.losses.size(); ++i) {
    EXPECT_TRUE(std::isfinite(serial.losses[i]));
    EXPECT_EQ(serial.losses[i], threaded.losses[i])
        << "loss diverged at step " << i;
    EXPECT_EQ(serial.external_mb[i], threaded.external_mb[i])
        << "traffic diverged at step " << i;
  }
}

}  // namespace
}  // namespace vela
