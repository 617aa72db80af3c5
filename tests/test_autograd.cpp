#include "autograd/ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/ops.h"
#include "util/check.h"
#include "util/rng.h"

namespace vela {
namespace {

using ag::Variable;

TEST(Autograd, LeafBasics) {
  Variable v = Variable::leaf(Tensor::ones({2, 2}), true);
  EXPECT_TRUE(v.requires_grad());
  EXPECT_FALSE(v.has_grad());
  EXPECT_THROW(v.grad(), CheckError);
}

TEST(Autograd, BackwardRequiresScalarRoot) {
  Variable v = Variable::leaf(Tensor::ones({2, 2}), true);
  EXPECT_THROW(ag::backward(v), CheckError);
}

TEST(Autograd, BackwardRequiresTrainableGraph) {
  Variable v = Variable::constant(Tensor::ones({1}));
  EXPECT_THROW(ag::backward(v), CheckError);
}

TEST(Autograd, SumGradientIsOnes) {
  Variable v = Variable::leaf(Tensor::ones({2, 3}), true);
  ag::backward(ag::sum(v));
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(v.grad()[i], 1.0f);
}

TEST(Autograd, MeanGradient) {
  Variable v = Variable::leaf(Tensor::ones({4}), true);
  ag::backward(ag::mean(v));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(v.grad()[i], 0.25f);
}

TEST(Autograd, GradAccumulatesAcrossBackwardCalls) {
  Variable v = Variable::leaf(Tensor::ones({2}), true);
  ag::backward(ag::sum(v));
  ag::backward(ag::sum(v));
  EXPECT_EQ(v.grad()[0], 2.0f);
  v.zero_grad();
  EXPECT_FALSE(v.has_grad());
}

TEST(Autograd, DiamondGraphAccumulates) {
  // y = sum(x + x): gradient of x must be 2.
  Variable x = Variable::leaf(Tensor::ones({3}), true);
  ag::backward(ag::sum(ag::add(x, x)));
  EXPECT_EQ(x.grad()[0], 2.0f);
}

TEST(Autograd, ConstantsReceiveNoGrad) {
  Variable x = Variable::leaf(Tensor::ones({2}), true);
  Variable c = Variable::constant(Tensor::ones({2}));
  ag::backward(ag::sum(ag::mul(x, c)));
  EXPECT_TRUE(x.has_grad());
  EXPECT_FALSE(c.has_grad());
}

TEST(Autograd, BackwardFromSeedsExternalGradient) {
  Variable x = Variable::leaf(Tensor::ones({2, 2}), true);
  Variable y = ag::scale(x, 3.0f);
  Tensor seed({2, 2});
  seed.fill(2.0f);
  ag::backward_from(y, seed);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(x.grad()[i], 6.0f);
}

// --- numerical gradient checks ---------------------------------------------

float gradcheck(Variable& leaf, const std::function<Variable()>& loss) {
  return ag::gradcheck_max_abs_err(leaf, loss, 1e-2f);
}

TEST(AutogradGradcheck, MatmulBothSides) {
  Rng rng(1);
  Variable a = Variable::leaf(ops::randn({3, 4}, rng), true);
  Variable b = Variable::leaf(ops::randn({4, 2}, rng), true);
  EXPECT_LT(gradcheck(a, [&] { return ag::sum(ag::matmul(a, b)); }), 1e-2f);
  EXPECT_LT(gradcheck(b, [&] { return ag::sum(ag::matmul(a, b)); }), 1e-2f);
}

TEST(AutogradGradcheck, MatmulNt) {
  Rng rng(2);
  Variable a = Variable::leaf(ops::randn({3, 4}, rng), true);
  Variable b = Variable::leaf(ops::randn({5, 4}, rng), true);
  auto loss = [&] { return ag::mean(ag::matmul_nt(a, b)); };
  EXPECT_LT(gradcheck(a, loss), 1e-2f);
  EXPECT_LT(gradcheck(b, loss), 1e-2f);
}

TEST(AutogradGradcheck, LinearNt) {
  Rng rng(3);
  Variable x = Variable::leaf(ops::randn({2, 4}, rng), true);
  Variable w = Variable::leaf(ops::randn({3, 4}, rng), true);
  auto loss = [&] { return ag::sum(ag::linear_nt(x, w)); };
  EXPECT_LT(gradcheck(x, loss), 1e-2f);
  EXPECT_LT(gradcheck(w, loss), 1e-2f);
}

TEST(AutogradGradcheck, MulAndSub) {
  Rng rng(4);
  Variable a = Variable::leaf(ops::randn({2, 3}, rng), true);
  Variable b = Variable::leaf(ops::randn({2, 3}, rng), true);
  auto loss = [&] { return ag::sum(ag::mul(ag::sub(a, b), a)); };
  EXPECT_LT(gradcheck(a, loss), 1e-2f);
  EXPECT_LT(gradcheck(b, loss), 1e-2f);
}

TEST(AutogradGradcheck, Silu) {
  Rng rng(5);
  Variable x = Variable::leaf(ops::randn({3, 3}, rng), true);
  EXPECT_LT(gradcheck(x, [&] { return ag::sum(ag::silu(x)); }), 1e-2f);
}

TEST(AutogradGradcheck, RmsNormInputAndGain) {
  Rng rng(6);
  Variable x = Variable::leaf(ops::randn({3, 4}, rng), true);
  Variable g = Variable::leaf(ops::rand_uniform({4}, rng, 0.5f, 1.5f), true);
  // Weighted loss to make the Jacobian non-trivial.
  Rng rng2(7);
  Variable w = Variable::constant(ops::randn({3, 4}, rng2));
  auto loss = [&] { return ag::sum(ag::mul(ag::rmsnorm(x, g), w)); };
  EXPECT_LT(gradcheck(x, loss), 2e-2f);
  EXPECT_LT(gradcheck(g, loss), 2e-2f);
}

TEST(AutogradGradcheck, SoftmaxRows) {
  Rng rng(8);
  Variable x = Variable::leaf(ops::randn({2, 5}, rng), true);
  Rng rng2(9);
  Variable w = Variable::constant(ops::randn({2, 5}, rng2));
  auto loss = [&] { return ag::sum(ag::mul(ag::softmax_rows(x), w)); };
  EXPECT_LT(gradcheck(x, loss), 1e-2f);
}

TEST(AutogradGradcheck, CausalMaskedSoftmax) {
  Rng rng(10);
  Variable x = Variable::leaf(ops::randn({4, 4}, rng), true);
  Rng rng2(11);
  Variable w = Variable::constant(ops::randn({4, 4}, rng2));
  auto loss = [&] {
    return ag::sum(ag::mul(ag::causal_masked_softmax(x), w));
  };
  EXPECT_LT(gradcheck(x, loss), 1e-2f);
}

TEST(Autograd, CausalMaskZeroesUpperTriangle) {
  Rng rng(12);
  Variable x = Variable::leaf(ops::randn({3, 3}, rng), false);
  Variable p = ag::causal_masked_softmax(x);
  EXPECT_EQ(p.value().at(0, 1), 0.0f);
  EXPECT_EQ(p.value().at(0, 2), 0.0f);
  EXPECT_EQ(p.value().at(1, 2), 0.0f);
  for (std::size_t i = 0; i < 3; ++i) {
    float row = 0.0f;
    for (std::size_t j = 0; j < 3; ++j) row += p.value().at(i, j);
    EXPECT_NEAR(row, 1.0f, 1e-6);
  }
}

TEST(AutogradGradcheck, EmbeddingScattersGrads) {
  Rng rng(13);
  Variable w = Variable::leaf(ops::randn({5, 3}, rng), true);
  auto loss = [&] { return ag::sum(ag::embedding(w, {1, 1, 4})); };
  EXPECT_LT(gradcheck(w, loss), 1e-2f);
  // Row 1 used twice -> gradient 2, row 4 once -> 1, others 0.
  w.zero_grad();
  ag::backward(loss());
  EXPECT_FLOAT_EQ(w.grad().at(1, 0), 2.0f);
  EXPECT_FLOAT_EQ(w.grad().at(4, 2), 1.0f);
  EXPECT_FLOAT_EQ(w.grad().at(0, 0), 0.0f);
}

TEST(AutogradGradcheck, GatherScatterScaleRows) {
  Rng rng(14);
  Variable x = Variable::leaf(ops::randn({4, 3}, rng), true);
  Variable w = Variable::leaf(ops::rand_uniform({2}, rng, 0.5f, 1.5f), true);
  auto loss = [&] {
    Variable g = ag::gather_rows(x, {2, 0});
    Variable s = ag::scale_rows(g, w);
    return ag::sum(ag::scatter_rows(s, {2, 0}, 4));
  };
  EXPECT_LT(gradcheck(x, loss), 1e-2f);
  EXPECT_LT(gradcheck(w, loss), 1e-2f);
}

TEST(AutogradGradcheck, SliceAndConcatCols) {
  Rng rng(15);
  Variable x = Variable::leaf(ops::randn({3, 6}, rng), true);
  auto loss = [&] {
    Variable left = ag::slice_cols(x, 0, 3);
    Variable right = ag::slice_cols(x, 3, 3);
    return ag::sum(ag::mul(ag::concat_cols({right, left}), ag::concat_cols({left, right})));
  };
  EXPECT_LT(gradcheck(x, loss), 1e-2f);
}

TEST(AutogradGradcheck, ConcatRows) {
  Rng rng(16);
  Variable a = Variable::leaf(ops::randn({2, 3}, rng), true);
  Variable b = Variable::leaf(ops::randn({4, 3}, rng), true);
  auto loss = [&] {
    Variable cat = ag::concat_rows({a, b});
    return ag::sum(ag::mul(cat, cat));
  };
  EXPECT_LT(gradcheck(a, loss), 2e-2f);
  EXPECT_LT(gradcheck(b, loss), 2e-2f);
}

TEST(AutogradGradcheck, SliceVec) {
  Rng rng(17);
  Variable x = Variable::leaf(ops::randn({6}, rng), true);
  auto loss = [&] {
    Variable s = ag::slice_vec(x, 2, 3);
    return ag::sum(ag::mul(s, s));
  };
  EXPECT_LT(gradcheck(x, loss), 1e-2f);
}

TEST(AutogradGradcheck, CrossEntropy) {
  Rng rng(18);
  Variable logits = Variable::leaf(ops::randn({3, 5}, rng), true);
  auto loss = [&] { return ag::cross_entropy(logits, {0, 2, 4}); };
  EXPECT_LT(gradcheck(logits, loss), 1e-2f);
}

TEST(Autograd, DeepChainDoesNotOverflow) {
  // 2000 chained ops exercise the iterative topological sort.
  Variable x = Variable::leaf(Tensor::ones({4}), true);
  Variable y = x;
  for (int i = 0; i < 2000; ++i) y = ag::scale(y, 1.0f);
  ag::backward(ag::sum(y));
  EXPECT_EQ(x.grad()[0], 1.0f);
}

// --- deferred contributions --------------------------------------------------

// How op i of contribution_graph hands its contribution to x.
enum class Mode { kEager, kDeferred, kThrows };

// x receives contribution c[i] from op i. The root lists the ops in index
// order, so the reverse sweep fires them last to first: c[n-1] reaches x
// first. Eager ops accumulate at once; deferred ones queue a thunk.
Variable contribution_graph(const Variable& x, const std::vector<Tensor>& c,
                            const std::vector<Mode>& modes) {
  std::vector<Variable> users;
  for (std::size_t i = 0; i < c.size(); ++i) {
    users.push_back(ag::make_op(
        Tensor({1}), {x}, [g = c[i], mode = modes[i]](ag::detail::Node& n) {
          ag::detail::Node& px = *n.parents[0];
          switch (mode) {
            case Mode::kEager:
              px.accumulate_grad(g);
              break;
            case Mode::kDeferred:
              px.defer_grad([g] { return g; });
              break;
            case Mode::kThrows:
              px.defer_grad([]() -> Tensor {
                throw std::runtime_error("reply never came");
              });
              break;
          }
        }));
  }
  return ag::make_op(Tensor({1}), users, [](ag::detail::Node& n) {
    for (auto& p : n.parents) p->accumulate_grad(Tensor::ones({1}));
  });
}

// Columns: all −0 (the first contribution must be copied, not added to a
// +0 buffer), mixed signed zeros, an order-sensitive float sum, noise.
std::vector<Tensor> contributions() {
  const float big = 1e8f;
  // Summed in firing order (index 5 first) this is 3; a 1 added before the
  // ±big pair cancels is absorbed, so any reordering loses at least one.
  const float col2[] = {1.0f, 1.0f, 1.0f, -big, 1.0f, big};
  const float col1[] = {-0.0f, 0.0f, -0.0f, -0.0f, 0.0f, -0.0f};
  Rng rng(4);
  std::vector<Tensor> c;
  for (std::size_t i = 0; i < 6; ++i) {
    Tensor t({4});
    t[0] = -0.0f;
    t[1] = col1[i];
    t[2] = col2[i];
    t[3] = static_cast<float>(rng.normal());
    c.push_back(t);
  }
  return c;
}

Tensor grad_of(const std::vector<Mode>& modes) {
  Variable x = Variable::leaf(Tensor({4}), true);
  ag::backward(contribution_graph(x, contributions(), modes));
  EXPECT_TRUE(x.node()->pending.empty());
  return x.grad();
}

TEST(AutogradDeferred, InterleavedContributionsMatchEagerBitForBit) {
  using M = Mode;
  const Tensor eager = grad_of(std::vector<Mode>(6, M::kEager));
  EXPECT_TRUE(std::signbit(eager[0]));  // −0 survives: copied, then added
  EXPECT_EQ(eager[2], 3.0f);
  for (const auto& modes : std::vector<std::vector<Mode>>{
           {M::kDeferred, M::kEager, M::kDeferred, M::kEager, M::kEager,
            M::kDeferred},
           {M::kEager, M::kEager, M::kEager, M::kEager, M::kEager,
            M::kDeferred},
           {M::kDeferred, M::kEager, M::kEager, M::kEager, M::kEager,
            M::kEager},
           std::vector<Mode>(6, M::kDeferred)}) {
    const Tensor mixed = grad_of(modes);
    EXPECT_EQ(0, std::memcmp(mixed.data(), eager.data(), 4 * sizeof(float)));
  }
}

TEST(AutogradDeferred, ThrowingThunkPropagatesAndLeavesNothingPending) {
  Variable x = Variable::leaf(Tensor({4}), true);
  // An interior node between x and the ops: it holds the queue that throws.
  Variable y = ag::make_op(Tensor({4}), {x}, [](ag::detail::Node& n) {
    n.parents[0]->accumulate_grad(n.grad);
  });
  const std::vector<Tensor> c = contributions();
  Variable root = contribution_graph(
      y, {c[0], c[1], c[2]}, {Mode::kDeferred, Mode::kThrows, Mode::kEager});
  EXPECT_THROW(ag::backward(root), std::runtime_error);
  EXPECT_TRUE(y.node()->pending.empty());
  EXPECT_TRUE(x.node()->pending.empty());
  EXPECT_FALSE(x.has_grad());  // the sweep never reached x

  // The leaf carries nothing stale into the next backward.
  ag::backward(contribution_graph(x, {c[3]}, {Mode::kDeferred}));
  EXPECT_EQ(0, std::memcmp(x.grad().data(), c[3].data(), 4 * sizeof(float)));
}

TEST(AutogradDeferred, LeafContributionsResolvedBeforeBackwardReturns) {
  Variable x = Variable::leaf(Tensor({4}), true);
  const std::vector<Tensor> c = contributions();
  ag::backward(contribution_graph(x, {c[0], c[3]},
                                  {Mode::kDeferred, Mode::kDeferred}));
  ASSERT_TRUE(x.has_grad());
  EXPECT_TRUE(x.node()->pending.empty());
  Tensor expect = c[3];
  expect.add_(c[0]);
  EXPECT_EQ(0, std::memcmp(x.grad().data(), expect.data(), 4 * sizeof(float)));
}

TEST(AutogradDeferred, RemoteRowsPostsEveryGroupBeforeAnyWait) {
  Rng rng(9);
  const Tensor xv = ops::randn({4, 3}, rng);
  const std::vector<std::vector<std::size_t>> rows = {{0, 2}, {1, 2, 3}};
  std::vector<std::string> log;
  Variable x = Variable::leaf(xv, true);
  std::vector<Variable> sums;
  for (std::size_t g = 0; g < rows.size(); ++g) {
    // The "remote" computation is the identity, so dL/d(rows) = dL/dy.
    Variable r = ag::remote_rows(
        x, rows[g], ops::gather_rows(xv, rows[g]),
        [&log, g](const Tensor& dy) -> ag::AwaitRows {
          log.push_back("post " + std::to_string(g));
          return [&log, g, dy] {
            log.push_back("wait " + std::to_string(g));
            return dy;
          };
        });
    sums.push_back(ag::sum(r));
  }
  ag::backward(ag::add(sums[0], sums[1]));
  EXPECT_EQ(log, (std::vector<std::string>{"post 1", "post 0", "wait 1",
                                           "wait 0"}));

  // Bit for bit the gather_rows backward it replaces.
  Variable xg = Variable::leaf(xv, true);
  ag::backward(ag::add(ag::sum(ag::gather_rows(xg, rows[0])),
                       ag::sum(ag::gather_rows(xg, rows[1]))));
  EXPECT_EQ(0, std::memcmp(x.grad().data(), xg.grad().data(),
                           xv.size() * sizeof(float)));
}

}  // namespace
}  // namespace vela
