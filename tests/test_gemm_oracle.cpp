// Bitwise oracle for the GEMM kernel behind ops::matmul, ops::matmul_tn and
// ops::matmul_nt. The references below are the plain scalar loops the SIMD
// kernel replaced; every output must match them byte for byte — not within a
// tolerance — over a shape sweep that reaches every column-tile and tail path,
// on inputs full of exact zeros, negative zeros and subnormals, at one lane
// and at four. A kernel that reorders a sum, contracts a multiply-add into an
// FMA, or drops the exact-zero skip fails here.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace vela {
namespace {

// c[i][j] += a[i][kk] * b[kk][j] in ikj order, skipping exact-zero a.
Tensor reference_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t n = a.rows(), k = a.cols(), m = b.cols();
  Tensor c({n, m});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = a.data()[i * k + kk];
      // vela-lint: allow(float-equality) -- the kernel's exact-zero skip
      if (aik == 0.0f) continue;
      for (std::size_t j = 0; j < m; ++j)
        c.data()[i * m + j] += aik * b.data()[kk * m + j];
    }
  }
  return c;
}

// c = aᵀ·b: kk outermost, skipping exact-zero a.
Tensor reference_matmul_tn(const Tensor& a, const Tensor& b) {
  const std::size_t k = a.rows(), n = a.cols(), m = b.cols();
  Tensor c({n, m});
  for (std::size_t kk = 0; kk < k; ++kk) {
    for (std::size_t i = 0; i < n; ++i) {
      const float aki = a.data()[kk * n + i];
      // vela-lint: allow(float-equality) -- the kernel's exact-zero skip
      if (aki == 0.0f) continue;
      for (std::size_t j = 0; j < m; ++j)
        c.data()[i * m + j] += aki * b.data()[kk * m + j];
    }
  }
  return c;
}

// c = a·bᵀ: one serial float dot product per output, no zero skip.
Tensor reference_matmul_nt(const Tensor& a, const Tensor& b) {
  const std::size_t n = a.rows(), k = a.cols(), m = b.rows();
  Tensor c({n, m});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk)
        acc += a.data()[i * k + kk] * b.data()[j * k + kk];
      c.data()[i * m + j] = acc;
    }
  }
  return c;
}

// Normal values with ~20% exact +0, ~5% -0 and ~5% subnormals mixed in.
Tensor awkward_tensor(std::size_t rows, std::size_t cols, Rng& rng) {
  Tensor t({rows, cols});
  for (std::size_t i = 0; i < t.size(); ++i) {
    const double u = rng.uniform();
    if (u < 0.20) {
      t[i] = 0.0f;
    } else if (u < 0.25) {
      t[i] = -0.0f;
    } else if (u < 0.30) {
      t[i] = static_cast<float>(rng.uniform(-64.0, 64.0)) *
             std::numeric_limits<float>::denorm_min();
    } else {
      t[i] = static_cast<float>(rng.normal());
    }
  }
  return t;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Every kernel tail: below one vector, exact vectors, one past, one short of
// a 16-column tile, and sizes spanning several tiles and row chunks.
const std::size_t kSweep[] = {1, 3, 4, 5, 8, 15, 16, 17, 24, 31, 33, 48, 96, 130};

class GemmOracle : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { util::ThreadPool::set_global_threads(GetParam()); }
  void TearDown() override { util::ThreadPool::set_global_threads(0); }
};

TEST_P(GemmOracle, AllThreeKernelsMatchScalarLoopsBitwise) {
  Rng rng(2024);
  std::size_t mismatches = 0;
  for (const std::size_t n : kSweep) {
    for (const std::size_t k : kSweep) {
      for (const std::size_t m : kSweep) {
        const Tensor a = awkward_tensor(n, k, rng);
        const Tensor b = awkward_tensor(k, m, rng);
        const Tensor at = awkward_tensor(k, n, rng);
        const Tensor bt = awkward_tensor(m, k, rng);
        const auto check = [&](const Tensor& got, const Tensor& want,
                               const char* kernel) {
          if (bitwise_equal(got, want)) return;
          ++mismatches;
          ADD_FAILURE() << kernel << " n=" << n << " k=" << k << " m=" << m
                        << " differs bitwise from the scalar loop";
        };
        check(ops::matmul(a, b), reference_matmul(a, b), "matmul");
        check(ops::matmul_tn(at, b), reference_matmul_tn(at, b), "matmul_tn");
        check(ops::matmul_nt(a, bt), reference_matmul_nt(a, bt), "matmul_nt");
        ASSERT_LT(mismatches, 10u) << "stopping after 10 mismatching shapes";
      }
    }
  }
}

// An exact-zero a(i, kk) meeting an infinite b entry: matmul and matmul_tn
// skip the product, so the output stays finite; matmul_nt has no skip, so
// 0 * inf makes it NaN. This pins the skip semantics on non-finite inputs,
// where the skip is not an identity.
TEST_P(GemmOracle, ZeroSkipSemanticsWithInfiniteB) {
  const float inf = std::numeric_limits<float>::infinity();
  // a = [[0, 1], [2, 3]]; the infinity sits in b's row / column 0.
  const Tensor a({2, 2}, {0.0f, 1.0f, 2.0f, 3.0f});
  const Tensor b({2, 5}, {inf, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  const Tensor c = ops::matmul(a, b);
  EXPECT_TRUE(std::isfinite(c.at(0, 0)));
  EXPECT_EQ(c.at(0, 0), 5.0f);
  EXPECT_TRUE(std::isinf(c.at(1, 0)));
  EXPECT_TRUE(bitwise_equal(c, reference_matmul(a, b)));

  const Tensor c_tn = ops::matmul_tn(ops::transpose(a), b);
  EXPECT_TRUE(std::isfinite(c_tn.at(0, 0)));
  EXPECT_TRUE(bitwise_equal(c_tn, reference_matmul_tn(ops::transpose(a), b)));

  const Tensor c_nt = ops::matmul_nt(a, ops::transpose(b));
  EXPECT_TRUE(std::isnan(c_nt.at(0, 0)));
  EXPECT_TRUE(std::isinf(c_nt.at(1, 0)));
  EXPECT_TRUE(std::isfinite(c_nt.at(0, 1)));
}

INSTANTIATE_TEST_SUITE_P(Lanes, GemmOracle, ::testing::Values(1u, 4u),
                         [](const ::testing::TestParamInfo<std::size_t>& lanes) {
                           return "Threads" + std::to_string(lanes.param);
                         });

}  // namespace
}  // namespace vela
