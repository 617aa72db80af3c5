#include "tensor/ops.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <type_traits>
#include <utility>

#include "util/check.h"
#include "util/thread_pool.h"

namespace vela::ops {
namespace {

// Grain sizes for the parallel kernels. Chunk boundaries depend only on the
// problem size and these constants — never on the pool size — so per-chunk
// work (and, for reductions, the partial-merge order) is identical under any
// VELA_THREADS, which is what makes the parallel kernels bit-compatible with
// the serial reference. Small inputs produce a single chunk and run inline.
constexpr std::size_t kElemGrain = 16384;    // elements per elementwise chunk
constexpr std::size_t kReduceGrain = 8192;   // elements per reduction chunk
constexpr std::size_t kMatmulGrainFlops = 1 << 16;  // ~mults per row block

// Row grain so one chunk carries roughly `target` scalar mults of work.
std::size_t row_grain(std::size_t row_cost, std::size_t target) {
  return std::max<std::size_t>(1, target / std::max<std::size_t>(row_cost, 1));
}

// Templates on the callable, so the per-element function inlines into the
// loop instead of being called through a pointer.
template <typename F>
Tensor elementwise_binary(const Tensor& a, const Tensor& b, const F& f) {
  VELA_CHECK_MSG(a.same_shape(b), "elementwise shape mismatch "
                                      << a.shape_string() << " vs "
                                      << b.shape_string());
  Tensor out(a.shape());
  util::ThreadPool::global().parallel_for(
      a.size(), kElemGrain,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) out[i] = f(a[i], b[i]);
      });
  return out;
}

template <typename F>
Tensor elementwise_unary(const Tensor& a, const F& f) {
  Tensor out(a.shape());
  util::ThreadPool::global().parallel_for(
      a.size(), kElemGrain,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) out[i] = f(a[i]);
      });
  return out;
}

// Fixed-partition reduction: per-chunk partials in double, merged in chunk
// order. The single-chunk case degenerates to the plain serial loop.
template <typename PerElement>
double chunked_reduce(std::size_t n, const PerElement& pe) {
  const std::size_t chunks = (n + kReduceGrain - 1) / kReduceGrain;
  std::vector<double> partial(chunks, 0.0);
  util::ThreadPool::global().parallel_for(
      n, kReduceGrain,
      [&](std::size_t begin, std::size_t end, std::size_t c) {
        double acc = 0.0;
        for (std::size_t i = begin; i < end; ++i) acc += pe(i);
        partial[c] = acc;
      });
  double total = 0.0;
  for (double p : partial) total += p;
  return total;
}

// Four float lanes as a GCC/Clang vector extension: plain arithmetic that
// the compiler lowers to SSE2 on x86-64 and to the target's own SIMD (or
// scalar code) elsewhere, so there is one kernel and no per-ISA code.
typedef float f32x4 __attribute__((vector_size(16)));

// Columns [0, kTile * lanes) of one output row of C = A·B, where B is a
// row-major [k×m] panel and A's row is read as arow[kk * a_step]. The tile's
// accumulators stay in registers over the whole kk sweep. `Lanes` is f32x4,
// or a plain float when the whole row is narrower than one vector.
template <typename Lanes, std::size_t kTile>
void gemm_tile(const float* arow, std::size_t a_step, const float* b,
               std::size_t k, std::size_t m, bool skip_zeros, float* c) {
  static_assert(std::is_trivially_copyable_v<Lanes> &&
                    sizeof(Lanes) % sizeof(float) == 0,
                "a tile moves whole floats between memory and registers");
  constexpr std::size_t kLanes = sizeof(Lanes) / sizeof(float);
  Lanes acc[kTile] = {};
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float aik = arow[kk * a_step];
    // Exact-zero skip: adding 0*b is the identity for finite b (DESIGN.md
    // §7), and routing masks make zeros common.
    // vela-lint: allow(float-equality)
    if (skip_zeros && aik == 0.0f) continue;
    const float* brow = b + kk * m;
#pragma GCC unroll 16
    for (std::size_t t = 0; t < kTile; ++t) {
      Lanes bv;
      std::memcpy(&bv, brow + t * kLanes, sizeof bv);
      // A rounded product, then a rounded add: never contracted to an FMA.
      const Lanes prod = aik * bv;
      acc[t] += prod;
    }
  }
  std::memcpy(c, acc, sizeof acc);
}

// The widest tile: 12 accumulators, plus the broadcast a(i, kk) and one
// product, fill 14 of x86-64's 16 SSE registers without spilling.
constexpr std::size_t kMaxVectors = 12;

template <std::size_t... V>
constexpr auto make_vector_tiles(std::index_sequence<V...>) {
  return std::array{&gemm_tile<f32x4, V + 1>...};
}
// kVectorTiles[v - 1] is the tile of v vectors.
constexpr auto kVectorTiles =
    make_vector_tiles(std::make_index_sequence<kMaxVectors>{});

// One output row: full-width tiles, then one tile of whole vectors that ends
// at column m. When m is not a multiple of 4 that last tile reaches back over
// up to 3 columns already written; recomputing a column repeats its exact
// operations, so they are rewritten with the same bits.
void gemm_row(const float* arow, std::size_t a_step, const float* b,
              std::size_t k, std::size_t m, bool skip_zeros, float* crow) {
  const auto tile = [&](std::size_t j, std::size_t vectors) {
    kVectorTiles[vectors - 1](arow, a_step, b + j, k, m, skip_zeros, crow + j);
  };
  if (m < 4) {
    for (std::size_t j = 0; j < m; ++j)
      gemm_tile<float, 1>(arow, a_step, b + j, k, m, skip_zeros, crow + j);
    return;
  }
  std::size_t j = 0;
  for (; j + 4 * kMaxVectors <= m; j += 4 * kMaxVectors) tile(j, kMaxVectors);
  if (j == m) return;
  const std::size_t vectors = (m - j + 3) / 4;
  if (4 * vectors <= m) {
    tile(m - 4 * vectors, vectors);
  } else {  // m < 4 * kMaxVectors and m % 4 != 0: that tile would not fit
    tile(0, m / 4);
    tile(m - 4, 1);
  }
}

// C[n×m] = A·B with A(i, kk) at pa[i * a_row + kk * a_col] and B a row-major
// [k×m] panel. Every c[i][j] is one float accumulator, starting at +0, that
// adds a(i, kk) * b(kk, j) over ascending kk — the order of the scalar ikj
// loop — whatever tile its column falls in. Output rows are blocked across
// the pool, so the result is also independent of the lane count.
Tensor gemm(const float* pa, std::size_t a_row, std::size_t a_col,
            const float* pb, std::size_t n, std::size_t k, std::size_t m,
            bool skip_zeros) {
  Tensor c({n, m});
  float* pc = c.data();
  util::ThreadPool::global().parallel_for(
      n, row_grain(k * m, kMatmulGrainFlops),
      [&](std::size_t r0, std::size_t r1, std::size_t) {
        for (std::size_t i = r0; i < r1; ++i)
          gemm_row(pa + i * a_row, a_col, pb, k, m, skip_zeros, pc + i * m);
      });
  return c;
}

float sigmoid_scalar(float x) { return 1.0f / (1.0f + std::exp(-x)); }

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return elementwise_binary(a, b, [](float x, float y) { return x + y; });
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return elementwise_binary(a, b, [](float x, float y) { return x - y; });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  return elementwise_binary(a, b, [](float x, float y) { return x * y; });
}

Tensor scale(const Tensor& a, float s) {
  Tensor out = a;
  out.scale_(s);
  return out;
}

Tensor neg(const Tensor& a) { return scale(a, -1.0f); }

Tensor silu(const Tensor& a) {
  return elementwise_unary(a, [](float x) { return x * sigmoid_scalar(x); });
}

Tensor silu_grad(const Tensor& a) {
  return elementwise_unary(a, [](float x) {
    const float s = sigmoid_scalar(x);
    return s * (1.0f + x * (1.0f - s));
  });
}

Tensor sigmoid(const Tensor& a) { return elementwise_unary(a, sigmoid_scalar); }

Tensor tanh_t(const Tensor& a) {
  return elementwise_unary(a, [](float x) { return std::tanh(x); });
}

Tensor relu(const Tensor& a) {
  return elementwise_unary(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  VELA_CHECK_MSG(a.rank() == 2 && b.rank() == 2 && a.cols() == b.rows(),
                 "matmul shape mismatch " << a.shape_string() << " x "
                                          << b.shape_string());
  return gemm(a.data(), a.cols(), 1, b.data(), a.rows(), a.cols(), b.cols(),
              /*skip_zeros=*/true);
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  VELA_CHECK_MSG(a.rank() == 2 && b.rank() == 2 && a.rows() == b.rows(),
                 "matmul_tn shape mismatch " << a.shape_string() << " x "
                                             << b.shape_string());
  // Row i of aᵀ is column i of a: a stride-n walk down a's rows.
  return gemm(a.data(), 1, a.cols(), b.data(), a.cols(), a.rows(), b.cols(),
              /*skip_zeros=*/true);
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  VELA_CHECK_MSG(a.rank() == 2 && b.rank() == 2 && a.cols() == b.cols(),
                 "matmul_nt shape mismatch " << a.shape_string() << " x "
                                             << b.shape_string());
  // The kernel vectorises along rows of its right operand, so bᵀ is packed
  // into a contiguous [k×m] panel first.
  const Tensor bt = transpose(b);
  return gemm(a.data(), a.cols(), 1, bt.data(), a.rows(), a.cols(), b.rows(),
              /*skip_zeros=*/false);
}

Tensor transpose(const Tensor& a) {
  VELA_CHECK(a.rank() == 2);
  const std::size_t n = a.rows(), m = a.cols();
  Tensor t({m, n});
  const float* pa = a.data();
  float* pt = t.data();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j) pt[j * n + i] = pa[i * m + j];
  return t;
}

Tensor add_row_broadcast(const Tensor& a, const Tensor& bias) {
  VELA_CHECK(a.rank() == 2 && bias.rank() == 1 && a.cols() == bias.dim(0));
  Tensor out = a;
  const std::size_t n = a.rows(), m = a.cols();
  util::ThreadPool::global().parallel_for(
      n, row_grain(m, kElemGrain),
      [&](std::size_t r0, std::size_t r1, std::size_t) {
        for (std::size_t i = r0; i < r1; ++i)
          for (std::size_t j = 0; j < m; ++j) out.at(i, j) += bias.at(j);
      });
  return out;
}

float sum(const Tensor& a) {
  return static_cast<float>(
      chunked_reduce(a.size(), [&](std::size_t i) { return double(a[i]); }));
}

float mean(const Tensor& a) {
  VELA_CHECK(a.size() > 0);
  return sum(a) / static_cast<float>(a.size());
}

float dot(const Tensor& a, const Tensor& b) {
  VELA_CHECK(a.size() == b.size());
  return static_cast<float>(chunked_reduce(
      a.size(), [&](std::size_t i) { return double(a[i]) * b[i]; }));
}

float max_abs(const Tensor& a) {
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i]));
  return m;
}

float l2_norm(const Tensor& a) { return std::sqrt(dot(a, a)); }

Tensor sum_rows(const Tensor& a) {
  VELA_CHECK(a.rank() == 2);
  const std::size_t n = a.rows(), m = a.cols();
  Tensor out({m});
  const std::size_t grain = row_grain(m, kReduceGrain);
  const std::size_t chunks = (n + grain - 1) / grain;
  if (chunks <= 1) {
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < m; ++j) out.at(j) += a.at(i, j);
    return out;
  }
  // Fixed row partition; per-chunk partial rows merged in chunk order keep
  // the per-column accumulation order identical at any pool size.
  Tensor partial({chunks, m});
  util::ThreadPool::global().parallel_for(
      n, grain, [&](std::size_t r0, std::size_t r1, std::size_t c) {
        for (std::size_t i = r0; i < r1; ++i)
          for (std::size_t j = 0; j < m; ++j) partial.at(c, j) += a.at(i, j);
      });
  for (std::size_t c = 0; c < chunks; ++c)
    for (std::size_t j = 0; j < m; ++j) out.at(j) += partial.at(c, j);
  return out;
}

Tensor softmax_rows(const Tensor& logits) {
  VELA_CHECK(logits.rank() == 2);
  const std::size_t n = logits.rows(), m = logits.cols();
  Tensor out({n, m});
  // Rows are independent: block them across the pool.
  util::ThreadPool::global().parallel_for(
      n, row_grain(m, kElemGrain),
      [&](std::size_t r0, std::size_t r1, std::size_t) {
        for (std::size_t i = r0; i < r1; ++i) {
          float mx = -std::numeric_limits<float>::infinity();
          for (std::size_t j = 0; j < m; ++j) mx = std::max(mx, logits.at(i, j));
          double total = 0.0;
          for (std::size_t j = 0; j < m; ++j) {
            const float e = std::exp(logits.at(i, j) - mx);
            out.at(i, j) = e;
            total += e;
          }
          const float inv = static_cast<float>(1.0 / total);
          for (std::size_t j = 0; j < m; ++j) out.at(i, j) *= inv;
        }
      });
  return out;
}

Tensor log_softmax_rows(const Tensor& logits) {
  VELA_CHECK(logits.rank() == 2);
  const std::size_t n = logits.rows(), m = logits.cols();
  Tensor out({n, m});
  util::ThreadPool::global().parallel_for(
      n, row_grain(m, kElemGrain),
      [&](std::size_t r0, std::size_t r1, std::size_t) {
        for (std::size_t i = r0; i < r1; ++i) {
          float mx = -std::numeric_limits<float>::infinity();
          for (std::size_t j = 0; j < m; ++j) mx = std::max(mx, logits.at(i, j));
          double total = 0.0;
          for (std::size_t j = 0; j < m; ++j)
            total += std::exp(logits.at(i, j) - mx);
          const float lse = mx + static_cast<float>(std::log(total));
          for (std::size_t j = 0; j < m; ++j)
            out.at(i, j) = logits.at(i, j) - lse;
        }
      });
  return out;
}

float cross_entropy(const Tensor& logits,
                    const std::vector<std::size_t>& targets) {
  VELA_CHECK(logits.rank() == 2 && logits.rows() == targets.size());
  const Tensor logp = log_softmax_rows(logits);
  double loss = 0.0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    VELA_CHECK(targets[i] < logits.cols());
    loss -= logp.at(i, targets[i]);
  }
  return static_cast<float>(loss / static_cast<double>(targets.size()));
}

Tensor cross_entropy_grad(const Tensor& logits,
                          const std::vector<std::size_t>& targets) {
  VELA_CHECK(logits.rank() == 2 && logits.rows() == targets.size());
  Tensor grad = softmax_rows(logits);
  const float inv_n = 1.0f / static_cast<float>(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    grad.at(i, targets[i]) -= 1.0f;
  }
  grad.scale_(inv_n);
  return grad;
}

std::vector<std::vector<std::size_t>> topk_rows(const Tensor& logits,
                                                std::size_t k) {
  VELA_CHECK(logits.rank() == 2 && k >= 1 && k <= logits.cols());
  const std::size_t n = logits.rows(), m = logits.cols();
  std::vector<std::vector<std::size_t>> result(n);
  std::vector<std::size_t> idx(m);
  for (std::size_t i = 0; i < n; ++i) {
    std::iota(idx.begin(), idx.end(), 0);
    std::partial_sort(idx.begin(), idx.begin() + static_cast<long>(k),
                      idx.end(), [&](std::size_t a, std::size_t b) {
                        if (logits.at(i, a) != logits.at(i, b))
                          return logits.at(i, a) > logits.at(i, b);
                        return a < b;  // deterministic tie-break
                      });
    result[i].assign(idx.begin(), idx.begin() + static_cast<long>(k));
  }
  return result;
}

Tensor gather_rows(const Tensor& a, const std::vector<std::size_t>& indices) {
  VELA_CHECK(a.rank() == 2);
  VELA_CHECK_MSG(!indices.empty(), "gather_rows requires non-empty indices");
  const std::size_t m = a.cols();
  Tensor out({indices.size(), m});
  for (std::size_t i = 0; i < indices.size(); ++i) {
    VELA_CHECK(indices[i] < a.rows());
    std::memcpy(out.data() + i * m, a.data() + indices[i] * m,
                m * sizeof(float));
  }
  return out;
}

Tensor slice_rows(const Tensor& a, std::size_t begin, std::size_t rows) {
  VELA_CHECK(a.rank() == 2);
  VELA_CHECK_MSG(begin + rows <= a.rows(), "slice_rows window out of range");
  const std::size_t m = a.cols();
  Tensor out({rows, m});
  std::memcpy(out.data(), a.data() + begin * m, rows * m * sizeof(float));
  return out;
}

Tensor concat_rows(const std::vector<Tensor>& parts) {
  VELA_CHECK_MSG(!parts.empty(), "concat_rows requires at least one part");
  const std::size_t m = parts.front().cols();
  std::size_t rows = 0;
  for (const Tensor& p : parts) {
    VELA_CHECK(p.rank() == 2 && p.cols() == m);
    rows += p.rows();
  }
  Tensor out({rows, m});
  std::size_t at = 0;
  for (const Tensor& p : parts) {
    std::memcpy(out.data() + at * m, p.data(), p.rows() * m * sizeof(float));
    at += p.rows();
  }
  return out;
}

void scatter_add_rows(Tensor& out, const Tensor& a,
                      const std::vector<std::size_t>& indices) {
  VELA_CHECK(out.rank() == 2 && a.rank() == 2 && out.cols() == a.cols());
  VELA_CHECK(a.rows() == indices.size());
  const std::size_t m = out.cols();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    VELA_CHECK(indices[i] < out.rows());
    float* dst = out.data() + indices[i] * m;
    const float* src = a.data() + i * m;
    for (std::size_t j = 0; j < m; ++j) dst[j] += src[j];
  }
}

Tensor randn(std::vector<std::size_t> shape, Rng& rng, float mean,
             float stddev) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<float>(rng.normal(mean, stddev));
  return t;
}

Tensor rand_uniform(std::vector<std::size_t> shape, Rng& rng, float lo,
                    float hi) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

Tensor kaiming(std::size_t fan_out, std::size_t fan_in, Rng& rng) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  return randn({fan_out, fan_in}, rng, 0.0f, stddev);
}

bool allclose(const Tensor& a, const Tensor& b, float atol, float rtol) {
  if (!a.same_shape(b)) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float diff = std::abs(a[i] - b[i]);
    if (diff > atol + rtol * std::abs(b[i])) return false;
  }
  return true;
}

std::uint16_t float_to_half(float value) {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof(std::uint32_t));
  const std::uint16_t sign = static_cast<std::uint16_t>((bits >> 16) & 0x8000);
  const std::int32_t exponent =
      static_cast<std::int32_t>((bits >> 23) & 0xFF) - 127 + 15;
  std::uint32_t mantissa = bits & 0x7FFFFF;

  if (((bits >> 23) & 0xFF) == 0xFF) {
    // Inf / NaN: keep a mantissa bit for NaN.
    return static_cast<std::uint16_t>(sign | 0x7C00 |
                                      (mantissa ? 0x200 : 0));
  }
  if (exponent >= 0x1F) return static_cast<std::uint16_t>(sign | 0x7C00);  // ±inf
  if (exponent <= 0) {
    // Subnormal or underflow to zero.
    if (exponent < -10) return sign;
    mantissa |= 0x800000;  // implicit leading 1
    const int shift = 14 - exponent;
    std::uint32_t half_mant = mantissa >> shift;
    // Round to nearest even.
    const std::uint32_t rem = mantissa & ((1u << shift) - 1);
    const std::uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half_mant & 1))) ++half_mant;
    return static_cast<std::uint16_t>(sign | half_mant);
  }
  // Normal: round mantissa from 23 to 10 bits, nearest-even.
  std::uint32_t half_mant = mantissa >> 13;
  const std::uint32_t rem = mantissa & 0x1FFF;
  std::uint32_t half_bits =
      static_cast<std::uint32_t>(sign) |
      (static_cast<std::uint32_t>(exponent) << 10) | half_mant;
  if (rem > 0x1000 || (rem == 0x1000 && (half_bits & 1))) ++half_bits;
  return static_cast<std::uint16_t>(half_bits);
}

float half_to_float(std::uint16_t half) {
  const std::uint32_t sign = (half & 0x8000u) << 16;
  const std::uint32_t exponent = (half >> 10) & 0x1F;
  const std::uint32_t mantissa = half & 0x3FF;
  std::uint32_t bits;
  if (exponent == 0x1F) {
    bits = sign | 0x7F800000u | (mantissa << 13);
  } else if (exponent == 0) {
    if (mantissa == 0) {
      bits = sign;
    } else {
      // Subnormal: normalize.
      int e = -1;
      std::uint32_t m = mantissa;
      do {
        ++e;
        m <<= 1;
      } while ((m & 0x400) == 0);
      bits = sign | (static_cast<std::uint32_t>(127 - 15 - e) << 23) |
             ((m & 0x3FF) << 13);
    }
  } else {
    bits = sign | ((exponent - 15 + 127) << 23) | (mantissa << 13);
  }
  float value;
  std::memcpy(&value, &bits, sizeof(float));
  return value;
}

Tensor to_half_precision(const Tensor& a) {
  Tensor out(a.shape());
  util::ThreadPool::global().parallel_for(
      a.size(), kElemGrain,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) {
          out[i] = half_to_float(float_to_half(a[i]));
        }
      });
  return out;
}

}  // namespace vela::ops
