#include "tensor/qgemm.h"

#include <algorithm>

#include "util/check.h"
#include "util/thread_pool.h"

#if defined(__AVX2__)
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
#include <emmintrin.h>
#define VELA_QGEMM_SSE2 1
#endif

namespace vela::qgemm {

std::int32_t vec_dot_q8_scalar(const std::int8_t* a, const std::int8_t* b,
                               std::size_t n) {
  std::int32_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
  return acc;
}

#if defined(__AVX2__)

const char* kernel_name() { return "avx2"; }

std::int32_t vec_dot_q8(const std::int8_t* a, const std::int8_t* b,
                        std::size_t n) {
  // 16 int8 lanes per step: sign-extend to int16, multiply-add pairs into
  // int32 lanes. The horizontal sum at the end is exact integer math, so
  // lane order is irrelevant and the result equals the scalar loop's.
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i va = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    const __m256i vb = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
  }
  __m128i lo = _mm256_castsi256_si128(acc);
  __m128i hi = _mm256_extracti128_si256(acc, 1);
  __m128i sum4 = _mm_add_epi32(lo, hi);
  sum4 = _mm_add_epi32(sum4, _mm_shuffle_epi32(sum4, 0x4E));
  sum4 = _mm_add_epi32(sum4, _mm_shuffle_epi32(sum4, 0xB1));
  std::int32_t total = _mm_cvtsi128_si32(sum4);
  return total + vec_dot_q8_scalar(a + i, b + i, n - i);
}

#elif defined(VELA_QGEMM_SSE2)

const char* kernel_name() { return "sse2"; }

std::int32_t vec_dot_q8(const std::int8_t* a, const std::int8_t* b,
                        std::size_t n) {
  // 16 int8 lanes per step, sign-extended to int16 by the compare/unpack
  // idiom (SSE2 has no cvtepi8), then pairwise madd into int32 lanes.
  __m128i acc = _mm_setzero_si128();
  const __m128i zero = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    const __m128i sa = _mm_cmpgt_epi8(zero, va);
    const __m128i sb = _mm_cmpgt_epi8(zero, vb);
    const __m128i a_lo = _mm_unpacklo_epi8(va, sa);
    const __m128i a_hi = _mm_unpackhi_epi8(va, sa);
    const __m128i b_lo = _mm_unpacklo_epi8(vb, sb);
    const __m128i b_hi = _mm_unpackhi_epi8(vb, sb);
    acc = _mm_add_epi32(acc, _mm_madd_epi16(a_lo, b_lo));
    acc = _mm_add_epi32(acc, _mm_madd_epi16(a_hi, b_hi));
  }
  acc = _mm_add_epi32(acc, _mm_shuffle_epi32(acc, 0x4E));
  acc = _mm_add_epi32(acc, _mm_shuffle_epi32(acc, 0xB1));
  std::int32_t total = _mm_cvtsi128_si32(acc);
  return total + vec_dot_q8_scalar(a + i, b + i, n - i);
}

#else

const char* kernel_name() { return "scalar"; }

std::int32_t vec_dot_q8(const std::int8_t* a, const std::int8_t* b,
                        std::size_t n) {
  return vec_dot_q8_scalar(a, b, n);
}

#endif

Tensor matmul_nt_q8(const Tensor& x, const qblock::QTensor& w) {
  VELA_CHECK_MSG(x.rank() == 2 && x.cols() == w.cols,
                 "matmul_nt_q8 shape mismatch " << x.shape_string() << " x ["
                                                << w.rows << ", " << w.cols
                                                << "]");
  const qblock::QTensor qx = qblock::quantize(x, w.block);
  const std::size_t n = qx.rows, k = qx.cols, m = w.rows;
  const std::size_t per_row = qx.row_blocks();
  Tensor y({n, m});
  float* py = y.data();
  // Row blocks of ~262144 (2^18) mults per chunk, four times the 2^16 that
  // ops uses for its fp32 matmuls. The grain sets only the chunking:
  // per-output-element independence keeps any row partition
  // bit-deterministic.
  const std::size_t grain = std::max<std::size_t>(
      1, 262144 / std::max<std::size_t>(k * m, 1));
  util::ThreadPool::global().parallel_for(
      n, grain, [&](std::size_t r0, std::size_t r1, std::size_t) {
        for (std::size_t i = r0; i < r1; ++i) {
          const std::int8_t* xrow = qx.codes.data() + i * k;
          const float* xscale = qx.scales.data() + i * per_row;
          for (std::size_t j = 0; j < m; ++j) {
            const std::int8_t* wrow = w.codes.data() + j * k;
            const float* wscale = w.scales.data() + j * per_row;
            float acc = 0.0f;
            for (std::size_t b = 0; b < per_row; ++b) {
              const std::size_t begin = b * w.block;
              const std::size_t len =
                  begin + w.block < k ? w.block : k - begin;
              const std::int32_t dot =
                  vec_dot_q8(xrow + begin, wrow + begin, len);
              acc += (xscale[b] * wscale[b]) * static_cast<float>(dot);
            }
            py[i * m + j] = acc;
          }
        }
      });
  return y;
}

}  // namespace vela::qgemm
