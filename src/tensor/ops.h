// Free-function tensor kernels.
//
// These are the raw numeric kernels; the autograd layer wraps them with
// derivative rules. Shapes are validated eagerly — a wrong shape entering a
// distributed exchange would corrupt training silently otherwise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace vela::ops {

// --- elementwise -----------------------------------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);  // Hadamard
Tensor scale(const Tensor& a, float s);
Tensor neg(const Tensor& a);
// SiLU (swish): x * sigmoid(x) — the activation inside Mistral's experts.
Tensor silu(const Tensor& a);
Tensor silu_grad(const Tensor& a);  // d silu / dx, elementwise
Tensor sigmoid(const Tensor& a);
Tensor tanh_t(const Tensor& a);
Tensor relu(const Tensor& a);

// --- linear algebra --------------------------------------------------------
// C[n,m] = A[n,k] * B[k,m].
Tensor matmul(const Tensor& a, const Tensor& b);
// C[n,m] = A[k,n]^T * B[k,m] (saves materializing the transpose).
Tensor matmul_tn(const Tensor& a, const Tensor& b);
// C[n,m] = A[n,k] * B[m,k]^T.
Tensor matmul_nt(const Tensor& a, const Tensor& b);
Tensor transpose(const Tensor& a);  // rank-2

// Adds a rank-1 bias (length m) to every row of a [n, m] tensor.
Tensor add_row_broadcast(const Tensor& a, const Tensor& bias);

// --- reductions ------------------------------------------------------------
float sum(const Tensor& a);
float mean(const Tensor& a);
float dot(const Tensor& a, const Tensor& b);
float max_abs(const Tensor& a);
float l2_norm(const Tensor& a);
// Sums the rows of a [n, m] tensor into a length-m vector (bias gradient).
Tensor sum_rows(const Tensor& a);

// --- softmax & friends -----------------------------------------------------
// Row-wise, numerically stable softmax of a [n, m] tensor.
Tensor softmax_rows(const Tensor& logits);
// Row-wise log-softmax.
Tensor log_softmax_rows(const Tensor& logits);
// Mean negative log-likelihood of target class per row; logits [n, m],
// targets length n with entries in [0, m).
float cross_entropy(const Tensor& logits, const std::vector<std::size_t>& targets);
// Gradient of the above w.r.t. logits (softmax - onehot, scaled by 1/n).
Tensor cross_entropy_grad(const Tensor& logits,
                          const std::vector<std::size_t>& targets);

// Per-row top-k: returns indices of the k largest entries of each row,
// in descending value order. logits is [n, m], k <= m.
std::vector<std::vector<std::size_t>> topk_rows(const Tensor& logits,
                                                std::size_t k);

// --- row gather / scatter (MoE dispatch primitives) -------------------------
// Gathers rows `indices` of a [n, m] tensor into a [|indices|, m] tensor.
Tensor gather_rows(const Tensor& a, const std::vector<std::size_t>& indices);
// out.row(indices[i]) += a.row(i); out must be [n, m], a [|indices|, m].
void scatter_add_rows(Tensor& out, const Tensor& a,
                      const std::vector<std::size_t>& indices);
// Contiguous row window [begin, begin + rows) of a [n, m] tensor.
Tensor slice_rows(const Tensor& a, std::size_t begin, std::size_t rows);
// Stacks rank-2 tensors of equal column count along the row axis, in order.
Tensor concat_rows(const std::vector<Tensor>& parts);

// --- initialization --------------------------------------------------------
Tensor randn(std::vector<std::size_t> shape, Rng& rng, float mean = 0.0f,
             float stddev = 1.0f);
Tensor rand_uniform(std::vector<std::size_t> shape, Rng& rng, float lo,
                    float hi);
// Kaiming-style fan-in init for a [out, in] weight matrix.
Tensor kaiming(std::size_t fan_out, std::size_t fan_in, Rng& rng);

// --- comparisons (tests) ----------------------------------------------------
bool allclose(const Tensor& a, const Tensor& b, float atol = 1e-5f,
              float rtol = 1e-4f);

// --- wire quantization ------------------------------------------------------
// IEEE 754 binary16 conversion (round-to-nearest-even, overflow → ±inf).
std::uint16_t float_to_half(float value);
float half_to_float(std::uint16_t half);
// The paper's 16-bit feature transport: rounds every element to its nearest
// IEEE binary16 value (a float_to_half/half_to_float round trip).
Tensor to_half_precision(const Tensor& a);

}  // namespace vela::ops
