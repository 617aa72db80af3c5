// Differentiable operations over ag::Variable.
//
// Each op computes its value with the raw kernels in tensor/ops.h and
// registers a closure with the exact vector–Jacobian product. The set is the
// minimal closure needed by a Mixtral-style MoE transformer with LoRA:
// linear algebra, SwiGLU, RMSNorm, (masked) softmax, embedding, the row
// gather/scatter pair that implements MoE token dispatch, and cross-entropy.
#pragma once

#include <cstddef>
#include <vector>

#include "autograd/variable.h"

namespace vela::ag {

// --- elementwise -----------------------------------------------------------
Variable add(const Variable& a, const Variable& b);
Variable sub(const Variable& a, const Variable& b);
Variable mul(const Variable& a, const Variable& b);  // Hadamard
Variable scale(const Variable& a, float s);
Variable silu(const Variable& a);

// --- linear algebra --------------------------------------------------------
Variable matmul(const Variable& a, const Variable& b);
// C = A · Bᵀ for A [n,k], B [m,k] (attention scores q·kᵀ).
Variable matmul_nt(const Variable& a, const Variable& b);
// y = x · Wᵀ for a [out,in] weight matrix (the Linear layer convention).
Variable linear_nt(const Variable& x, const Variable& w);
Variable add_row_broadcast(const Variable& x, const Variable& bias);

// --- normalization / activation --------------------------------------------
// RMSNorm with learned per-feature gain: y = x / rms(x) * g.
Variable rmsnorm(const Variable& x, const Variable& gain, float eps = 1e-5f);
Variable softmax_rows(const Variable& logits);
// Softmax over a square [T, T] score matrix with a causal mask (entries
// j > i are excluded from both the forward pass and the gradient).
Variable causal_masked_softmax(const Variable& scores);

// --- lookup / routing ------------------------------------------------------
// Rows of `weight` ([V, H]) selected by token ids; backward scatter-adds.
Variable embedding(const Variable& weight, const std::vector<std::size_t>& ids);
// Gathers rows `indices` of x (MoE dispatch). indices must be non-empty.
Variable gather_rows(const Variable& x, const std::vector<std::size_t>& indices);
// Places row i of x at row indices[i] of a zero [out_rows, m] tensor,
// accumulating on collisions (MoE combine).
Variable scatter_rows(const Variable& x, const std::vector<std::size_t>& indices,
                      std::size_t out_rows);
// Rows `indices` of x's value, off the tape (a remote group's payload).
Tensor rows_of(const Variable& x, const std::vector<std::size_t>& indices);

// --- remote computation ------------------------------------------------------
// The wait for a remote backward's reply: returns dL/d(rows), one row per
// dispatched row.
using AwaitRows = std::function<Tensor()>;
// Sends dL/dy for a remote computation and returns without waiting.
using PostGrad = std::function<AwaitRows(const Tensor& dy)>;
// The output `value` of a computation run elsewhere on rows `rows` of x (a
// remote expert on its dispatched tokens). Backward calls post(dy) and
// defers the returned wait onto x: when the sweep reaches x, the reply rows
// are scattered into a zero tensor of x's shape and summed into x's grad in
// the order the posts were made — the sum gather_rows' backward would have
// formed. Every remote op consuming x has posted before the first wait, so
// a backend's gradient round trips overlap. rows must be non-empty.
Variable remote_rows(const Variable& x, std::vector<std::size_t> rows,
                     Tensor value, PostGrad post);

// Multiplies row i of x by weights[i] (rank-1 weights of length rows(x)) —
// the per-token gate weighting of expert outputs.
Variable scale_rows(const Variable& x, const Variable& weights);

// --- column slicing (multi-head attention) ---------------------------------
Variable slice_cols(const Variable& x, std::size_t start, std::size_t len);
// Contiguous slice of a rank-1 vector (per-expert weight segments).
Variable slice_vec(const Variable& x, std::size_t start, std::size_t len);
Variable concat_cols(const std::vector<Variable>& parts);
// Stacks rank-2 parts with equal column counts on top of each other — the
// MoE pre-processing reshape that flattens a batch of sequences into one
// token list. Use gather_rows with a contiguous range to split back.
Variable concat_rows(const std::vector<Variable>& parts);

// --- reductions / losses ----------------------------------------------------
Variable sum(const Variable& x);                    // scalar [1]
Variable mean(const Variable& x);                   // scalar [1]
// Row-wise log Σ exp of a [n, m] tensor → rank-1 [n] (router z-loss).
Variable logsumexp_rows(const Variable& x);
// Mean token-level cross entropy of next-token logits. Scalar [1].
Variable cross_entropy(const Variable& logits,
                       const std::vector<std::size_t>& targets);

// Gradient check helper: central-difference numerical gradient of
// `loss_fn` w.r.t. `leaf`, compared against the analytic one.
// Returns max absolute elementwise deviation.
float gradcheck_max_abs_err(Variable& leaf,
                            const std::function<Variable()>& loss_fn,
                            float eps = 1e-3f);

}  // namespace vela::ag
