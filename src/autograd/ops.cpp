#include "autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "tensor/ops.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace vela::ag {

using detail::Node;

namespace {

// Row-parallel helper: rows are independent in every kernel below, so chunk
// boundaries (fixed by row count and grain) never affect the result.
void for_rows(std::size_t n, std::size_t cols,
              const std::function<void(std::size_t)>& row_fn) {
  constexpr std::size_t kRowGrainElems = 16384;
  const std::size_t grain =
      std::max<std::size_t>(1, kRowGrainElems / std::max<std::size_t>(cols, 1));
  util::ThreadPool::global().parallel_for(
      n, grain, [&](std::size_t r0, std::size_t r1, std::size_t) {
        for (std::size_t i = r0; i < r1; ++i) row_fn(i);
      });
}

}  // namespace

Variable add(const Variable& a, const Variable& b) {
  Tensor value = ops::add(a.value(), b.value());
  return make_op(std::move(value), {a, b}, [](Node& n) {
    if (n.parents[0]->requires_grad) n.parents[0]->accumulate_grad(n.grad);
    if (n.parents[1]->requires_grad) n.parents[1]->accumulate_grad(n.grad);
  });
}

Variable sub(const Variable& a, const Variable& b) {
  Tensor value = ops::sub(a.value(), b.value());
  return make_op(std::move(value), {a, b}, [](Node& n) {
    if (n.parents[0]->requires_grad) n.parents[0]->accumulate_grad(n.grad);
    if (n.parents[1]->requires_grad)
      n.parents[1]->accumulate_grad(ops::neg(n.grad));
  });
}

Variable mul(const Variable& a, const Variable& b) {
  Tensor value = ops::mul(a.value(), b.value());
  return make_op(std::move(value), {a, b}, [](Node& n) {
    if (n.parents[0]->requires_grad)
      n.parents[0]->accumulate_grad(ops::mul(n.grad, n.parents[1]->value));
    if (n.parents[1]->requires_grad)
      n.parents[1]->accumulate_grad(ops::mul(n.grad, n.parents[0]->value));
  });
}

Variable scale(const Variable& a, float s) {
  Tensor value = ops::scale(a.value(), s);
  return make_op(std::move(value), {a}, [s](Node& n) {
    n.parents[0]->accumulate_grad(ops::scale(n.grad, s));
  });
}

Variable silu(const Variable& a) {
  Tensor value = ops::silu(a.value());
  return make_op(std::move(value), {a}, [](Node& n) {
    n.parents[0]->accumulate_grad(
        ops::mul(n.grad, ops::silu_grad(n.parents[0]->value)));
  });
}

Variable matmul(const Variable& a, const Variable& b) {
  Tensor value = ops::matmul(a.value(), b.value());
  return make_op(std::move(value), {a, b}, [](Node& n) {
    // dA = dC Bᵀ ; dB = Aᵀ dC.
    if (n.parents[0]->requires_grad)
      n.parents[0]->accumulate_grad(ops::matmul_nt(n.grad, n.parents[1]->value));
    if (n.parents[1]->requires_grad)
      n.parents[1]->accumulate_grad(ops::matmul_tn(n.parents[0]->value, n.grad));
  });
}

Variable matmul_nt(const Variable& a, const Variable& b) {
  Tensor value = ops::matmul_nt(a.value(), b.value());
  return make_op(std::move(value), {a, b}, [](Node& n) {
    // C = A Bᵀ: dA = dC B ; dB = dCᵀ A.
    if (n.parents[0]->requires_grad)
      n.parents[0]->accumulate_grad(ops::matmul(n.grad, n.parents[1]->value));
    if (n.parents[1]->requires_grad)
      n.parents[1]->accumulate_grad(ops::matmul_tn(n.grad, n.parents[0]->value));
  });
}

Variable linear_nt(const Variable& x, const Variable& w) {
  Tensor value = ops::matmul_nt(x.value(), w.value());
  return make_op(std::move(value), {x, w}, [](Node& n) {
    // y = x Wᵀ: dX = dY W ; dW = dYᵀ X.
    if (n.parents[0]->requires_grad)
      n.parents[0]->accumulate_grad(ops::matmul(n.grad, n.parents[1]->value));
    if (n.parents[1]->requires_grad)
      n.parents[1]->accumulate_grad(ops::matmul_tn(n.grad, n.parents[0]->value));
  });
}

Variable add_row_broadcast(const Variable& x, const Variable& bias) {
  Tensor value = ops::add_row_broadcast(x.value(), bias.value());
  return make_op(std::move(value), {x, bias}, [](Node& n) {
    if (n.parents[0]->requires_grad) n.parents[0]->accumulate_grad(n.grad);
    if (n.parents[1]->requires_grad)
      n.parents[1]->accumulate_grad(ops::sum_rows(n.grad));
  });
}

Variable rmsnorm(const Variable& x, const Variable& gain, float eps) {
  const Tensor& xv = x.value();
  VELA_CHECK(xv.rank() == 2 && gain.value().rank() == 1 &&
             gain.value().dim(0) == xv.cols());
  const std::size_t n = xv.rows(), m = xv.cols();
  // Precompute the per-row inverse RMS once; the backward closure reuses it.
  auto inv_rms = std::make_shared<std::vector<float>>(n);
  Tensor value({n, m});
  for_rows(n, m, [&](std::size_t i) {
    double ss = 0.0;
    for (std::size_t j = 0; j < m; ++j) ss += double(xv.at(i, j)) * xv.at(i, j);
    const float r =
        1.0f / std::sqrt(static_cast<float>(ss / static_cast<double>(m)) + eps);
    (*inv_rms)[i] = r;
    for (std::size_t j = 0; j < m; ++j)
      value.at(i, j) = xv.at(i, j) * r * gain.value().at(j);
  });
  return make_op(std::move(value), {x, gain}, [inv_rms, n, m](Node& node) {
    const Tensor& px = node.parents[0]->value;
    const Tensor& g = node.parents[1]->value;
    const Tensor& dy = node.grad;
    if (node.parents[0]->requires_grad) {
      Tensor dx({n, m});
      for_rows(n, m, [&](std::size_t i) {
        const float r = (*inv_rms)[i];
        double proj = 0.0;  // Σ_j dy_j g_j x_j
        for (std::size_t j = 0; j < m; ++j)
          proj += double(dy.at(i, j)) * g.at(j) * px.at(i, j);
        const float c =
            static_cast<float>(proj) * r * r * r / static_cast<float>(m);
        for (std::size_t j = 0; j < m; ++j)
          dx.at(i, j) = r * g.at(j) * dy.at(i, j) - c * px.at(i, j);
      });
      node.parents[0]->accumulate_grad(dx);
    }
    if (node.parents[1]->requires_grad) {
      Tensor dg({m});
      for (std::size_t i = 0; i < n; ++i) {
        const float r = (*inv_rms)[i];
        for (std::size_t j = 0; j < m; ++j)
          dg.at(j) += dy.at(i, j) * px.at(i, j) * r;
      }
      node.parents[1]->accumulate_grad(dg);
    }
  });
}

namespace {

// Shared softmax backward: dz = (dy - rowdot(dy, y)) * y.
Tensor softmax_backward(const Tensor& y, const Tensor& dy) {
  const std::size_t n = y.rows(), m = y.cols();
  Tensor dz({n, m});
  for_rows(n, m, [&](std::size_t i) {
    double inner = 0.0;
    for (std::size_t j = 0; j < m; ++j)
      inner += double(dy.at(i, j)) * y.at(i, j);
    for (std::size_t j = 0; j < m; ++j)
      dz.at(i, j) = (dy.at(i, j) - static_cast<float>(inner)) * y.at(i, j);
  });
  return dz;
}

}  // namespace

Variable softmax_rows(const Variable& logits) {
  Tensor value = ops::softmax_rows(logits.value());
  return make_op(std::move(value), {logits}, [](Node& n) {
    n.parents[0]->accumulate_grad(softmax_backward(n.value, n.grad));
  });
}

Variable causal_masked_softmax(const Variable& scores) {
  const Tensor& s = scores.value();
  VELA_CHECK_MSG(s.rank() == 2 && s.rows() == s.cols(),
                 "causal mask requires a square score matrix");
  const std::size_t t = s.rows();
  Tensor value({t, t});
  for_rows(t, t, [&](std::size_t i) {
    float mx = s.at(i, 0);
    for (std::size_t j = 1; j <= i; ++j) mx = std::max(mx, s.at(i, j));
    double total = 0.0;
    for (std::size_t j = 0; j <= i; ++j) {
      const float e = std::exp(s.at(i, j) - mx);
      value.at(i, j) = e;
      total += e;
    }
    const float inv = static_cast<float>(1.0 / total);
    for (std::size_t j = 0; j <= i; ++j) value.at(i, j) *= inv;
    // j > i stays exactly zero: masked out.
  });
  return make_op(std::move(value), {scores}, [](Node& n) {
    // Masked entries have y == 0, so softmax_backward already yields zero
    // gradient for them.
    n.parents[0]->accumulate_grad(softmax_backward(n.value, n.grad));
  });
}

Variable embedding(const Variable& weight, const std::vector<std::size_t>& ids) {
  Tensor value = ops::gather_rows(weight.value(), ids);
  auto ids_copy = std::make_shared<std::vector<std::size_t>>(ids);
  return make_op(std::move(value), {weight}, [ids_copy](Node& n) {
    Tensor dw(n.parents[0]->value.shape());
    ops::scatter_add_rows(dw, n.grad, *ids_copy);
    n.parents[0]->accumulate_grad(dw);
  });
}

Variable gather_rows(const Variable& x, const std::vector<std::size_t>& indices) {
  Tensor value = ops::gather_rows(x.value(), indices);
  auto idx = std::make_shared<std::vector<std::size_t>>(indices);
  return make_op(std::move(value), {x}, [idx](Node& n) {
    Tensor dx(n.parents[0]->value.shape());
    ops::scatter_add_rows(dx, n.grad, *idx);
    n.parents[0]->accumulate_grad(dx);
  });
}

Tensor rows_of(const Variable& x, const std::vector<std::size_t>& indices) {
  return ops::gather_rows(x.value(), indices);
}

Variable remote_rows(const Variable& x, std::vector<std::size_t> rows,
                     Tensor value, PostGrad post) {
  VELA_CHECK(!rows.empty() && value.rank() == 2 && value.rows() == rows.size());
  auto idx = std::make_shared<const std::vector<std::size_t>>(std::move(rows));
  return make_op(
      std::move(value), {x}, [idx, post = std::move(post)](Node& n) {
        Node& px = *n.parents[0];
        px.defer_grad([idx, reply = post(n.grad), shape = px.value.shape()] {
          Tensor dx(shape);
          ops::scatter_add_rows(dx, reply(), *idx);
          return dx;
        });
      });
}

Variable scatter_rows(const Variable& x, const std::vector<std::size_t>& indices,
                      std::size_t out_rows) {
  const Tensor& xv = x.value();
  VELA_CHECK(xv.rank() == 2 && xv.rows() == indices.size());
  Tensor value({out_rows, xv.cols()});
  ops::scatter_add_rows(value, xv, indices);
  auto idx = std::make_shared<std::vector<std::size_t>>(indices);
  return make_op(std::move(value), {x}, [idx](Node& n) {
    n.parents[0]->accumulate_grad(ops::gather_rows(n.grad, *idx));
  });
}

Variable scale_rows(const Variable& x, const Variable& weights) {
  const Tensor& xv = x.value();
  const Tensor& wv = weights.value();
  VELA_CHECK(xv.rank() == 2 && wv.rank() == 1 && wv.dim(0) == xv.rows());
  const std::size_t n = xv.rows(), m = xv.cols();
  Tensor value({n, m});
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j) value.at(i, j) = xv.at(i, j) * wv.at(i);
  return make_op(std::move(value), {x, weights}, [n, m](Node& node) {
    const Tensor& px = node.parents[0]->value;
    const Tensor& pw = node.parents[1]->value;
    if (node.parents[0]->requires_grad) {
      Tensor dx({n, m});
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < m; ++j)
          dx.at(i, j) = node.grad.at(i, j) * pw.at(i);
      node.parents[0]->accumulate_grad(dx);
    }
    if (node.parents[1]->requires_grad) {
      Tensor dw({n});
      for (std::size_t i = 0; i < n; ++i) {
        double acc = 0.0;
        for (std::size_t j = 0; j < m; ++j)
          acc += double(node.grad.at(i, j)) * px.at(i, j);
        dw.at(i) = static_cast<float>(acc);
      }
      node.parents[1]->accumulate_grad(dw);
    }
  });
}

Variable slice_cols(const Variable& x, std::size_t start, std::size_t len) {
  const Tensor& xv = x.value();
  VELA_CHECK(xv.rank() == 2 && start + len <= xv.cols() && len > 0);
  const std::size_t n = xv.rows();
  Tensor value({n, len});
  for (std::size_t i = 0; i < n; ++i)
    std::memcpy(value.data() + i * len, xv.data() + i * xv.cols() + start,
                len * sizeof(float));
  const std::size_t cols = xv.cols();
  return make_op(std::move(value), {x}, [start, len, n, cols](Node& node) {
    Tensor dx({n, cols});
    for (std::size_t i = 0; i < n; ++i)
      std::memcpy(dx.data() + i * cols + start, node.grad.data() + i * len,
                  len * sizeof(float));
    node.parents[0]->accumulate_grad(dx);
  });
}

Variable slice_vec(const Variable& x, std::size_t start, std::size_t len) {
  const Tensor& xv = x.value();
  VELA_CHECK(xv.rank() == 1 && start + len <= xv.dim(0) && len > 0);
  Tensor value({len});
  std::memcpy(value.data(), xv.data() + start, len * sizeof(float));
  const std::size_t total = xv.dim(0);
  return make_op(std::move(value), {x}, [start, len, total](Node& node) {
    Tensor dx({total});
    std::memcpy(dx.data() + start, node.grad.data(), len * sizeof(float));
    node.parents[0]->accumulate_grad(dx);
  });
}

Variable concat_cols(const std::vector<Variable>& parts) {
  VELA_CHECK(!parts.empty());
  const std::size_t n = parts[0].value().rows();
  std::size_t total = 0;
  for (const auto& p : parts) {
    VELA_CHECK(p.value().rank() == 2 && p.value().rows() == n);
    total += p.value().cols();
  }
  Tensor value({n, total});
  std::size_t offset = 0;
  std::vector<std::size_t> offsets;
  std::vector<std::size_t> widths;
  for (const auto& p : parts) {
    const std::size_t w = p.value().cols();
    for (std::size_t i = 0; i < n; ++i)
      std::memcpy(value.data() + i * total + offset,
                  p.value().data() + i * w, w * sizeof(float));
    offsets.push_back(offset);
    widths.push_back(w);
    offset += w;
  }
  return make_op(std::move(value), parts,
                 [offsets, widths, n, total](Node& node) {
                   for (std::size_t k = 0; k < node.parents.size(); ++k) {
                     if (!node.parents[k]->requires_grad) continue;
                     const std::size_t w = widths[k], off = offsets[k];
                     Tensor dp({n, w});
                     for (std::size_t i = 0; i < n; ++i)
                       std::memcpy(dp.data() + i * w,
                                   node.grad.data() + i * total + off,
                                   w * sizeof(float));
                     node.parents[k]->accumulate_grad(dp);
                   }
                 });
}

Variable concat_rows(const std::vector<Variable>& parts) {
  VELA_CHECK(!parts.empty());
  const std::size_t m = parts[0].value().cols();
  std::size_t total = 0;
  for (const auto& p : parts) {
    VELA_CHECK(p.value().rank() == 2 && p.value().cols() == m);
    total += p.value().rows();
  }
  Tensor value({total, m});
  std::size_t row = 0;
  std::vector<std::size_t> row_offsets;
  std::vector<std::size_t> row_counts;
  for (const auto& p : parts) {
    const std::size_t r = p.value().rows();
    std::memcpy(value.data() + row * m, p.value().data(),
                r * m * sizeof(float));
    row_offsets.push_back(row);
    row_counts.push_back(r);
    row += r;
  }
  return make_op(std::move(value), parts,
                 [row_offsets, row_counts, m](Node& node) {
                   for (std::size_t k = 0; k < node.parents.size(); ++k) {
                     if (!node.parents[k]->requires_grad) continue;
                     const std::size_t r = row_counts[k];
                     Tensor dp({r, m});
                     std::memcpy(dp.data(),
                                 node.grad.data() + row_offsets[k] * m,
                                 r * m * sizeof(float));
                     node.parents[k]->accumulate_grad(dp);
                   }
                 });
}

Variable sum(const Variable& x) {
  Tensor value({1});
  value[0] = ops::sum(x.value());
  return make_op(std::move(value), {x}, [](Node& n) {
    Tensor dx(n.parents[0]->value.shape());
    dx.fill(n.grad[0]);
    n.parents[0]->accumulate_grad(dx);
  });
}

Variable mean(const Variable& x) {
  const float inv = 1.0f / static_cast<float>(x.value().size());
  Tensor value({1});
  value[0] = ops::mean(x.value());
  return make_op(std::move(value), {x}, [inv](Node& n) {
    Tensor dx(n.parents[0]->value.shape());
    dx.fill(n.grad[0] * inv);
    n.parents[0]->accumulate_grad(dx);
  });
}

Variable logsumexp_rows(const Variable& x) {
  const Tensor& xv = x.value();
  VELA_CHECK(xv.rank() == 2);
  const std::size_t n = xv.rows(), m = xv.cols();
  Tensor value({n});
  for (std::size_t i = 0; i < n; ++i) {
    float mx = xv.at(i, 0);
    for (std::size_t j = 1; j < m; ++j) mx = std::max(mx, xv.at(i, j));
    double total = 0.0;
    for (std::size_t j = 0; j < m; ++j) total += std::exp(xv.at(i, j) - mx);
    value.at(i) = mx + static_cast<float>(std::log(total));
  }
  return make_op(std::move(value), {x}, [n, m](Node& node) {
    // d lse_i / d x_ij = softmax(x_i)_j.
    const Tensor& px = node.parents[0]->value;
    Tensor dx = ops::softmax_rows(px);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < m; ++j) dx.at(i, j) *= node.grad.at(i);
    }
    node.parents[0]->accumulate_grad(dx);
  });
}

Variable cross_entropy(const Variable& logits,
                       const std::vector<std::size_t>& targets) {
  Tensor value({1});
  value[0] = ops::cross_entropy(logits.value(), targets);
  auto tgt = std::make_shared<std::vector<std::size_t>>(targets);
  return make_op(std::move(value), {logits}, [tgt](Node& n) {
    Tensor dl = ops::cross_entropy_grad(n.parents[0]->value, *tgt);
    dl.scale_(n.grad[0]);
    n.parents[0]->accumulate_grad(dl);
  });
}

float gradcheck_max_abs_err(Variable& leaf,
                            const std::function<Variable()>& loss_fn,
                            float eps) {
  VELA_CHECK(leaf.requires_grad());
  // Analytic gradient.
  leaf.zero_grad();
  Variable loss = loss_fn();
  backward(loss);
  const Tensor analytic = leaf.grad();

  Tensor& theta = leaf.mutable_value();
  float max_err = 0.0f;
  for (std::size_t i = 0; i < theta.size(); ++i) {
    const float saved = theta[i];
    theta[i] = saved + eps;
    const float up = loss_fn().value()[0];
    theta[i] = saved - eps;
    const float down = loss_fn().value()[0];
    theta[i] = saved;
    const float numeric = (up - down) / (2.0f * eps);
    max_err = std::max(max_err, std::abs(numeric - analytic[i]));
  }
  return max_err;
}

}  // namespace vela::ag
