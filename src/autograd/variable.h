// Tape-based reverse-mode automatic differentiation.
//
// This engine is the stand-in for LibTorch in the original system: it supplies
// exact gradients for the backbone, the gating mechanism, LoRA adapters and
// the expert FFNs. The design is a dynamic define-by-run graph: every op in
// autograd/ops.h produces a Variable whose Node remembers its parents and a
// closure that pushes gradients to them. Variables are cheap value-semantic
// handles (shared_ptr to the Node), so routing-dependent graphs — the MoE
// dispatch — fall out naturally.
//
// A gradient contribution may also be *deferred*: its producer fires, starts
// the work (a remote expert backward, ops.h remote_rows) and leaves a thunk
// on the receiving node instead of a tensor. The sweep resolves a node's
// thunks when it reaches that node, so every producer upstream of it has
// fired — and posted its work — before the first wait. Once a node holds a
// deferred entry, eager contributions queue behind it: the sum into `grad`
// keeps the exact order in which the producers fired.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace vela::ag {

class Variable;

namespace detail {

// A gradient contribution not yet available when its producer fires.
// Returns the contribution (same shape as the receiving node's value).
using DeferredGrad = std::function<Tensor()>;

struct Node {
  Tensor value;
  Tensor grad;          // allocated lazily on first accumulation
  bool requires_grad = false;
  bool grad_ready = false;  // whether `grad` has been allocated
  std::vector<std::shared_ptr<Node>> parents;
  // Propagates this node's grad into the parents' grads. Empty for leaves.
  std::function<void(Node&)> backward_fn;
  // Contributions still to be summed into `grad`, in call order: deferred
  // thunks and the eager contributions that arrived after the first one.
  std::vector<DeferredGrad> pending;

  // Sums g into `grad` — or queues it, if a deferred entry is pending.
  void accumulate_grad(const Tensor& g);
  void defer_grad(DeferredGrad g);
  // Runs the pending entries in order and sums each result into `grad`.
  // A throwing entry drops the rest of the queue.
  void resolve_pending();

 private:
  void add_grad(Tensor g);
};

}  // namespace detail

// A differentiable tensor handle. Copying a Variable aliases the same
// underlying node (same value and gradient buffer).
class Variable {
 public:
  Variable() = default;

  // Leaf construction. Leaves with requires_grad=true receive gradients in
  // backward(); constants do not.
  static Variable leaf(Tensor value, bool requires_grad);
  static Variable constant(Tensor value) { return leaf(std::move(value), false); }

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const;
  Tensor& mutable_value();  // optimizers update leaf values in place
  bool requires_grad() const;

  // The accumulated gradient. Only valid after backward(); zero-shaped
  // gradient means "never touched".
  const Tensor& grad() const;
  bool has_grad() const;
  void zero_grad();
  // Overwrites the gradient (distributed gradient averaging installs the
  // all-reduced result before the optimizer step). Shape must match value.
  void set_grad(Tensor grad);

  // Internal: used by op constructors.
  std::shared_ptr<detail::Node> node() const { return node_; }
  static Variable from_node(std::shared_ptr<detail::Node> node);

 private:
  std::shared_ptr<detail::Node> node_;
};

// Runs reverse-mode accumulation from `root`, which must hold exactly one
// element (a scalar loss). Gradients accumulate into every reachable leaf
// with requires_grad=true. Safe to call multiple times (grads accumulate,
// mirroring gradient-accumulation training).
void backward(const Variable& root);

// Reverse sweep seeded with an externally supplied output gradient — how an
// expert worker resumes backpropagation when the master ships it dL/dy for a
// previously computed expert output (Fig. 4's gradient receiver). `grad`
// must match root's shape.
//
// Both sweeps resolve a node's deferred contributions (Node::pending) when
// they reach it, leaves included, so every grad is complete on return. An
// exception from a deferred entry propagates out, and no node of the graph
// keeps a pending entry.
void backward_from(const Variable& root, const Tensor& grad);

// Builds an interior node: value computed by the caller, parents recorded,
// backward closure invoked during the reverse sweep iff any parent requires
// grad. Exposed for ops.cpp and for user-defined ops.
Variable make_op(Tensor value, std::vector<Variable> parents,
                 std::function<void(detail::Node&)> backward_fn);

}  // namespace vela::ag
