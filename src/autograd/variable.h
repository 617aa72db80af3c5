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
// The reverse sweep is a wavefront over the pool's lanes (DESIGN.md §7). A
// reverse post-order topological sort gives node k the rank k; ranks are
// the order in which a one-lane, rank-by-rank sweep would fire the nodes.
// A node fires once every consumer of it has fired, on whichever lane is
// free. Each contribution a backward_fn hands a parent — eager
// (accumulate_grad) or *deferred* (defer_grad: a thunk that produces the
// contribution later, e.g. the wait for a remote expert backward's reply,
// ops.h remote_rows) — goes into the parent's inbox, tagged with the
// consumer's rank and the call's index within that backward_fn. When the
// parent fires it sums its inbox in tag order, running each thunk in place:
// exactly the serial engine's sum, so gradients are bit-identical at any
// lane count.
//
// Ops with effects outside the graph are *ordered* (make_ordered_op; only
// an ordered op may call defer_grad). An ordered node, and every node that
// receives a deferred contribution, fires in ascending rank and one at a
// time, so posts and waits happen in the serial engine's order — every
// remote op consuming x has posted before x waits.
#pragma once

#include <cstdint>
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

// One contribution held in a node's inbox until the node fires. `tag` is
// (consumer rank << 32) | call index — the order the serial sweep sums in.
struct Contribution {
  std::uint64_t tag = 0;
  Tensor eager;
  DeferredGrad deferred;  // set iff the contribution is deferred
};

struct Node {
  Tensor value;
  Tensor grad;          // allocated lazily on first accumulation
  bool requires_grad = false;
  bool grad_ready = false;  // whether `grad` has been allocated
  // Built by make_ordered_op: fires in rank order, one ordered node at a
  // time, and may defer contributions.
  bool ordered = false;
  std::vector<std::shared_ptr<Node>> parents;
  // Propagates this node's grad into the parents' grads. Empty for leaves.
  std::function<void(Node&)> backward_fn;
  // Contributions received during the running sweep, summed when the node
  // fires. Empty between sweeps, also after a failed one.
  std::vector<Contribution> inbox;

  // Hands g to this node. Inside a sweep it goes to the inbox; outside one
  // (the root's seed) it is summed into `grad` at once.
  void accumulate_grad(Tensor g);
  // Hands a thunk to this node; only an ordered op's backward_fn may.
  void defer_grad(DeferredGrad g);
  // Sums g into `grad`: the first contribution is moved in, later ones
  // added elementwise.
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
// Both sweeps run on ThreadPool::global().size() lanes, or on one when
// called from inside a pool task or a LaneScope; the result is the same
// bits either way. Every node's inbox, leaves included, is summed before
// they return. The first failure (a throwing backward_fn or deferred thunk)
// stops the sweep from handing out nodes; every inbox is cleared and the
// failure of the lowest-rank node is rethrown.
void backward_from(const Variable& root, const Tensor& grad);

// Builds an interior node: value computed by the caller, parents recorded,
// backward closure invoked during the reverse sweep iff any parent requires
// grad. Exposed for ops.cpp and for user-defined ops.
Variable make_op(Tensor value, std::vector<Variable> parents,
                 std::function<void(detail::Node&)> backward_fn);

// make_op for a backward_fn with effects outside the graph (a post to a
// remote expert, a thunk deferred onto a parent): the node fires in rank
// order, one ordered node at a time.
Variable make_ordered_op(Tensor value, std::vector<Variable> parents,
                         std::function<void(detail::Node&)> backward_fn);

}  // namespace vela::ag
