#include "autograd/variable.h"

#include <unordered_set>

#include "util/audit.h"
#include "util/check.h"

namespace vela::ag {

namespace detail {

void Node::accumulate_grad(const Tensor& g) {
  if (!pending.empty()) {
    pending.push_back([g]() mutable { return std::move(g); });
    return;
  }
  add_grad(g);
}

void Node::defer_grad(DeferredGrad g) { pending.push_back(std::move(g)); }

void Node::resolve_pending() {
  std::vector<DeferredGrad> queue;
  queue.swap(pending);
  for (DeferredGrad& g : queue) add_grad(g());
}

void Node::add_grad(Tensor g) {
  VELA_CHECK_MSG(g.same_shape(value),
                 "gradient shape " << g.shape_string() << " != value shape "
                                   << value.shape_string());
  if (!grad_ready) {
    grad = std::move(g);
    grad_ready = true;
  } else {
    grad.add_(g);
  }
}

}  // namespace detail

Variable Variable::leaf(Tensor value, bool requires_grad) {
  auto node = std::make_shared<detail::Node>();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  return from_node(std::move(node));
}

Variable Variable::from_node(std::shared_ptr<detail::Node> node) {
  Variable v;
  v.node_ = std::move(node);
  return v;
}

const Tensor& Variable::value() const {
  VELA_CHECK(defined());
  return node_->value;
}

Tensor& Variable::mutable_value() {
  VELA_CHECK(defined());
  return node_->value;
}

bool Variable::requires_grad() const {
  VELA_CHECK(defined());
  return node_->requires_grad;
}

const Tensor& Variable::grad() const {
  VELA_CHECK(defined());
  VELA_CHECK_MSG(node_->grad_ready, "grad() read before backward()");
  return node_->grad;
}

bool Variable::has_grad() const { return defined() && node_->grad_ready; }

void Variable::zero_grad() {
  VELA_CHECK(defined());
  node_->grad = Tensor();
  node_->grad_ready = false;
}

void Variable::set_grad(Tensor grad) {
  VELA_CHECK(defined());
  VELA_CHECK_MSG(grad.same_shape(node_->value),
                 "set_grad shape mismatch: " << grad.shape_string() << " vs "
                                             << node_->value.shape_string());
  node_->grad = std::move(grad);
  node_->grad_ready = true;
}

Variable make_op(Tensor value, std::vector<Variable> parents,
                 std::function<void(detail::Node&)> backward_fn) {
  auto node = std::make_shared<detail::Node>();
  node->value = std::move(value);
  bool any = false;
  node->parents.reserve(parents.size());
  for (const auto& p : parents) {
    VELA_CHECK_MSG(p.defined(), "op parent is an undefined Variable");
    node->parents.push_back(p.node());
    any = any || p.node()->requires_grad;
  }
  node->requires_grad = any;
  if (any) node->backward_fn = std::move(backward_fn);
  return Variable::from_node(std::move(node));
}

void backward(const Variable& root) {
  VELA_CHECK(root.defined());
  VELA_CHECK_MSG(root.value().size() == 1,
                 "backward() requires a scalar root, got shape "
                     << root.value().shape_string());
  backward_from(root, Tensor::ones(root.value().shape()));
}

void backward_from(const Variable& root, const Tensor& grad) {
  VELA_CHECK(root.defined());
  VELA_CHECK_MSG(root.requires_grad(),
                 "backward_from() on a graph with no trainable leaves");

  // Iterative post-order topological sort (recursion would overflow on deep
  // transformer graphs).
  std::vector<detail::Node*> order;
  std::unordered_set<detail::Node*> visited;
  struct Frame {
    detail::Node* node;
    std::size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({root.node().get(), 0});
  visited.insert(root.node().get());
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_parent < f.node->parents.size()) {
      detail::Node* p = f.node->parents[f.next_parent++].get();
      if (p->requires_grad && !visited.count(p)) {
        visited.insert(p);
        stack.push_back({p, 0});
      }
    } else {
      order.push_back(f.node);
      stack.pop_back();
    }
  }

  root.node()->accumulate_grad(grad);
  const bool auditing = audit::enabled();
  try {
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      detail::Node* node = *it;
      // Every consumer of `node` has fired, so every deferred contribution
      // to it is posted: wait for them now, in the order they were queued.
      if (!node->pending.empty()) {
        node->resolve_pending();
        if (auditing && node->grad_ready) {
          audit::check_backward_tensors(node->value, node->grad,
                                        "resolved grad");
        }
      }
      if (!node->backward_fn || !node->grad_ready) continue;
      if (auditing) {
        audit::check_backward_tensors(node->value, node->grad,
                                      "backward node");
      }
      node->backward_fn(*node);
      if (auditing) {
        // backward_fn just wrote into the parents' grads; validate each one
        // while the producing node is still identifiable.
        for (const auto& parent : node->parents) {
          if (parent->grad_ready) {
            audit::check_backward_tensors(parent->value, parent->grad,
                                          "backward parent");
          }
        }
      }
    }
  } catch (...) {
    // A failed deferred entry (a remote reply that never came) aborts the
    // sweep; drop every entry still queued so no node carries a stale
    // contribution into the next backward.
    for (detail::Node* node : order) node->pending.clear();
    throw;
  }
}

}  // namespace vela::ag
