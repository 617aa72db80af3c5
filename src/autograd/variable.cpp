#include "autograd/variable.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <queue>
#include <unordered_map>
#include <utility>

#include "util/audit.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace vela::ag {

namespace detail {
namespace {

// The contributions one firing backward_fn hands its parents, in call
// order, with the index of the receiving parent slot.
struct Posted {
  std::size_t slot;
  Contribution contribution;
};

// Set while a backward_fn runs on this thread: where its accumulate_grad /
// defer_grad calls go. Saved and restored around each firing, so a sweep
// nested inside a backward_fn captures into its own firings only.
struct Capture {
  const Node* consumer;
  std::uint64_t rank;
  std::uint32_t calls = 0;
  std::vector<Posted>* out;

  void post(Node* target, Tensor eager, DeferredGrad deferred) {
    const auto& parents = consumer->parents;
    std::size_t slot = 0;
    while (slot < parents.size() && parents[slot].get() != target) ++slot;
    VELA_CHECK_MSG(slot < parents.size(),
                   "a backward_fn handed a gradient to a node that is not "
                   "one of its parents");
    VELA_CHECK_MSG(target->requires_grad,
                   "a backward_fn handed a gradient to a parent that does "
                   "not require one");
    out->push_back({slot, Contribution{(rank << 32) | calls++,
                                       std::move(eager), std::move(deferred)}});
  }
};

thread_local Capture* tl_capture = nullptr;

}  // namespace

void Node::accumulate_grad(Tensor g) {
  if (tl_capture == nullptr) {
    add_grad(std::move(g));
    return;
  }
  tl_capture->post(this, std::move(g), nullptr);
}

void Node::defer_grad(DeferredGrad g) {
  VELA_CHECK_MSG(tl_capture != nullptr && tl_capture->consumer->ordered,
                 "defer_grad outside the backward_fn of an ordered op "
                 "(make_ordered_op)");
  tl_capture->post(this, Tensor(), std::move(g));
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

Variable make_ordered_op(Tensor value, std::vector<Variable> parents,
                         std::function<void(detail::Node&)> backward_fn) {
  Variable v =
      make_op(std::move(value), std::move(parents), std::move(backward_fn));
  v.node()->ordered = true;
  return v;
}

void backward(const Variable& root) {
  VELA_CHECK(root.defined());
  VELA_CHECK_MSG(root.value().size() == 1,
                 "backward() requires a scalar root, got shape "
                     << root.value().shape_string());
  backward_from(root, Tensor::ones(root.value().shape()));
}

namespace {

using detail::Contribution;
using detail::Node;

constexpr std::uint32_t kNoRank = std::numeric_limits<std::uint32_t>::max();

// One reverse sweep: the ranked graph, the consumer-edge counts, and the
// lanes' shared work state.
class Sweep {
 public:
  explicit Sweep(Node* root) {
    rank_graph(root);
    for (std::uint32_t r = 0; r < nodes_.size(); ++r) {
      if (nodes_[r]->ordered) {
        ordered_[r] = 1;
        ordered_queue_.push(r);
      }
    }
    remaining_ = nodes_.size();
    make_ready(0);  // the root: rank 0, no consumer in the sweep
    release_ordered();
  }

  // Runs the sweep on `lanes` pool tasks and rethrows its first failure.
  void run(std::size_t lanes) {
    std::vector<std::function<void()>> tasks(lanes, [this] { lane(); });
    util::ThreadPool::global().run(tasks);
    if (errors_.empty()) return;
    // Contributions that arrived before the failure would otherwise be
    // summed into the next sweep's gradients.
    for (Node* node : nodes_) node->inbox.clear();
    const auto first = std::min_element(
        errors_.begin(), errors_.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::rethrow_exception(first->second);
  }

 private:
  // Ranks every node reachable from the root through requires_grad parents
  // in reverse post-order (the serial firing order) and counts, for each,
  // the edges from its consumers. Iterative: recursion would overflow on
  // deep transformer graphs.
  void rank_graph(Node* root) {
    std::unordered_map<Node*, std::uint32_t> post;  // node -> post-order index
    struct Frame {
      Node* node;
      std::size_t next_parent;
    };
    std::vector<Frame> stack;
    std::vector<Node*> order;
    stack.push_back({root, 0});
    post.emplace(root, kNoRank);
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.next_parent < f.node->parents.size()) {
        Node* p = f.node->parents[f.next_parent++].get();
        if (p->requires_grad && post.emplace(p, kNoRank).second) {
          stack.push_back({p, 0});
        }
      } else {
        post[f.node] = static_cast<std::uint32_t>(order.size());
        order.push_back(f.node);
        stack.pop_back();
      }
    }
    const auto n = static_cast<std::uint32_t>(order.size());
    nodes_.assign(order.rbegin(), order.rend());
    consumers_left_.assign(n, 0);
    ordered_.assign(n, 0);
    parked_.assign(n, 0);
    edge_begin_.reserve(n + 1);
    for (Node* node : nodes_) {
      edge_begin_.push_back(static_cast<std::uint32_t>(edges_.size()));
      for (const auto& parent : node->parents) {
        std::uint32_t rank = kNoRank;
        if (parent->requires_grad) {
          rank = n - 1 - post.at(parent.get());
          ++consumers_left_[rank];
        }
        edges_.push_back(rank);
      }
    }
    edge_begin_.push_back(static_cast<std::uint32_t>(edges_.size()));
  }

  // A node whose consumers have all fired. Ordered ones wait their turn.
  // Caller holds m_.
  void make_ready(std::uint32_t r) {
    if (ordered_[r]) {
      parked_[r] = 1;
    } else {
      ready_.push_back(r);
    }
  }

  // Hands out the lowest-rank ordered node once it is ready: the queue's
  // top is the only ordered node that may fire, and it stays the top until
  // it completes. Caller holds m_.
  void release_ordered() {
    if (ordered_queue_.empty()) return;
    const std::uint32_t top = ordered_queue_.top();
    if (!parked_[top]) return;
    parked_[top] = 0;
    ready_.push_back(top);
  }

  // One lane: fires ready nodes until the sweep is done or has failed.
  void lane() {
    std::vector<detail::Posted> posted;
    std::uint32_t r = 0;
    {
      std::unique_lock<std::mutex> lock(m_);
      if (!take(lock, &r)) return;
    }
    for (;;) {
      std::exception_ptr error;
      try {
        fire(r, &posted);
      } catch (...) {
        error = std::current_exception();
      }
      std::unique_lock<std::mutex> lock(m_);
      if (error) {
        errors_.emplace_back(r, std::move(error));
        posted.clear();
        cv_.notify_all();
        return;
      }
      complete(r, &posted);
      if (!take(lock, &r)) return;
    }
  }

  // Waits for a ready node and claims the newest (LIFO: depth first).
  // False once the sweep is done or has failed.
  bool take(std::unique_lock<std::mutex>& lock, std::uint32_t* r) {
    cv_.wait(lock, [&] {
      return !ready_.empty() || remaining_ == 0 || !errors_.empty();
    });
    if (remaining_ == 0 || !errors_.empty()) return false;
    *r = ready_.back();
    ready_.pop_back();
    return true;
  }

  // Sums the node's inbox, then runs its backward_fn with a capture that
  // collects what it hands its parents. No lock: the node's consumers have
  // all completed, and only this lane touches it now.
  void fire(std::uint32_t r, std::vector<detail::Posted>* posted) {
    Node& node = *nodes_[r];
    if (!node.inbox.empty()) {
      std::vector<Contribution> inbox;
      inbox.swap(node.inbox);
      std::sort(inbox.begin(), inbox.end(),
                [](const Contribution& a, const Contribution& b) {
                  return a.tag < b.tag;
                });
      for (Contribution& c : inbox) {
        node.add_grad(c.deferred ? c.deferred() : std::move(c.eager));
      }
    }
    if (!node.grad_ready) return;
    if (audit::enabled()) {
      audit::check_backward_tensors(node.value, node.grad, "backward node");
    }
    if (!node.backward_fn) return;
    detail::Capture capture{&node, r, 0, posted};
    detail::Capture* outer = std::exchange(detail::tl_capture, &capture);
    try {
      node.backward_fn(node);
    } catch (...) {
      detail::tl_capture = outer;
      throw;
    }
    detail::tl_capture = outer;
  }

  // Delivers the firing's contributions and releases the parents whose
  // last consumer this was. Caller holds m_.
  void complete(std::uint32_t r, std::vector<detail::Posted>* posted) {
    const std::uint32_t* edges = edges_.data() + edge_begin_[r];
    for (detail::Posted& p : *posted) {
      // Never kNoRank: post() only accepts parents that require grad.
      const std::uint32_t parent = edges[p.slot];
      if (p.contribution.deferred && !ordered_[parent]) {
        // The parent waits on a thunk: it fires in rank order too.
        ordered_[parent] = 1;
        ordered_queue_.push(parent);
      }
      nodes_[parent]->inbox.push_back(std::move(p.contribution));
    }
    posted->clear();
    const std::uint32_t* end = edges_.data() + edge_begin_[r + 1];
    for (const std::uint32_t* e = edges; e != end; ++e) {
      if (*e != kNoRank && --consumers_left_[*e] == 0) make_ready(*e);
    }
    if (ordered_[r]) ordered_queue_.pop();
    release_ordered();
    --remaining_;
    // This lane takes one ready node itself; wake the others only for more.
    if (remaining_ == 0 || ready_.size() > 1) cv_.notify_all();
  }

  std::vector<Node*> nodes_;                // by rank
  std::vector<std::uint32_t> edges_;        // parent ranks, CSR by node
  std::vector<std::uint32_t> edge_begin_;   // nodes_.size() + 1 offsets
  // Guarded by m_ once the lanes start.
  std::vector<std::uint32_t> consumers_left_;
  std::vector<char> ordered_;  // fires in rank order (built so, or waits)
  std::vector<char> parked_;   // ready ordered nodes not yet handed out
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                      std::greater<>>
      ordered_queue_;  // ordered nodes not yet completed
  std::vector<std::uint32_t> ready_;
  std::size_t remaining_ = 0;
  std::vector<std::pair<std::uint32_t, std::exception_ptr>> errors_;
  std::mutex m_;
  std::condition_variable cv_;
};

}  // namespace

void backward_from(const Variable& root, const Tensor& grad) {
  VELA_CHECK(root.defined());
  VELA_CHECK_MSG(root.requires_grad(),
                 "backward_from() on a graph with no trainable leaves");
  Sweep sweep(root.node().get());
  root.node()->add_grad(grad);
  sweep.run(util::ThreadPool::in_pool_task() ? 1
                                             : util::ThreadPool::global().size());
}

}  // namespace vela::ag
