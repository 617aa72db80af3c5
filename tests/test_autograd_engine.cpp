// The wavefront backward engine (autograd/variable.h) at one lane and at
// four: every case builds the same graph afresh at each lane count and
// compares the gradients with memcmp. Four lanes may change when a node
// fires, never what it sums or the order it sums in; ordered ops must post
// and wait in the serial order, and a failed sweep must fail the way the
// serial sweep fails and leave no contribution behind.
#include "autograd/ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/vela_system.h"
#include "data/corpus.h"
#include "ep/runtime.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace vela {
namespace {

using ag::Variable;
using ag::detail::Node;

// Four-lane sweeps are repeated so that more than one schedule is seen.
constexpr int kWideRepeats = 8;

// Runs `fn` with the global pool at `lanes` lanes, then restores the
// environment default so test order does not leak pool state.
template <typename Fn>
auto with_lanes(std::size_t lanes, Fn&& fn) {
  util::ThreadPool::set_global_threads(lanes);
  auto result = fn();
  util::ThreadPool::set_global_threads(0);
  return result;
}

Tensor random(std::vector<std::size_t> shape, std::uint64_t seed) {
  Rng rng(seed);
  return ops::randn(std::move(shape), rng);
}

void expect_same_bits(const std::vector<Tensor>& serial,
                      const std::vector<Tensor>& wide, const std::string& what) {
  ASSERT_EQ(serial.size(), wide.size()) << what;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].shape(), wide[i].shape()) << what << " tensor " << i;
    EXPECT_EQ(0, std::memcmp(serial[i].data(), wide[i].data(),
                             serial[i].size() * sizeof(float)))
        << what << ": tensor " << i << " differs between 1 and 4 lanes";
  }
}

// Builds the graph on fresh leaves of `values`, runs one backward of the
// scalar it returns, and returns the leaves' gradients.
using Build = std::function<Variable(const std::vector<Variable>&)>;

std::vector<Tensor> leaf_grads(const std::vector<Tensor>& values,
                               const Build& build) {
  std::vector<Variable> leaves;
  for (const Tensor& v : values) leaves.push_back(Variable::leaf(v, true));
  ag::backward(build(leaves));
  std::vector<Tensor> grads;
  for (const Variable& l : leaves) grads.push_back(l.grad());
  return grads;
}

void expect_lane_invariant(const std::vector<Tensor>& values,
                           const Build& build) {
  const auto serial = with_lanes(1, [&] { return leaf_grads(values, build); });
  for (int rep = 0; rep < kWideRepeats; ++rep) {
    const auto wide = with_lanes(4, [&] { return leaf_grads(values, build); });
    expect_same_bits(serial, wide, "repeat " + std::to_string(rep));
  }
}

// An op on x whose backward hands x `c`, eagerly or as a deferred thunk (an
// ordered op, the only kind that may defer). Its own grad is ignored.
Variable contribute(const Variable& x, const Tensor& c, bool deferred) {
  if (!deferred) {
    return ag::make_op(Tensor({1, 1}), {x}, [c](Node& n) {
      n.parents[0]->accumulate_grad(c);
    });
  }
  return ag::make_ordered_op(Tensor({1, 1}), {x}, [c](Node& n) {
    n.parents[0]->defer_grad([c] { return c; });
  });
}

// A chain of `length` cheap ops above v: the lanes interleave along it.
Variable chain(Variable v, int length) {
  for (int i = 0; i < length; ++i) v = ag::scale(v, 1.0f);
  return v;
}

TEST(AutogradEngine, SharedLeafFedByTwelveBranches) {
  // W and b feed every branch twice; their 24 contributions each must be
  // summed in the serial order whichever lane produced them.
  expect_lane_invariant(
      {random({16, 16}, 1), random({16}, 2)},
      [](const std::vector<Variable>& p) {
        std::vector<Variable> branches;
        for (std::size_t i = 0; i < 12; ++i) {
          Variable x = Variable::constant(random({8, 16}, 100 + i));
          Variable h = ag::silu(ag::add_row_broadcast(ag::matmul(x, p[0]), p[1]));
          branches.push_back(
              ag::add_row_broadcast(ag::matmul(h, p[0]), p[1]));
        }
        Variable all = ag::concat_rows(branches);
        return ag::sum(ag::mul(all, all));
      });
}

TEST(AutogradEngine, Diamond) {
  // a feeds both arms; x feeds a and the left arm directly.
  expect_lane_invariant({random({6, 6}, 3)}, [](const std::vector<Variable>& p) {
    Variable a = ag::silu(p[0]);
    Variable left = chain(ag::matmul(a, p[0]), 5);
    Variable right = chain(ag::scale(a, 3.0f), 9);
    Variable join = ag::add(left, right);
    return ag::sum(ag::mul(join, join));
  });
}

TEST(AutogradEngine, OneParentOnTwoEdges) {
  // mul(x, x) and mul(h, h): both edges of one consumer lead to one parent.
  expect_lane_invariant({random({5, 7}, 4)}, [](const std::vector<Variable>& p) {
    Variable h = ag::silu(p[0]);
    return ag::sum(ag::add(ag::mul(p[0], p[0]), chain(ag::mul(h, h), 4)));
  });

  // d/dx sum(x * x) = x + x: the two edge contributions, nothing else.
  const Tensor xv = random({3, 3}, 5);
  const auto grads = with_lanes(4, [&] {
    return leaf_grads({xv}, [](const std::vector<Variable>& p) {
      return ag::sum(ag::mul(p[0], p[0]));
    });
  });
  const Tensor twice = ops::add(xv, xv);
  EXPECT_EQ(0, std::memcmp(grads[0].data(), twice.data(),
                           twice.size() * sizeof(float)));
}

// Contributions whose float sum depends on the order: column 0 mixes ±1e8
// with ones, which a reordered sum absorbs differently; column 1 holds
// signed zeros (a first contribution of −0 must be moved in, not added).
std::vector<Tensor> order_sensitive(std::size_t n) {
  std::vector<Tensor> c;
  for (std::size_t i = 0; i < n; ++i) {
    Tensor t = random({4}, 200 + i);
    t[0] = i % 4 == 1 ? 1e8f : (i % 4 == 3 ? -1e8f : 1.0f);
    t[1] = i % 2 == 0 ? -0.0f : 0.0f;
    c.push_back(t);
  }
  return c;
}

TEST(AutogradEngine, EagerAndDeferredContributionsInterleaved) {
  const std::vector<Tensor> c = order_sensitive(12);
  for (const std::size_t every : {1u, 2u, 3u, 12u}) {
    expect_lane_invariant({Tensor({4})}, [&](const std::vector<Variable>& p) {
      std::vector<Variable> users;
      for (std::size_t i = 0; i < c.size(); ++i) {
        // Branches of different lengths finish in a schedule-dependent
        // order; x's inbox must still be summed in rank order.
        users.push_back(chain(contribute(p[0], c[i], i % every == 0),
                              static_cast<int>(3 * (i % 4))));
      }
      return ag::sum(ag::concat_rows(users));
    });
  }
}

// A remote op on rows of x whose "remote" computation is the identity; its
// post and wait are logged. Only one ordered node fires at a time, so the
// log needs no lock of its own.
Variable logged_remote(const Variable& x, const std::vector<std::size_t>& rows,
                       const std::string& name, std::vector<std::string>* log) {
  return ag::remote_rows(
      x, rows, ag::rows_of(x, rows),
      [log, name](const Tensor& dy) -> ag::AwaitRows {
        log->push_back("post " + name);
        return [log, name, dy] {
          log->push_back("wait " + name);
          return dy;
        };
      });
}

struct OrderedRun {
  std::vector<std::string> log;
  std::vector<Tensor> grads;
};

OrderedRun ordered_run() {
  OrderedRun run;
  Variable x = Variable::leaf(random({6, 4}, 6), true);
  Variable w = Variable::leaf(random({4, 4}, 7), true);
  // y is interior: it waits on its own remote ops, then posts into x's.
  Variable y = ag::silu(ag::matmul(x, w));
  const std::vector<std::vector<std::size_t>> rows = {
      {0, 2}, {1, 2, 3}, {5}, {0, 1, 2, 3, 4, 5}};
  std::vector<Variable> outs;
  for (std::size_t g = 0; g < rows.size(); ++g) {
    const std::string id = std::to_string(g);
    outs.push_back(chain(logged_remote(x, rows[g], "x" + id, &run.log),
                         static_cast<int>(2 * g)));
    outs.push_back(chain(logged_remote(y, rows[g], "y" + id, &run.log),
                         static_cast<int>(7 - 2 * g)));
    // Unordered consumers of x between the ordered ones.
    outs.push_back(chain(ag::gather_rows(x, rows[g]), static_cast<int>(g)));
  }
  ag::backward(ag::sum(ag::mul(ag::concat_rows(outs), ag::concat_rows(outs))));
  run.grads = {x.grad(), w.grad()};
  return run;
}

TEST(AutogradEngine, OrderedOpsPostAndWaitInRankOrder) {
  const OrderedRun serial = with_lanes(1, ordered_run);
  ASSERT_EQ(serial.log.size(), 16u);
  // Every post into x precedes x's first wait.
  const auto first_x_wait =
      std::find_if(serial.log.begin(), serial.log.end(),
                   [](const std::string& s) { return s.rfind("wait x", 0) == 0; });
  for (auto it = first_x_wait; it != serial.log.end(); ++it) {
    EXPECT_EQ(it->rfind("post", 0), std::string::npos) << *it;
  }
  for (int rep = 0; rep < kWideRepeats; ++rep) {
    const OrderedRun wide = with_lanes(4, ordered_run);
    EXPECT_EQ(serial.log, wide.log) << "repeat " << rep;
    expect_same_bits(serial.grads, wide.grads, "repeat " + std::to_string(rep));
  }
}

TEST(AutogradEngine, OrderedRootFires) {
  // backward_from straight on a remote op's output: the root itself is the
  // first ordered node.
  const auto run = [] {
    std::vector<std::string> log;
    Variable x = Variable::leaf(random({3, 2}, 8), true);
    ag::backward_from(logged_remote(x, {2, 0}, "root", &log),
                      random({2, 2}, 9));
    EXPECT_EQ(log, (std::vector<std::string>{"post root", "wait root"}));
    return std::vector<Tensor>{x.grad()};
  };
  expect_same_bits(with_lanes(1, run), with_lanes(4, run), "ordered root");
}

TEST(AutogradEngine, NestedSweepInsideABackwardFn) {
  // A backward_fn that runs a sweep of its own (as an expert executor does):
  // the inner sweep runs inline on the outer lane and captures only its
  // own firings.
  expect_lane_invariant({random({4, 4}, 10)}, [](const std::vector<Variable>& p) {
    std::vector<Variable> outs;
    for (std::size_t i = 0; i < 6; ++i) {
      Variable inner_op = ag::make_op(
          Tensor({1, 1}), {p[0]}, [i](Node& n) {
            Variable inner = Variable::leaf(n.parents[0]->value, true);
            ag::backward(ag::sum(ag::silu(ag::scale(inner, float(i + 1)))));
            n.parents[0]->accumulate_grad(inner.grad());
          });
      outs.push_back(chain(inner_op, static_cast<int>(i)));
    }
    return ag::sum(ag::concat_rows(outs));
  });
}

// --- failures ----------------------------------------------------------------

struct FailedRun {
  std::string error;
  std::vector<Variable> nodes;  // every node of the graph, leaves first
};

// y (interior) receives twelve contributions, two of them thunks that
// throw; w (a leaf) receives contributions from both sides of the failure.
FailedRun failing_run() {
  FailedRun run;
  Variable x = Variable::leaf(Tensor({4}), true);
  Variable w = Variable::leaf(Tensor({4}), true);
  Variable y = ag::make_op(Tensor({4}), {x}, [](Node& n) {
    n.parents[0]->accumulate_grad(n.grad);
  });
  run.nodes = {x, w, y};
  const std::vector<Tensor> c = order_sensitive(12);
  std::vector<Variable> outs;
  for (std::size_t i = 0; i < c.size(); ++i) {
    Variable op;
    if (i == 4 || i == 9) {
      op = ag::make_ordered_op(Tensor({1, 1}), {y}, [i](Node& n) {
        n.parents[0]->defer_grad([i]() -> Tensor {
          throw std::runtime_error("reply " + std::to_string(i) +
                                   " never came");
        });
      });
    } else {
      op = contribute(y, c[i], i % 3 == 0);
    }
    Variable side = ag::make_op(Tensor({1, 1}), {w}, [t = c[i]](Node& n) {
      n.parents[0]->accumulate_grad(t);
    });
    run.nodes.push_back(op);
    run.nodes.push_back(side);
    outs.push_back(chain(ag::add(op, side), static_cast<int>(i % 5)));
  }
  try {
    ag::backward(ag::sum(ag::concat_rows(outs)));
  } catch (const std::runtime_error& e) {
    run.error = e.what();
  }
  return run;
}

TEST(AutogradEngine, ThrowingThunkRethrowsLowestRankAndLeavesNoInboxEntry) {
  const FailedRun serial = with_lanes(1, failing_run);
  ASSERT_FALSE(serial.error.empty());
  for (int rep = 0; rep < kWideRepeats; ++rep) {
    const FailedRun wide = with_lanes(4, failing_run);
    EXPECT_EQ(serial.error, wide.error) << "repeat " << rep;
    for (std::size_t i = 0; i < wide.nodes.size(); ++i) {
      EXPECT_TRUE(wide.nodes[i].node()->inbox.empty()) << "node " << i;
    }
    EXPECT_FALSE(wide.nodes[0].has_grad());  // y failed before x fired
  }

  // A failed sweep leaves nothing stale for the next one.
  with_lanes(4, [] {
    FailedRun failed = failing_run();
    Variable w = failed.nodes[1];
    w.zero_grad();
    const Tensor c = random({4}, 11);
    ag::backward(ag::sum(chain(contribute(w, c, true), 3)));
    EXPECT_EQ(0, std::memcmp(w.grad().data(), c.data(), 4 * sizeof(float)));
    return 0;
  });
}

TEST(AutogradEngine, ThrowingBackwardFnStopsTheSweep) {
  // An unordered node throws while other lanes are busy: the sweep stops,
  // rethrows, and clears every inbox; no lane is left waiting.
  with_lanes(4, [] {
    Variable x = Variable::leaf(random({8, 8}, 12), true);
    std::vector<Variable> outs;
    for (std::size_t i = 0; i < 12; ++i) {
      Variable h = chain(ag::matmul(x, x), static_cast<int>(i));
      if (i == 6) {
        h = ag::make_op(Tensor({8, 8}), {h}, [](Node&) {
          throw std::runtime_error("backward_fn failed");
        });
      }
      outs.push_back(h);
    }
    EXPECT_THROW(ag::backward(ag::sum(ag::concat_rows(outs))),
                 std::runtime_error);
    EXPECT_TRUE(x.node()->inbox.empty());
    for (const Variable& v : outs) EXPECT_TRUE(v.node()->inbox.empty());
    return 0;
  });
}

// --- whole training steps ----------------------------------------------------

void expect_parameters_equal(const std::vector<nn::Parameter>& serial,
                             const std::vector<nn::Parameter>& wide) {
  ASSERT_EQ(serial.size(), wide.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const Tensor& a = serial[i].var.value();
    const Tensor& b = wide[i].var.value();
    ASSERT_EQ(a.shape(), b.shape()) << serial[i].name;
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
        << serial[i].name << ": value differs";
    ASSERT_EQ(serial[i].var.has_grad(), wide[i].var.has_grad())
        << serial[i].name;
    if (!serial[i].var.has_grad()) continue;
    const Tensor& ga = serial[i].var.grad();
    const Tensor& gb = wide[i].var.grad();
    EXPECT_EQ(0, std::memcmp(ga.data(), gb.data(), ga.size() * sizeof(float)))
        << serial[i].name << ": gradient differs";
  }
}

data::SyntheticCorpus bench_corpus(const model::ModelConfig& m) {
  return data::SyntheticCorpus(data::CorpusConfig::wikitext_like(m.vocab, 6),
                               4);
}

TEST(BackboneLanes, VelaTinyMistralStepIsBitExactAcrossLaneCounts) {
  // Two steps of a 12-layer model on a 12 x 32 batch: losses, every
  // backbone parameter and gradient, every expert adapter, and the
  // per-phase master<->worker ledger.
  core::VelaSystemConfig cfg;
  cfg.model = model::ModelConfig::tiny_mistral();
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.seed = 5;
  cfg.overlap_chunks = 0;
  const data::SyntheticCorpus corpus = bench_corpus(cfg.model);
  const auto batch = corpus.make_dataset(12, 32);

  std::vector<float> losses[2];
  std::vector<comm::VelaStepRecord> records[2];
  std::vector<nn::Parameter> params[2];
  std::vector<Tensor> experts[2];
  std::vector<std::unique_ptr<core::VelaSystem>> systems;
  const std::size_t lanes[2] = {1, 4};
  for (int side = 0; side < 2; ++side) {
    util::ThreadPool::set_global_threads(lanes[side]);
    systems.push_back(std::make_unique<core::VelaSystem>(cfg, &corpus));
    core::VelaSystem& vela = *systems.back();
    for (int step = 0; step < 2; ++step) {
      losses[side].push_back(vela.train_step(batch).loss);
      records[side].push_back(vela.last_step_record());
    }
    params[side] = vela.model().trainable_parameters();
    for (std::size_t l = 0; l < cfg.model.num_layers; ++l) {
      for (std::size_t e = 0; e < cfg.model.num_experts; ++e) {
        experts[side].push_back(vela.master().query_expert_state(l, e));
      }
    }
  }
  util::ThreadPool::set_global_threads(0);

  EXPECT_EQ(losses[0], losses[1]);
  ASSERT_EQ(records[0].size(), records[1].size());
  for (std::size_t s = 0; s < records[0].size(); ++s) {
    const auto& a = records[0][s].phases;
    const auto& b = records[1][s].phases;
    ASSERT_EQ(a.size(), 2 * cfg.model.num_layers);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t p = 0; p < a.size(); ++p) {
      EXPECT_EQ(a[p].bytes, b[p].bytes) << "step " << s << " phase " << p;
      EXPECT_EQ(a[p].messages, b[p].messages) << "step " << s << " phase " << p;
    }
  }
  ASSERT_FALSE(params[0].empty());
  expect_parameters_equal(params[0], params[1]);
  expect_same_bits(experts[0], experts[1], "expert adapters");
}

TEST(BackboneLanes, EpStepIsBitExactAcrossLaneCounts) {
  ep::EpRuntimeConfig cfg;
  cfg.model = model::ModelConfig::tiny_mistral();
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.seed = 5;
  const data::SyntheticCorpus corpus = bench_corpus(cfg.model);
  const auto batch = corpus.make_dataset(12, 32);

  std::vector<float> losses[2];
  std::vector<comm::EpStepRecord> records[2];
  std::vector<nn::Parameter> params[2];
  std::vector<std::unique_ptr<ep::EpRuntime>> runtimes;
  const std::size_t lanes[2] = {1, 4};
  for (int side = 0; side < 2; ++side) {
    util::ThreadPool::set_global_threads(lanes[side]);
    runtimes.push_back(std::make_unique<ep::EpRuntime>(cfg, &corpus));
    ep::EpRuntime& ep = *runtimes.back();
    for (int step = 0; step < 2; ++step) {
      losses[side].push_back(ep.train_step(batch).loss);
      records[side].push_back(ep.last_step_record());
    }
    params[side] = ep.replica().trainable_parameters();
  }
  util::ThreadPool::set_global_threads(0);

  EXPECT_EQ(losses[0], losses[1]);
  ASSERT_EQ(records[0].size(), records[1].size());
  for (std::size_t s = 0; s < records[0].size(); ++s) {
    const auto& a = records[0][s];
    const auto& b = records[1][s];
    ASSERT_EQ(a.phases.size(), 2 * cfg.model.num_layers);
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (std::size_t p = 0; p < a.phases.size(); ++p) {
      EXPECT_EQ(a.phases[p].bytes, b.phases[p].bytes)
          << "step " << s << " phase " << p;
    }
    EXPECT_EQ(a.allreduce_bytes_per_device, b.allreduce_bytes_per_device);
  }
  ASSERT_FALSE(params[0].empty());
  expect_parameters_equal(params[0], params[1]);
}

}  // namespace
}  // namespace vela
