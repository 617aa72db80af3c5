#include "core/expert_broker.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>

#include "autograd/ops.h"
#include "tensor/ops.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace vela::core {

namespace {

// Fixed row partition of a group into at most `k` chunks (no empty chunks).
// Depends only on (rows, k), so the chunk schedule — and with it every
// accounting and accumulation order — is identical across runs.
std::vector<std::size_t> chunk_row_counts(std::size_t rows, std::size_t k) {
  const std::size_t n = std::max<std::size_t>(1, std::min(k, rows));
  std::vector<std::size_t> out(n, rows / n);
  for (std::size_t c = 0; c < rows % n; ++c) ++out[c];
  return out;
}

}  // namespace

std::size_t overlap_chunks_from_env() {
  const char* env = std::getenv("VELA_OVERLAP");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || v <= 1) return 0;
  return static_cast<std::size_t>(std::min<long>(v, 255));
}

ExpertBroker::ExpertBroker(std::vector<ReliableLink*> rlinks,
                           const placement::Placement* placement,
                           std::size_t num_layers,
                           const comm::WireCodec& codec)
    : rlinks_(std::move(rlinks)),
      placement_(placement),
      num_layers_(num_layers),
      codec_(codec),
      ledger_(num_layers, 1, rlinks_.size()) {
  VELA_CHECK(!rlinks_.empty());
  VELA_CHECK(placement_ != nullptr);
  for (auto* rlink : rlinks_) VELA_CHECK(rlink != nullptr);
}

void ExpertBroker::set_placement(const placement::Placement* placement) {
  VELA_CHECK(placement != nullptr);
  placement_ = placement;
}

void ExpertBroker::set_overlap_chunks(std::size_t chunks) {
  overlap_chunks_ = std::min<std::size_t>(chunks, 255);
}

void ExpertBroker::begin_step() { ledger_.reset(); }

comm::VelaStepRecord ExpertBroker::finish_step() {
  // take_vela() emits phases forward 0..L−1 then backward L−1..0 and resets.
  return ledger_.take_vela();
}

void ExpertBroker::account(std::size_t layer, bool backward_phase,
                           std::size_t worker, std::uint64_t bytes,
                           std::uint32_t messages) {
  ledger_.charge(layer, backward_phase, 0, worker, bytes, messages);
}

comm::Message ExpertBroker::await_reply(std::size_t worker,
                                        comm::MessageType expected,
                                        std::uint64_t request_id,
                                        std::size_t layer,
                                        bool backward_phase) {
  return rlinks_[worker]->await(
      expected, request_id, [&](std::uint64_t bytes) {
        account(layer, backward_phase, worker, bytes, 1);
      });
}

void ExpertBroker::send_prefetch_hints(
    std::size_t layer, const std::vector<std::size_t>& experts) {
  // One hint per involved worker, workers ascending, naming every expert the
  // dispatch below will route to it. Raw sends on the underlying link: a
  // ReliableLink::post would track the hint as outstanding forever (nothing
  // ever awaits it), and a lost hint costs only the overlap it would have
  // bought — the demand path still pages the expert in.
  std::map<std::size_t, std::vector<std::size_t>> by_worker;
  for (const std::size_t expert : experts) {
    by_worker[placement_->worker_of(layer, expert)].push_back(expert);
  }
  for (const auto& [worker, hinted] : by_worker) {
    comm::Message msg;
    msg.type = comm::MessageType::kPrefetchExperts;
    msg.request_id = next_request_++;
    msg.layer = static_cast<std::uint32_t>(layer);
    msg.payload = Tensor({hinted.size()});
    for (std::size_t i = 0; i < hinted.size(); ++i) {
      msg.payload[i] = static_cast<float>(hinted[i]);
    }
    account(layer, /*backward=*/false, worker, msg.wire_size(), 1);
    // A severed channel surfaces on the very next post(); the hint itself is
    // allowed to vanish silently.
    (void)rlinks_[worker]->link()->to_worker.send(std::move(msg));
  }
}

std::vector<ag::Variable> ExpertBroker::experts_forward(
    std::size_t layer, const ag::Variable& x,
    const std::vector<std::vector<std::size_t>>& expert_tokens) {
  std::vector<std::size_t> experts;
  for (std::size_t e = 0; e < expert_tokens.size(); ++e) {
    if (!expert_tokens[e].empty()) experts.push_back(e);
  }
  if (store_hints_ && !experts.empty()) send_prefetch_hints(layer, experts);
  if (overlap_chunks_ >= 2) {
    return experts_forward_chunked(layer, x, expert_tokens, experts);
  }
  struct Outstanding {
    std::size_t worker;
    std::uint64_t request_id;
  };
  // Overlap dispatch serialization with itself: the per-group wire payloads
  // (gather, then fp16/int8 quantization or a plain copy) are built as
  // parallel tasks before the sequential post loop, so expert compute on the
  // workers starts while later groups are still being packed. Posting
  // order, accounting order and byte counts are exactly the serial ones —
  // only the packing is concurrent.
  std::vector<Tensor> wire(experts.size());
  {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(experts.size());
    for (std::size_t i = 0; i < experts.size(); ++i) {
      tasks.push_back([this, &x, &expert_tokens, &experts, &wire, i] {
        wire[i] = codec_.apply(
            ops::gather_rows(x.value(), expert_tokens[experts[i]]));
      });
    }
    util::ThreadPool::global().run(tasks);
  }

  // Token dispatcher: send every group before receiving anything, so all
  // workers compute concurrently.
  std::vector<Outstanding> outstanding;
  outstanding.reserve(experts.size());
  for (std::size_t i = 0; i < experts.size(); ++i) {
    const std::size_t worker = placement_->worker_of(layer, experts[i]);
    const std::uint64_t request_id = next_request_++;
    comm::Message msg;
    msg.type = comm::MessageType::kExpertForward;
    msg.request_id = request_id;
    msg.layer = static_cast<std::uint32_t>(layer);
    msg.expert = static_cast<std::uint32_t>(experts[i]);
    msg.payload = std::move(wire[i]);
    codec_.stamp(msg);
    account(layer, /*backward=*/false, worker, msg.wire_size(), 1);
    rlinks_[worker]->post(std::move(msg));
    outstanding.push_back({worker, request_id});
  }

  // Token receiver: collect results in send order (FIFO per worker), and
  // wire each into the master tape. The gradient dispatcher posts dL/dy
  // when the sweep passes the output; the gradient receiver's wait runs
  // when it reaches x, after every group of the layer has posted.
  std::vector<ag::Variable> results;
  results.reserve(experts.size());
  for (std::size_t i = 0; i < outstanding.size(); ++i) {
    const std::size_t worker = outstanding[i].worker;
    const std::uint64_t request_id = outstanding[i].request_id;
    comm::Message reply =
        await_reply(worker, comm::MessageType::kExpertForwardResult,
                    request_id, layer, /*backward=*/false);
    account(layer, /*backward=*/false, worker, reply.wire_size(), 1);
    const std::uint32_t expert32 = static_cast<std::uint32_t>(experts[i]);
    const std::uint32_t layer32 = static_cast<std::uint32_t>(layer);
    results.push_back(ag::remote_rows(
        x, expert_tokens[experts[i]], std::move(reply.payload),
        [this, worker, request_id, layer32, expert32](const Tensor& dy) {
          comm::Message grad_msg;
          grad_msg.type = comm::MessageType::kExpertBackward;
          grad_msg.request_id = request_id;
          grad_msg.layer = layer32;
          grad_msg.expert = expert32;
          grad_msg.payload = codec_.apply(dy);
          codec_.stamp(grad_msg);
          account(layer32, /*backward=*/true, worker, grad_msg.wire_size(), 1);
          rlinks_[worker]->post(std::move(grad_msg));
          return [this, worker, request_id, layer32] {
            comm::Message dx =
                await_reply(worker, comm::MessageType::kExpertBackwardResult,
                            request_id, layer32, /*backward=*/true);
            account(layer32, /*backward=*/true, worker, dx.wire_size(), 1);
            return std::move(dx.payload);
          };
        }));
  }
  return results;
}

comm::Message ExpertBroker::await_train_reply(
    std::size_t worker, std::uint64_t request_id, std::size_t layer,
    const std::vector<comm::Message>& train) {
  ReliableLink& rlink = *rlinks_[worker];
  const RetryPolicy& policy = rlink.policy();
  RetryPolicy attempt = policy;
  attempt.max_retries = 0;  // escalation below replaces per-request retries
  for (int escalations = 0;; ++escalations) {
    try {
      return rlink.await(comm::MessageType::kExpertBackwardResult, request_id,
                         /*on_retransmit=*/nullptr, &attempt);
    } catch (const WorkerFailedError&) {
      if (escalations >= policy.max_retries) throw;
      for (const comm::Message& m : train) {
        rlink.retransmit(m, [&](std::uint64_t bytes) {
          account(layer, /*backward=*/true, worker, bytes,
                  m.chunk_index == 0 ? 1 : 0);
        });
      }
      attempt.timeout = std::chrono::milliseconds(static_cast<std::int64_t>(
          static_cast<double>(attempt.timeout.count()) * policy.backoff));
    }
  }
}

std::vector<ag::Variable> ExpertBroker::experts_forward_chunked(
    std::size_t layer, const ag::Variable& x,
    const std::vector<std::vector<std::size_t>>& expert_tokens,
    const std::vector<std::size_t>& experts) {
  struct GroupPlan {
    std::size_t expert = 0;
    std::size_t worker = 0;
    std::uint64_t base_id = 0;                // fragment c has id base_id + c
    std::vector<std::size_t> rows;            // per-chunk row counts
    std::vector<std::size_t> begin;           // per-chunk first row
    std::vector<Tensor> wire;                 // per-chunk request payloads
    std::vector<Tensor> result;               // per-chunk reply payloads
  };
  std::vector<GroupPlan> plans(experts.size());
  std::size_t max_chunks = 0;
  for (std::size_t g = 0; g < experts.size(); ++g) {
    GroupPlan& p = plans[g];
    p.expert = experts[g];
    p.worker = placement_->worker_of(layer, p.expert);
    p.rows = chunk_row_counts(expert_tokens[p.expert].size(), overlap_chunks_);
    p.begin.resize(p.rows.size());
    std::size_t at = 0;
    for (std::size_t c = 0; c < p.rows.size(); ++c) {
      p.begin[c] = at;
      at += p.rows[c];
    }
    p.base_id = next_request_;
    next_request_ += p.rows.size();
    p.wire.resize(p.rows.size());
    p.result.resize(p.rows.size());
    max_chunks = std::max(max_chunks, p.rows.size());
  }

  // Pack every chunk's wire payload as parallel tasks. A chunk gathers its
  // own slice of the group's token list. Slice-then-quantize equals
  // quantize-then-slice bitwise for every dtype: fp16 rounding is
  // elementwise, and the int8 tier's blocks never span rows (qblock.h), so
  // a row slice carries exactly its own blocks and scales.
  {
    std::vector<std::function<void()>> tasks;
    for (std::size_t g = 0; g < plans.size(); ++g) {
      for (std::size_t c = 0; c < plans[g].rows.size(); ++c) {
        tasks.push_back([this, &x, &expert_tokens, &plans, g, c] {
          GroupPlan& p = plans[g];
          const auto first =
              expert_tokens[p.expert].begin() +
              static_cast<std::ptrdiff_t>(p.begin[c]);
          p.wire[c] = codec_.apply(ops::gather_rows(
              x.value(),
              std::vector<std::size_t>(
                  first, first + static_cast<std::ptrdiff_t>(p.rows[c]))));
        });
      }
    }
    util::ThreadPool::global().run(tasks);
  }

  // Dispatch pipeline: chunk-major post order, so every worker holds its
  // groups' fragment 0 and computes it while fragment 1 is still in flight.
  // Fragment 0 carries the logical transfer's header (and its message count);
  // continuations are charged payload-only, keeping the ledger invariant in K.
  for (std::size_t c = 0; c < max_chunks; ++c) {
    for (GroupPlan& p : plans) {
      if (c >= p.rows.size()) continue;
      comm::Message msg;
      msg.type = comm::MessageType::kExpertForward;
      msg.request_id = p.base_id + c;
      msg.layer = static_cast<std::uint32_t>(layer);
      msg.expert = static_cast<std::uint32_t>(p.expert);
      msg.chunk_index = static_cast<std::uint8_t>(c);
      msg.chunk_count = static_cast<std::uint8_t>(p.rows.size());
      msg.payload = std::move(p.wire[c]);
      codec_.stamp(msg);
      account(layer, /*backward=*/false, p.worker, msg.wire_size(),
              c == 0 ? 1 : 0);
      rlinks_[p.worker]->post(std::move(msg));
    }
  }

  // Collect replies in post order. A retransmitted fragment re-pays exactly
  // its own wire size (continuations stay header-free and message-free).
  for (std::size_t c = 0; c < max_chunks; ++c) {
    for (GroupPlan& p : plans) {
      if (c >= p.rows.size()) continue;
      const std::uint32_t msgs = c == 0 ? 1 : 0;
      comm::Message reply = rlinks_[p.worker]->await(
          comm::MessageType::kExpertForwardResult, p.base_id + c,
          [&](std::uint64_t bytes) {
            account(layer, /*backward=*/false, p.worker, bytes, msgs);
          });
      account(layer, /*backward=*/false, p.worker, reply.wire_size(),
              reply.chunk_index == 0 ? 1 : 0);
      p.result[c] = std::move(reply.payload);
    }
  }

  // Merge in fixed chunk order (per-chunk forward equals full-batch forward
  // row-for-row: the expert kernels are row-local) and wire each group into
  // the master tape. Backward posts dL/dy as the same fragment train when
  // the sweep passes the output; the wait, at x, reassembles dL/dx from the
  // per-fragment replies.
  std::vector<ag::Variable> results;
  results.reserve(plans.size());
  for (GroupPlan& p : plans) {
    const std::size_t worker = p.worker;
    const std::uint64_t base_id = p.base_id;
    const std::uint32_t expert32 = static_cast<std::uint32_t>(p.expert);
    const std::uint32_t layer32 = static_cast<std::uint32_t>(layer);
    results.push_back(ag::remote_rows(
        x, expert_tokens[p.expert], ops::concat_rows(p.result),
        [this, worker, base_id, layer32, expert32, rows = p.rows,
         begin = p.begin](const Tensor& dy) {
          const std::size_t k = rows.size();
          std::vector<comm::Message> train(k);
          for (std::size_t c = 0; c < k; ++c) {
            comm::Message& m = train[c];
            m.type = comm::MessageType::kExpertBackward;
            m.request_id = base_id + c;
            m.layer = layer32;
            m.expert = expert32;
            m.chunk_index = static_cast<std::uint8_t>(c);
            m.chunk_count = static_cast<std::uint8_t>(k);
            m.payload = codec_.apply(ops::slice_rows(dy, begin[c], rows[c]));
            codec_.stamp(m);
            account(layer32, /*backward=*/true, worker, m.wire_size(),
                    c == 0 ? 1 : 0);
            rlinks_[worker]->post(comm::Message(m));  // keep the train copy
          }
          return [this, worker, base_id, layer32, train = std::move(train)] {
            std::vector<Tensor> dx(train.size());
            for (std::size_t c = 0; c < train.size(); ++c) {
              comm::Message reply =
                  await_train_reply(worker, base_id + c, layer32, train);
              account(layer32, /*backward=*/true, worker, reply.wire_size(),
                      c == 0 ? 1 : 0);
              dx[c] = std::move(reply.payload);
            }
            return ops::concat_rows(dx);
          };
        }));
  }
  return results;
}

}  // namespace vela::core
