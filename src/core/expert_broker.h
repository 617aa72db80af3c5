// The Expert Broker layer (Fig. 4): VELA's replacement for an in-process MoE
// block's expert calls.
//
// Forward (token dispatcher / receiver): every non-empty expert group of a
// block is sent to whichever worker the current placement assigns the expert
// to — all sends first, then all receives, so workers overlap. The returned
// Variables join the master's autograd tape through ag::remote_rows on the
// block's normed input x, which splits backward the same way (gradient
// dispatcher / receiver): as the sweep passes each output it ships dL/dy to
// the hosting worker, which backpropagates through its local tape
// (accumulating expert-adapter gradients on the worker) and returns dL/dx;
// the waits for those replies run when the sweep reaches x, after every
// group of the block has posted. So a block's gradient round trips overlap
// across workers as its forward ones do, and dL/dx is summed into x in the
// order a blocking closure per group gave (moe_block.h says why that order
// rules out one autograd node per block).
//
// Requests travel over ReliableLinks (core/fault_tolerance.h): lost or
// corrupted messages are retransmitted with backoff, duplicates discarded,
// and a worker that stops answering raises WorkerFailedError rather than
// hanging the step. Retransmitted bytes are charged to the same phase ledger
// as first transmissions.
//
// The broker also keeps the per-phase byte ledger the CommClock converts to
// Fig. 6 step times.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/comm_clock.h"
#include "comm/phase_ledger.h"
#include "comm/wire_codec.h"
#include "core/fault_tolerance.h"
#include "moe/moe_block.h"
#include "placement/placement.h"

namespace vela::core {

class ExpertBroker : public moe::ExpertBackend {
 public:
  // `rlinks[n]` is the reliable link to worker n. `placement` may be updated
  // later via set_placement (expert migration). All pointers are non-owning;
  // MasterProcess keeps the links valid across worker respawns.
  // `codec` is the resolved dispatch precision (DESIGN.md §13).
  ExpertBroker(std::vector<ReliableLink*> rlinks,
               const placement::Placement* placement, std::size_t num_layers,
               const comm::WireCodec& codec);

  std::vector<ag::Variable> experts_forward(
      std::size_t layer, const ag::Variable& x,
      const std::vector<std::vector<std::size_t>>& expert_tokens) override;

  void set_placement(const placement::Placement* placement);
  const placement::Placement* placement() const { return placement_; }
  // The codec every dispatch message is transformed and stamped with.
  const comm::WireCodec& codec() const { return codec_; }

  // Micro-chunked dispatch pipeline (VELA_OVERLAP, DESIGN.md §8): 0 or 1
  // keeps the sequential exchange; K >= 2 splits every expert group into K
  // row chunks sent as fragments of one logical transfer (fragment 0 carries
  // the header, continuations are header-free), posted chunk-major so a
  // worker computes chunk i while chunk i+1 is in flight. Results, gradients
  // and the byte ledger are bit-identical to the sequential path at any K.
  // Values above 255 are clamped (the fragment header is one byte).
  void set_overlap_chunks(std::size_t chunks);
  std::size_t overlap_chunks() const { return overlap_chunks_; }

  // Expert-store dispatch hints (DESIGN.md §15): when enabled, every
  // experts_forward precedes its posts with one fire-and-forget
  // kPrefetchExperts per involved worker, naming the experts the dispatch is
  // about to touch — a paging worker overlaps its page-ins with the hint's
  // in-flight forwards instead of demand-faulting on each. Sent raw (never
  // awaited, never retransmitted); bytes are charged to the layer's forward
  // phase. Off by default: with an unbounded store the hint is a no-op on
  // the worker but its bytes would break bit-exact ledger parity.
  void set_store_hints(bool on) { store_hints_ = on; }
  bool store_hints() const { return store_hints_; }

  // Step-phase ledger.
  void begin_step();
  // Returns phases ordered forward block 0..L−1 then backward block L−1..0
  // and resets the ledger.
  comm::VelaStepRecord finish_step();

  std::uint64_t requests_sent() const { return next_request_; }

 private:
  void account(std::size_t layer, bool backward_phase, std::size_t worker,
               std::uint64_t bytes, std::uint32_t messages);
  // Awaits via the worker's ReliableLink, charging retransmitted bytes to
  // the same (layer, phase, worker) ledger cell as the original request.
  comm::Message await_reply(std::size_t worker, comm::MessageType expected,
                            std::uint64_t request_id, std::size_t layer,
                            bool backward_phase);

  // Sends the kPrefetchExperts hints for one dispatch (store_hints_ only).
  void send_prefetch_hints(std::size_t layer,
                           const std::vector<std::size_t>& experts);

  // The overlap pipeline's experts_forward (overlap_chunks_ >= 2);
  // `experts` lists the non-empty groups, ascending.
  std::vector<ag::Variable> experts_forward_chunked(
      std::size_t layer, const ag::Variable& x,
      const std::vector<std::vector<std::size_t>>& expert_tokens,
      const std::vector<std::size_t>& experts);
  // Awaits one fragment's backward reply. A worker answers a fragment train
  // only once the whole train has arrived, so a lost fragment cannot be
  // recovered by retransmitting the awaited one alone: on timeout the entire
  // train is re-posted (charged to the ledger like any retransmission),
  // bounded by the link's RetryPolicy.
  // Other trains of the block may be outstanding meanwhile; the link stashes
  // their replies for their own waits.
  comm::Message await_train_reply(std::size_t worker, std::uint64_t request_id,
                                  std::size_t layer,
                                  const std::vector<comm::Message>& train);

  std::vector<ReliableLink*> rlinks_;
  const placement::Placement* placement_;
  std::size_t num_layers_;
  // Resolved dispatch-payload codec: every outgoing activation/gradient is
  // transformed by codec_.apply() and stamped by codec_.stamp(), so the
  // ledgers charge the quantized footprint uniformly across transports.
  comm::WireCodec codec_;
  std::size_t overlap_chunks_ = 0;
  bool store_hints_ = false;
  std::uint64_t next_request_ = 1;
  // Per-phase byte/message ledger, one master row × one column per worker
  // (the same helper the EP runtime uses with an N×N shape).
  comm::PhaseLedger ledger_;
};

// Parses VELA_OVERLAP (the pipeline depth K). Unset, 0, 1 or unparsable all
// mean "sequential"; values above 255 are clamped.
std::size_t overlap_chunks_from_env();

}  // namespace vela::core
