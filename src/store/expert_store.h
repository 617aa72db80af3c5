// ExpertStore — the single owner of hosted expert state (DESIGN.md §15).
//
// The one runtime component that hosts experts, core::ExpertExecutor (run
// by both the VELA expert worker and the EP expert server), holds an
// ExpertStore, so migration, recovery, checkpointing and paging all flow
// through one chokepoint. Two backends:
//
//   InMemoryStore  every hosted expert stays resident — byte-for-byte the
//                  pre-store semantics, and the default.
//   PagedStore     at most `budget` experts resident; cold experts spill to
//                  an mmap-backed DiskTable and page back in on demand
//                  (paged_store.h).
//
// Access protocol: pin() pages the expert in (if needed) and holds it
// resident until the matching unpin(). The executor pins for exactly the
// lifetime of the state an expert's resident object carries that its paged
// image cannot: a live autograd tape (forward → backward retire). Between
// pins an expert is evictable because pack_paged_state captures everything
// else — parameters, accumulated gradients, AdamW moments, LR. All pin
// bookkeeping happens on the owning runtime's thread; the parallel compute
// tasks only touch experts their caller already pinned.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/expert.h"
#include "nn/optimizer.h"
#include "store/expert_state.h"

namespace vela::comm {
class TrafficMeter;
}

namespace vela::store {

// A hosted expert: the module plus its local optimizer (null when LoRA is
// disabled — frozen experts have nothing to train).
struct ExpertSlot {
  std::unique_ptr<nn::SwiGLUExpert> expert;
  std::unique_ptr<nn::AdamW> optimizer;
};

// Rebuilds a fresh slot for a key: seeded frozen bases, default-initialized
// adapters/optimizer. Page-in applies the spilled image on top of this.
using SlotFactory = std::function<ExpertSlot(const ExpertKey&)>;

// At-rest encoding of spilled images. kQ8 block-quantizes the bulk payload
// (tensor/qblock.h) to roughly quarter the spill footprint — lossy, so the
// bit-exactness gates run fp32; structural header floats are never
// quantized.
enum class StoreDtype { kDefault, kFp32, kQ8 };

// Victim selection among unpinned residents. All orders are total (exact
// tie-breaks on the key), so eviction is deterministic for a given access
// sequence.
enum class EvictionPolicy {
  kLocality,  // lowest locality priority, then least-recent, then key
  kLru,       // least-recent, then key
  kFifo       // oldest install, then key
};

struct StoreStats {
  std::uint64_t hits = 0;        // pins served from the resident pool
  std::uint64_t misses = 0;      // pins that paged in
  std::uint64_t evictions = 0;
  std::uint64_t page_in_bytes = 0;
  std::uint64_t page_out_bytes = 0;
  std::size_t resident = 0;
};

struct StoreConfig {
  // Max experts resident at once. -1: resolve VELA_EXPERT_BUDGET; 0 (or an
  // unset/empty variable): unbounded — the InMemoryStore backend.
  long long budget = -1;
  // Spill directory. Empty: VELA_STORE_DIR, then the system temp dir.
  std::string dir;
  // kDefault: resolve VELA_STORE_DTYPE ("fp32" | "q8"), then fp32.
  StoreDtype dtype = StoreDtype::kDefault;
  EvictionPolicy policy = EvictionPolicy::kLocality;
  // Optional sink for page-in/page-out byte series (parallel to the
  // recovery series — never added to external/total traffic).
  comm::TrafficMeter* meter = nullptr;

  // Fills every kDefault/-1/empty field from the environment.
  StoreConfig resolved() const;
  bool bounded() const { return budget > 0; }
};

class ExpertStore {
 public:
  virtual ~ExpertStore() = default;

  virtual bool bounded() const = 0;
  virtual bool contains(const ExpertKey& key) const = 0;
  virtual std::size_t size() const = 0;  // hosted = resident + spilled
  virtual std::vector<ExpertKey> keys() const = 0;  // ascending

  // Builds a fresh slot from the factory. The key must not be hosted.
  virtual void emplace(const ExpertKey& key) = 0;
  // Drops a hosted expert entirely (resident object and any spilled image).
  // The key must not be pinned.
  virtual void erase(const ExpertKey& key) = 0;
  // Drops everything (injected crash: all hosted state is lost).
  virtual void clear() = 0;

  // Pages in if needed, pins, and returns the resident slot. The reference
  // stays valid until the matching unpin(). Pins nest.
  virtual ExpertSlot& pin(const ExpertKey& key) = 0;
  virtual void unpin(const ExpertKey& key) = 0;

  // Step-abort support: discards accumulated gradients of every hosted
  // expert — resident ones immediately, spilled ones lazily at their next
  // page-in (paging them in just to zero them would be wasted thrash).
  virtual void zero_all_grads() = 0;

  // Locality scores from the placement optimizer's access statistics
  // (moe::RoutingStats::probability_matrix row for this worker's layers);
  // drives kLocality admission. No-op for unbounded stores.
  virtual void set_priorities(const std::vector<std::pair<ExpertKey, float>>&
                                  priorities) {
    (void)priorities;
  }
  // Dispatch-schedule hint: page these in ahead of the forward requests
  // already in flight behind the hint. Never changes results, only which
  // pins miss. No-op for unbounded stores.
  virtual void prefetch(const std::vector<ExpertKey>& keys) { (void)keys; }

  virtual StoreStats stats() const { return {}; }
};

// RAII pin for the serial control paths (snapshot, restore, fetch, step).
class Pinned {
 public:
  Pinned(ExpertStore& store, const ExpertKey& key)
      : store_(&store), key_(key), slot_(&store.pin(key)) {}
  ~Pinned() { store_->unpin(key_); }
  Pinned(const Pinned&) = delete;
  Pinned& operator=(const Pinned&) = delete;

  nn::SwiGLUExpert& expert() { return *slot_->expert; }
  nn::AdamW* optimizer() { return slot_->optimizer.get(); }
  ExpertSlot& slot() { return *slot_; }

 private:
  ExpertStore* store_;
  ExpertKey key_;
  ExpertSlot* slot_;
};

// InMemoryStore: the unbounded backend — a std::map of slots, exactly the
// ownership the runtimes had before the store existed. pin/unpin are plain
// lookups; nothing is ever written to disk.
class InMemoryStore final : public ExpertStore {
 public:
  explicit InMemoryStore(SlotFactory factory);

  bool bounded() const override { return false; }
  bool contains(const ExpertKey& key) const override;
  std::size_t size() const override;
  std::vector<ExpertKey> keys() const override;
  void emplace(const ExpertKey& key) override;
  void erase(const ExpertKey& key) override;
  void clear() override;
  ExpertSlot& pin(const ExpertKey& key) override;
  void unpin(const ExpertKey& key) override;
  void zero_all_grads() override;
  StoreStats stats() const override;

 private:
  SlotFactory factory_;
  std::map<ExpertKey, ExpertSlot> slots_;
  std::uint64_t pins_ = 0;
};

// Picks the backend from the RESOLVED config: budget 0 → InMemoryStore,
// budget > 0 → PagedStore.
std::unique_ptr<ExpertStore> make_expert_store(const StoreConfig& config,
                                               SlotFactory factory);

}  // namespace vela::store
