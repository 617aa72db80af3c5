// Fixed-size, work-stealing-free thread pool shared by every parallel hot
// path in the runtime (tensor kernels, per-expert forward/backward on the
// workers, dispatch serialization on the master).
//
// Design constraints, in order of importance:
//
//  * Determinism. parallel_for() splits [0, n) into contiguous chunks whose
//    boundaries depend only on n and the grain — never on the thread count
//    or on scheduling — so a kernel that writes disjoint chunk outputs (or
//    reduces per-chunk partials merged in chunk order) produces bit-identical
//    results under VELA_THREADS=1 and VELA_THREADS=64.
//  * Serial fallback. A pool of size 1 never touches the queue: every task
//    runs inline on the caller, in index order, which *is* the serial code
//    path (and what the determinism tests compare against).
//  * No nested deadlock. A task that itself calls run()/parallel_for()
//    executes the nested work inline on its own lane instead of blocking on
//    a queue that may never drain. A thread inside a LaneScope is treated
//    the same way, and so is every lane of the autograd sweep (a pool task
//    itself, autograd/variable.h): kernels under a lane run inline.
//  * The caller participates: submitting N tasks to a pool of size T uses
//    the caller as one of the T lanes, so a pool of size T spawns T-1
//    threads and size()==1 spawns none.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/audit.h"

namespace vela::util {

class ThreadPool {
 public:
  // `threads` is the total lane count including the calling thread; 0 is
  // clamped to 1. A pool of size T spawns T-1 worker threads.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return size_; }

  // Runs every task to completion (the caller executes its share). If any
  // tasks threw, rethrows the exception of the lowest-index failing task —
  // the same exception the serial loop would have surfaced, since tasks
  // before it completed without error. Inline execution (size 1 or a nested
  // call) instead throws at the first failing task, exactly like serial code.
  void run(const std::vector<std::function<void()>>& tasks);

  // Fixed-partition parallel loop: chunk c covers
  // [c*grain, min(n, (c+1)*grain)) and body(begin, end, c) is invoked once
  // per chunk. Chunk boundaries depend only on (n, grain), so per-chunk
  // reductions merged in chunk order are reproducible at any pool size.
  // With one chunk, size()==1, or when called from inside a pool task, the
  // chunks run inline on the caller in ascending order.
  void parallel_for(
      std::size_t n, std::size_t grain,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

  // True while the current thread is executing a pool task (the nested-
  // submit guard); exposed so kernels can skip parallel setup work early.
  static bool in_pool_task();

  // Marks the current thread as a lane for the scope's lifetime: every
  // run()/parallel_for() on it executes inline, as inside a pool task.
  // Threads that already form a data-parallel fan-out of their own (EP's
  // shard threads) enter one, so their nested work does not queue on a
  // pool that is narrower than the fan-out.
  class LaneScope {
   public:
    LaneScope();
    ~LaneScope();
    LaneScope(const LaneScope&) = delete;
    LaneScope& operator=(const LaneScope&) = delete;

   private:
    bool outer_;  // the flag's value on entry, restored on exit
  };

  // The process-wide pool, created on first use with env_threads() lanes.
  // Lock-free once created: one acquire load of an atomic pointer.
  static ThreadPool& global();
  // Replaces the global pool (tests and benchmarks sweeping thread counts).
  // Must only be called while no tasks are in flight. `threads`==0 resets
  // to env_threads().
  static void set_global_threads(std::size_t threads);
  // VELA_THREADS if set to a positive integer, else hardware_concurrency
  // (itself clamped to at least 1).
  static std::size_t env_threads();

 private:
  // One submitted batch of indexed tasks. Lanes claim indices through
  // `next`; completion is tracked under `m`.
  struct Job {
    const std::function<void(std::size_t)>* task = nullptr;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::size_t done = 0;  // guarded by m
    // (task index, exception) pairs; rethrow picks the lowest index.
    std::vector<std::pair<std::size_t, std::exception_ptr>> errors;
    audit::AuditedMutex m{"thread_pool_job"};
    std::condition_variable_any cv;
  };

  void worker_loop();
  // Claims and executes chunks of `job` until none remain.
  static void work_on(Job& job);
  // Runs `count` indexed tasks through the pool (or inline) and applies the
  // exception policy described on run().
  void dispatch(const std::function<void(std::size_t)>& task,
                std::size_t count);

  std::size_t size_ = 1;
  std::vector<std::thread> workers_;
  audit::AuditedMutex queue_mutex_{"thread_pool_queue"};
  std::condition_variable_any queue_cv_;
  std::deque<std::shared_ptr<Job>> queue_;
  bool stop_ = false;
};

}  // namespace vela::util
