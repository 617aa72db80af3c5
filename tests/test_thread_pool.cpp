// util::ThreadPool contract tests: construction/teardown, task execution,
// exception propagation (lowest index wins, matching serial order), the
// nested-submit inline guard and LaneScope, the lock-free global pool, the
// pool-of-1 serial fallback, and the fixed
// partitioning that underwrites the bit-exact determinism guarantees.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace vela::util {
namespace {

TEST(ThreadPool, ConstructsAndTearsDownAtEverySize) {
  for (const std::size_t size : {1u, 2u, 8u}) {
    ThreadPool pool(size);
    EXPECT_EQ(pool.size(), size);
  }
  // Size 0 clamps to 1 rather than producing a poolless pool.
  ThreadPool zero(0);
  EXPECT_EQ(zero.size(), 1u);
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  for (const std::size_t size : {1u, 2u, 8u}) {
    ThreadPool pool(size);
    std::vector<std::atomic<int>> hits(100);
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < hits.size(); ++i) {
      tasks.push_back([&hits, i] { hits[i].fetch_add(1); });
    }
    pool.run(tasks);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, EmptyTaskListIsANoOp) {
  ThreadPool pool(4);
  pool.run({});
  pool.parallel_for(0, 8, [](std::size_t, std::size_t, std::size_t) {
    FAIL() << "body must not run for n == 0";
  });
}

TEST(ThreadPool, PropagatesLowestIndexException) {
  ThreadPool pool(4);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back([i] {
      if (i == 3) throw std::runtime_error("boom-3");
      if (i == 11) throw std::runtime_error("boom-11");
    });
  }
  // Serial execution would hit index 3 first; the parallel path must agree
  // no matter which error physically happened first.
  try {
    pool.run(tasks);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& err) {
    EXPECT_STREQ(err.what(), "boom-3");
  }
}

TEST(ThreadPool, PoolOfOneRunsInlineOnCallerThread) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    tasks.push_back([&seen, i] { seen[i] = std::this_thread::get_id(); });
  }
  pool.run(tasks);
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, PoolOfOneAbortsAtFirstException) {
  // Inline semantics: task 5 throws, tasks 6+ never run — exactly the
  // pre-pool serial loop behavior.
  ThreadPool pool(1);
  std::vector<int> ran(10, 0);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back([&ran, i] {
      if (i == 5) throw std::runtime_error("stop");
      ran[i] = 1;
    });
  }
  EXPECT_THROW(pool.run(tasks), std::runtime_error);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(ran[i], 1);
  for (int i = 6; i < 10; ++i) EXPECT_EQ(ran[i], 0);
}

TEST(ThreadPool, NestedSubmitRunsInlineWithoutDeadlock) {
  // A task that submits to its own pool must not wait for a lane that may
  // never free up; the guard routes nested work inline.
  ThreadPool pool(2);
  std::atomic<int> inner_runs{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 4; ++i) {
    outer.push_back([&pool, &inner_runs] {
      EXPECT_TRUE(ThreadPool::in_pool_task());
      std::vector<std::function<void()>> inner;
      for (int j = 0; j < 4; ++j) {
        inner.push_back([&inner_runs] { inner_runs.fetch_add(1); });
      }
      pool.run(inner);
      pool.parallel_for(10, 3,
                        [&inner_runs](std::size_t b, std::size_t e,
                                      std::size_t) {
                          inner_runs.fetch_add(static_cast<int>(e - b));
                        });
    });
  }
  pool.run(outer);
  EXPECT_EQ(inner_runs.load(), 4 * (4 + 10));
  EXPECT_FALSE(ThreadPool::in_pool_task());
}

TEST(ThreadPool, LaneScopeRunsNestedWorkInline) {
  // A thread inside a LaneScope is a lane: its run()/parallel_for() execute
  // on it, in index order, and the guard's old value returns on exit.
  ThreadPool pool(4);
  const std::thread::id self = std::this_thread::get_id();
  std::vector<int> order;
  {
    ThreadPool::LaneScope lane;
    EXPECT_TRUE(ThreadPool::in_pool_task());
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 6; ++i) {
      tasks.push_back([&order, self, i] {
        EXPECT_EQ(std::this_thread::get_id(), self);
        order.push_back(i);
      });
    }
    pool.run(tasks);
    pool.parallel_for(9, 2, [&order, self](std::size_t b, std::size_t,
                                           std::size_t) {
      EXPECT_EQ(std::this_thread::get_id(), self);
      order.push_back(100 + static_cast<int>(b));
    });
    {
      ThreadPool::LaneScope nested;
    }
    EXPECT_TRUE(ThreadPool::in_pool_task());
  }
  EXPECT_FALSE(ThreadPool::in_pool_task());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 100, 102, 104, 106,
                                     108}));
}

TEST(ThreadPool, GlobalIsOnePoolAcrossConcurrentCallers) {
  // global() is a lock-free read: threads calling it at once, and running
  // kernels on what it returns, all see the one pool.
  ThreadPool::set_global_threads(3);
  ThreadPool* const expected = &ThreadPool::global();
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 6; ++t) {
    callers.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        ThreadPool& pool = ThreadPool::global();
        EXPECT_EQ(&pool, expected);
        pool.parallel_for(32, 4, [&](std::size_t b, std::size_t e,
                                     std::size_t) {
          total.fetch_add(static_cast<int>(e - b));
        });
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(total.load(), 6 * 20 * 32);
  ThreadPool::set_global_threads(0);
}

TEST(ThreadPool, PartitionBoundariesDependOnlyOnSizeAndGrain) {
  // n=10, grain=3 must always yield (0,3)(3,6)(6,9)(9,10) with chunk ids
  // 0..3, regardless of how many lanes execute them. This is the entire
  // determinism story for the reduction kernels.
  using Chunk = std::array<std::size_t, 3>;
  const std::vector<Chunk> expected = {
      {0, 3, 0}, {3, 6, 1}, {6, 9, 2}, {9, 10, 3}};
  for (const std::size_t size : {1u, 2u, 8u}) {
    ThreadPool pool(size);
    std::mutex m;
    std::set<Chunk> chunks;
    pool.parallel_for(10, 3,
                      [&](std::size_t b, std::size_t e, std::size_t c) {
                        std::lock_guard<std::mutex> lock(m);
                        chunks.insert({b, e, c});
                      });
    const std::vector<Chunk> got(chunks.begin(), chunks.end());
    EXPECT_EQ(got, expected) << "pool size " << size;
  }
}

TEST(ThreadPool, ConcurrentSubmittersBothComplete) {
  // Two non-pool threads submitting simultaneously: jobs queue FIFO and both
  // callers participate; neither starves.
  ThreadPool pool(4);
  std::atomic<int> total{0};
  const auto submit = [&] {
    for (int round = 0; round < 50; ++round) {
      pool.parallel_for(64, 8,
                        [&](std::size_t b, std::size_t e, std::size_t) {
                          total.fetch_add(static_cast<int>(e - b));
                        });
    }
  };
  std::thread a(submit), b(submit);
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 2 * 50 * 64);
}

TEST(ThreadPool, EnvThreadsParsesVelaThreads) {
  const char* saved = std::getenv("VELA_THREADS");
  const std::string restore = saved == nullptr ? "" : saved;

  ::setenv("VELA_THREADS", "7", 1);
  EXPECT_EQ(ThreadPool::env_threads(), 7u);
  ::setenv("VELA_THREADS", "not-a-number", 1);
  EXPECT_EQ(ThreadPool::env_threads(),
            std::max(1u, std::thread::hardware_concurrency()));
  ::setenv("VELA_THREADS", "-3", 1);
  EXPECT_EQ(ThreadPool::env_threads(),
            std::max(1u, std::thread::hardware_concurrency()));
  ::unsetenv("VELA_THREADS");
  EXPECT_EQ(ThreadPool::env_threads(),
            std::max(1u, std::thread::hardware_concurrency()));

  if (saved != nullptr) ::setenv("VELA_THREADS", restore.c_str(), 1);
}

TEST(ThreadPool, SetGlobalThreadsResizesTheSharedPool) {
  ThreadPool::set_global_threads(3);
  EXPECT_EQ(ThreadPool::global().size(), 3u);
  ThreadPool::set_global_threads(0);  // back to the environment default
  EXPECT_EQ(ThreadPool::global().size(), ThreadPool::env_threads());
}

}  // namespace
}  // namespace vela::util
