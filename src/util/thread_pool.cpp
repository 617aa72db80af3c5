#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "util/check.h"

namespace vela::util {
namespace {

// Nested-submit guard: set while a thread (worker or participating caller)
// is executing pool tasks, so nested run()/parallel_for() calls go inline.
thread_local bool tl_in_pool_task = false;

std::unique_ptr<ThreadPool> g_pool;           // guarded by g_pool_mutex
std::mutex g_pool_mutex;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads)
    : size_(std::max<std::size_t>(threads, 1)) {
  workers_.reserve(size_ - 1);
  for (std::size_t i = 0; i + 1 < size_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<audit::AuditedMutex> lock(queue_mutex_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::in_pool_task() { return tl_in_pool_task; }

void ThreadPool::work_on(Job& job) {
  tl_in_pool_task = true;
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.count) break;
    std::exception_ptr err;
    try {
      (*job.task)(i);
    } catch (...) {
      err = std::current_exception();
    }
    {
      // Moved, not copied: the exception's last reference must not be
      // dropped by this lane outside job.m (the caller reads it under m).
      std::lock_guard<audit::AuditedMutex> lock(job.m);
      if (err) job.errors.emplace_back(i, std::move(err));
      if (++job.done == job.count) job.cv.notify_all();
    }
  }
  tl_in_pool_task = false;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<audit::AuditedMutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      job = queue_.front();
      // A job whose every index is claimed is spent; retire it and look
      // again rather than spinning on fetch_add.
      if (job->next.load(std::memory_order_relaxed) >= job->count) {
        queue_.pop_front();
        continue;
      }
    }
    work_on(*job);
  }
}

void ThreadPool::dispatch(const std::function<void(std::size_t)>& task,
                          std::size_t count) {
  if (count == 0) return;
  if (size_ == 1 || count == 1 || tl_in_pool_task) {
    // Inline/serial path: index order, first exception aborts — identical
    // to the pre-pool serial loops.
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }

  auto job = std::make_shared<Job>();
  job->task = &task;
  job->count = count;
  {
    std::lock_guard<audit::AuditedMutex> lock(queue_mutex_);
    queue_.push_back(job);
  }
  queue_cv_.notify_all();

  // The caller is a lane too.
  work_on(*job);

  // Taken under job->m: a lane may still hold the last shared_ptr<Job>, so
  // the exceptions must leave the job before the caller rethrows one.
  std::vector<std::pair<std::size_t, std::exception_ptr>> errors;
  {
    std::unique_lock<audit::AuditedMutex> lock(job->m);
    job->cv.wait(lock, [&] { return job->done == job->count; });
    errors.swap(job->errors);
  }
  {
    // Retire the job from the queue if no worker got there first.
    std::lock_guard<audit::AuditedMutex> lock(queue_mutex_);
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->get() == job.get()) {
        queue_.erase(it);
        break;
      }
    }
  }
  if (!errors.empty()) {
    auto first = std::min_element(
        errors.begin(), errors.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::rethrow_exception(first->second);
  }
}

void ThreadPool::run(const std::vector<std::function<void()>>& tasks) {
  dispatch([&tasks](std::size_t i) { tasks[i](); }, tasks.size());
}

void ThreadPool::parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t g = std::max<std::size_t>(grain, 1);
  const std::size_t chunks = (n + g - 1) / g;
  dispatch(
      [&](std::size_t c) {
        const std::size_t begin = c * g;
        body(begin, std::min(n, begin + g), c);
      },
      chunks);
}

std::size_t ThreadPool::env_threads() {
  if (const char* env = std::getenv("VELA_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      return static_cast<std::size_t>(v);
    }
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (g_pool == nullptr) {
    g_pool = std::make_unique<ThreadPool>(env_threads());
  }
  return *g_pool;
}

void ThreadPool::set_global_threads(std::size_t threads) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_pool = std::make_unique<ThreadPool>(threads == 0 ? env_threads() : threads);
}

}  // namespace vela::util
