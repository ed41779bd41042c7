#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "obs/trace.h"

namespace xai {

namespace {
// Set inside WorkerLoop so a nested ParallelFor from within a chunk runs
// inline instead of deadlocking on Wait() (a worker waiting for the queue
// it is supposed to drain).
thread_local bool t_in_pool_worker = false;
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads <= 1) return;  // Inline mode: no workers.
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i)
    threads_.emplace_back([this] { WorkerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  if (threads_.empty()) {
    task();
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  if (threads_.empty()) return;
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  t_in_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown_ with a drained queue.
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t chunk_size,
                             const std::function<void(size_t)>& fn) {
  if (begin >= end) return;
  if (chunk_size == 0) chunk_size = 1;

  if (threads_.empty() || t_in_pool_worker) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  // Trace-context propagation: capture the caller's context once at the
  // fan-out point and install it in every worker chunk, so chunk events
  // (and anything the chunk body emits) carry the request's trace_id and
  // parent onto the span that launched the sweep. One relaxed load when
  // tracing is off.
  const bool traced = obs::TraceEnabled();
  const obs::TraceContext parent_ctx =
      traced ? obs::CurrentTraceContext() : obs::TraceContext{};

  // First exception wins; the rest of the sweep still runs so every
  // output slot the caller reduces over is written.
  std::atomic<bool> have_error{false};
  std::exception_ptr error;
  std::mutex error_mu;

  for (size_t lo = begin; lo < end; lo += chunk_size) {
    const size_t hi = std::min(end, lo + chunk_size);
    Submit([&, lo, hi] {
      try {
        if (traced) {
          obs::ScopedTraceContext install(parent_ctx);
          obs::ScopedTraceEvent chunk("pool_chunk");
          for (size_t i = lo; i < hi; ++i) fn(i);
        } else {
          for (size_t i = lo; i < hi; ++i) fn(i);
        }
      } catch (...) {
        if (!have_error.exchange(true)) {
          std::unique_lock<std::mutex> lock(error_mu);
          error = std::current_exception();
        }
      }
    });
  }
  Wait();
  if (have_error.load()) std::rethrow_exception(error);
}

namespace {

std::atomic<size_t> g_thread_override{0};

size_t EnvThreadCount() {
  const char* env = std::getenv("XAIDB_THREADS");
  if (env != nullptr && *env != '\0') {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;  // NOLINT: intentional process lifetime.
size_t g_pool_size = 0;

}  // namespace

size_t GlobalThreadCount() {
  const size_t override_n = g_thread_override.load(std::memory_order_relaxed);
  return std::min(kMaxThreads,
                  override_n >= 1 ? override_n : EnvThreadCount());
}

void SetGlobalThreads(size_t n) {
  g_thread_override.store(n, std::memory_order_relaxed);
}

ThreadPool& GlobalPool() {
  const size_t want = GlobalThreadCount();
  std::unique_lock<std::mutex> lock(g_pool_mu);
  if (!g_pool || g_pool_size != want) {
    g_pool.reset();  // Join the old pool before replacing it.
    g_pool = std::make_unique<ThreadPool>(want);
    g_pool_size = want;
  }
  return *g_pool;
}

uint64_t ChunkSeed(uint64_t seed, uint64_t chunk_index) {
  // splitmix64 finalizer over a Weyl-sequenced counter.
  uint64_t z = seed + (chunk_index + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace xai
