#ifndef XAIDB_COMMON_THREAD_POOL_H_
#define XAIDB_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace xai {

/// Fixed-size worker pool behind every parallel sweep in the library
/// (MC-Shapley permutations, KernelSHAP/LIME batch chunks, distributional
/// values). Design constraints, in order:
///
///  1. **Determinism.** Work is always split into chunks whose boundaries
///     depend only on the problem size — never on the thread count — and
///     any randomness inside a chunk comes from a counter-based stream
///     derived from (seed, chunk index). Together with callers reducing
///     chunk results in chunk order, this makes every parallel path
///     bit-identical to its serial run at a fixed seed.
///  2. **No exceptions across the pool boundary.** The first exception a
///     chunk throws is captured and rethrown on the calling thread after
///     the sweep drains; remaining chunks still run (their slots in the
///     output must stay defined for the deterministic reduction).
///  3. **Graceful shutdown.** The destructor drains queued work and joins;
///     a pool of size <= 1 runs everything inline and spawns no threads.
class ThreadPool {
 public:
  /// `num_threads` <= 1 means inline execution (no worker threads).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.empty() ? 1 : threads_.size(); }

  /// Enqueues a task. Tasks must not throw (use ParallelFor for
  /// exception-safe sweeps).
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

  /// Runs fn(i) for i in [begin, end), partitioned into fixed chunks of
  /// `chunk_size` (boundaries independent of thread count). Blocks until
  /// all iterations finish; rethrows the first chunk exception on the
  /// caller. fn must be safe to call concurrently for distinct i.
  ///
  /// When the flight recorder is on (obs::TraceEnabled), the caller's
  /// obs::TraceContext is captured here and installed in every worker
  /// chunk, each wrapped in a "pool_chunk" trace event — one request's
  /// events stay linked across the fan-out.
  void ParallelFor(size_t begin, size_t end, size_t chunk_size,
                   const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // Signals workers: work or shutdown.
  std::condition_variable done_cv_;   // Signals waiters: queue drained.
  std::queue<std::function<void()>> queue_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

/// Upper bound on the library-wide parallelism degree, whatever
/// SetGlobalThreads, XAIDB_THREADS or the hardware asks for.
inline constexpr size_t kMaxThreads = 256;

/// The configured library-wide parallelism degree. Resolution order:
/// SetGlobalThreads() (CLI flags, tests) > XAIDB_THREADS env var >
/// hardware_concurrency. Always in [1, kMaxThreads].
size_t GlobalThreadCount();

/// Overrides the global thread count (0 restores the env/hardware
/// default). Takes effect on the next GlobalPool() use; existing pool
/// references stay valid but keep their size until then.
void SetGlobalThreads(size_t n);

/// Lazily constructed process-wide pool of GlobalThreadCount() threads.
/// Rebuilt (under a lock) when the configured count changes.
ThreadPool& GlobalPool();

/// Derives the seed for chunk `chunk_index` of a sweep seeded with `seed`:
/// a splitmix64-style counter stream, so chunk streams are decorrelated
/// and depend only on (seed, chunk index) — the determinism contract that
/// makes thread count irrelevant to results.
uint64_t ChunkSeed(uint64_t seed, uint64_t chunk_index);

}  // namespace xai

#endif  // XAIDB_COMMON_THREAD_POOL_H_
