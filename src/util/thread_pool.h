#ifndef FAIREM_UTIL_THREAD_POOL_H_
#define FAIREM_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/util/result.h"

namespace fairem {

class FlagSet;

/// A reusable fixed-size worker pool built for one job shape: deterministic
/// chunked parallel-for over an index range. Design invariants:
///
///  * Stable output order regardless of worker count: the body receives
///    disjoint [begin, end) chunks of [0, n) and writes results by index;
///    which thread runs which chunk never affects the bytes produced.
///  * Graceful sequential fallback: a pool with fewer than 2 threads (or
///    n below one grain) runs the body inline on the caller — the same
///    code path a `--intra_jobs 1` run takes, so parallel and sequential
///    executions are byte-identical by construction.
///  * Nested-use rejection: a ParallelFor issued from inside a pool worker
///    (or from a body already running under ParallelFor) does not re-enter
///    the pool — it runs inline, counted in
///    `fairem.pool.nested_inline_calls`. This makes accidental nesting
///    (e.g. a parallel feature build inside a parallel predict) safe
///    instead of a deadlock.
///  * The caller participates: submitting ParallelFor runs chunks on the
///    calling thread too, so a pool of `k` threads yields `k + 1`-way
///    parallelism and an empty pool degrades to plain sequential code.
///
/// Metrics: `fairem.pool.tasks` counts executed chunks,
/// `fairem.pool.parallel_fors` counts jobs, `fairem.pool.workers` gauges
/// the worker-thread count, and `fairem.pool.queue_wait_seconds` is a
/// histogram of submit-to-chunk-start latency (scheduling overhead).
class ThreadPool {
 public:
  /// Spawns max(0, num_threads - 1) workers: `num_threads` is the total
  /// desired parallelism including the participating caller.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism (workers + the participating caller); >= 1.
  int parallelism() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs body(begin, end) over contiguous chunks of [0, n), blocking
  /// until every chunk completed. `grain` is the target chunk size (0
  /// picks one that spreads the range about 4 chunks per thread).
  /// Exceptions thrown by the body are captured and the one from the
  /// lowest-indexed chunk is rethrown on the calling thread after all
  /// chunks finish — deterministic no matter which worker hit it first.
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t, size_t)>& body);

 private:
  struct Job;

  void WorkerLoop();
  void RunChunks(Job* job);
  static void RunInline(size_t n,
                        const std::function<void(size_t, size_t)>& body);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait here for a job
  std::condition_variable done_cv_;   // the submitter waits here
  Job* job_ = nullptr;                // current job, guarded by mu_
  uint64_t job_generation_ = 0;
  bool shutdown_ = false;

  std::mutex submit_mu_;  // serializes concurrent ParallelFor submitters
};

/// Process-wide intra-cell parallelism knob (the `--intra_jobs` flag).
/// Composes with process-level `--jobs`: a grid sweep at `--jobs J
/// --intra_jobs T` runs up to J worker processes, each of which runs its
/// hot loops on T threads (total parallelism J x T). Values below 1 clamp
/// to 1. Changing the value does not resize an already-running pool; the
/// next GlobalThreadPool() call after a change rebuilds it.
void SetIntraJobs(int n);
int IntraJobs();

/// Registers --intra_jobs into `intra_jobs`, the value to pass SetIntraJobs.
void RegisterIntraJobsFlag(FlagSet* flags, int* intra_jobs);

/// The lazily-created process-wide pool sized to IntraJobs(). Fork-safe:
/// a forked child (the supervised grid executor's workers) abandons the
/// parent's pool object — worker threads do not survive fork(2) — and
/// lazily rebuilds a fresh pool of its own on first use.
ThreadPool& GlobalThreadPool();

/// ParallelFor on the global pool with Status-returning bodies: runs
/// body(begin, end) over chunks and returns OK only if every chunk did.
/// On failure the error from the lowest-indexed failing chunk is returned
/// (deterministic across worker counts and schedules). Results must be
/// written by index into caller-presized storage.
Status ParallelForChunks(size_t n, size_t grain,
                         const std::function<Status(size_t, size_t)>& body);

/// True while the current thread is executing inside a ParallelFor body —
/// the condition under which further ParallelFor calls run inline.
bool InParallelRegion();

}  // namespace fairem

#endif  // FAIREM_UTIL_THREAD_POOL_H_
