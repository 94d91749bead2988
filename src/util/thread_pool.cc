#include "src/util/thread_pool.h"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>

#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/util/flags.h"
#include "src/util/logging.h"

// The global pool is leaked by design (see AbandonPoolInForkedChild);
// tell LeakSanitizer so, instead of failing the ASan suite on it.
#if defined(__SANITIZE_ADDRESS__)
#define FAIREM_POOL_HAS_LSAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FAIREM_POOL_HAS_LSAN 1
#endif
#endif
#ifdef FAIREM_POOL_HAS_LSAN
#include <sanitizer/lsan_interface.h>
#endif

namespace fairem {
namespace {

using Clock = std::chrono::steady_clock;

/// Set while the current thread runs a ParallelFor body (worker or
/// participating caller); nested ParallelFor calls check it to fall back
/// to inline execution instead of deadlocking on the pool.
thread_local bool t_in_parallel_region = false;

Counter* PoolTasksCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter("fairem.pool.tasks");
  return c;
}

Counter* PoolJobsCounter() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("fairem.pool.parallel_fors");
  return c;
}

Counter* PoolNestedCounter() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("fairem.pool.nested_inline_calls");
  return c;
}

Histogram* QueueWaitHistogram() {
  static Histogram* h = MetricsRegistry::Global().GetHistogram(
      "fairem.pool.queue_wait_seconds",
      {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0});
  return h;
}

}  // namespace

struct ThreadPool::Job {
  size_t n = 0;
  size_t grain = 1;
  const std::function<void(size_t, size_t)>* body = nullptr;
  Clock::time_point submit_time;

  std::atomic<size_t> next{0};     // next chunk start index
  std::atomic<int> in_flight{0};   // threads currently inside RunChunks

  // First error by chunk order, not by wall-clock order, so the exception
  // the caller sees does not depend on thread scheduling.
  std::mutex err_mu;
  std::exception_ptr first_error;
  size_t first_error_chunk = 0;
  bool has_error = false;
};

ThreadPool::ThreadPool(int num_threads) {
  int spawn = std::max(0, num_threads - 1);
  workers_.reserve(static_cast<size_t>(spawn));
  for (int i = 0; i < spawn; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
  MetricsRegistry::Global()
      .GetGauge("fairem.pool.workers")
      ->Set(static_cast<double>(spawn));
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::RunInline(size_t n,
                           const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  bool was_in_region = t_in_parallel_region;
  t_in_parallel_region = true;
  try {
    body(0, n);
  } catch (...) {
    t_in_parallel_region = was_in_region;
    throw;
  }
  t_in_parallel_region = was_in_region;
}

void ThreadPool::RunChunks(Job* job) {
  bool first_chunk = true;
  for (;;) {
    size_t begin = job->next.fetch_add(job->grain, std::memory_order_relaxed);
    if (begin >= job->n) break;
    size_t end = std::min(begin + job->grain, job->n);
    if (first_chunk) {
      double wait = std::chrono::duration<double>(Clock::now() -
                                                  job->submit_time)
                        .count();
      QueueWaitHistogram()->Observe(wait);
      first_chunk = false;
    }
    PoolTasksCounter()->Increment();
    try {
      (*job->body)(begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job->err_mu);
      if (!job->has_error || begin < job->first_error_chunk) {
        job->first_error = std::current_exception();
        job->first_error_chunk = begin;
        job->has_error = true;
      }
    }
  }
}

void ThreadPool::WorkerLoop() {
  // Stack bounds for the sampling profiler's frame-pointer walk — without
  // them a SIGPROF landing on a pool thread records only the leaf PC.
  Profiler::RegisterCurrentThread();
  uint64_t seen_generation = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&]() {
        return shutdown_ || (job_ != nullptr && job_generation_ != seen_generation);
      });
      if (shutdown_) return;
      job = job_;
      seen_generation = job_generation_;
      job->in_flight.fetch_add(1, std::memory_order_acq_rel);
    }
    t_in_parallel_region = true;
    RunChunks(job);
    t_in_parallel_region = false;
    bool last = job->in_flight.fetch_sub(1, std::memory_order_acq_rel) == 1;
    if (last) {
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n, size_t grain,
                             const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  PoolJobsCounter()->Increment();
  // Sequential fallback: an effectively single-threaded pool, a nested
  // call from inside a parallel region, or a range too small to split.
  size_t threads = workers_.size() + 1;
  if (grain == 0) {
    grain = std::max<size_t>(1, n / (threads * 4));
  }
  if (t_in_parallel_region) {
    PoolNestedCounter()->Increment();
    RunInline(n, body);
    return;
  }
  if (workers_.empty() || n <= grain) {
    RunInline(n, body);
    return;
  }

  Job job;
  job.n = n;
  job.grain = grain;
  job.body = &body;
  job.submit_time = Clock::now();

  // One job at a time: concurrent external submitters queue up here (the
  // second submitter's chunks run after the first job drains).
  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
    ++job_generation_;
  }
  work_cv_.notify_all();

  // The caller participates instead of blocking idle.
  t_in_parallel_region = true;
  RunChunks(&job);
  t_in_parallel_region = false;

  {
    std::unique_lock<std::mutex> lock(mu_);
    job_ = nullptr;  // late-waking workers must not pick the dead job up
    done_cv_.wait(lock, [&]() {
      return job.in_flight.load(std::memory_order_acquire) == 0;
    });
  }
  if (job.has_error) std::rethrow_exception(job.first_error);
}

namespace {

std::atomic<int> g_intra_jobs{1};

// The global pool is intentionally leaked: worker threads idle on the
// condition variable until process exit, and never joining at static
// destruction time sidesteps shutdown-order hazards with the metrics
// registry. The pointer is atomic so a forked child can abandon the
// parent's pool (whose threads do not exist in the child) and lazily
// rebuild its own.
std::atomic<ThreadPool*> g_pool{nullptr};
std::mutex g_pool_mu;
std::atomic<int> g_pool_size{0};

void AbandonPoolInForkedChild() {
  // Deliberately leak the old object: its mutexes may be held by threads
  // that vanished in the fork, so destroying (or touching) it could
  // deadlock. A fresh pool is built on next use.
  g_pool.store(nullptr, std::memory_order_release);
  g_pool_size.store(0, std::memory_order_release);
  // g_pool_mu may have been held by a vanished thread only if the fork
  // happened concurrently with pool construction; the supervisor forks
  // from its single-threaded poll loop, so the lock is free here. Leave
  // it as-is rather than re-initializing non-trivially.
}

void RegisterForkHandlerOnce() {
  static bool registered = []() {
    pthread_atfork(nullptr, nullptr, &AbandonPoolInForkedChild);
    return true;
  }();
  (void)registered;
}

}  // namespace

void SetIntraJobs(int n) {
  g_intra_jobs.store(std::max(1, n), std::memory_order_relaxed);
}

int IntraJobs() { return g_intra_jobs.load(std::memory_order_relaxed); }

void RegisterIntraJobsFlag(FlagSet* flags, int* intra_jobs) {
  flags->Number("--intra_jobs", intra_jobs, "N", 1);
}

ThreadPool& GlobalThreadPool() {
  RegisterForkHandlerOnce();
  int want = IntraJobs();
  ThreadPool* pool = g_pool.load(std::memory_order_acquire);
  if (pool != nullptr && g_pool_size.load(std::memory_order_acquire) == want) {
    return *pool;
  }
  std::lock_guard<std::mutex> lock(g_pool_mu);
  pool = g_pool.load(std::memory_order_acquire);
  if (pool == nullptr || g_pool_size.load(std::memory_order_acquire) != want) {
    // Resizing leaks the previous pool's threads until exit; intra_jobs
    // changes once per process in practice (flag parse), so this is a
    // startup path, not a steady-state one.
    ThreadPool* fresh = new ThreadPool(want);
#ifdef FAIREM_POOL_HAS_LSAN
    __lsan_ignore_object(fresh);
#endif
    g_pool.store(fresh, std::memory_order_release);
    g_pool_size.store(want, std::memory_order_release);
    pool = fresh;
  }
  return *pool;
}

Status ParallelForChunks(size_t n, size_t grain,
                         const std::function<Status(size_t, size_t)>& body) {
  if (n == 0) return Status::OK();
  // First failing chunk by index order, so the returned Status is the same
  // whatever the schedule or worker count.
  std::mutex err_mu;
  bool has_error = false;
  size_t err_chunk = 0;
  Status first_error = Status::OK();
  GlobalThreadPool().ParallelFor(n, grain, [&](size_t begin, size_t end) {
    Status st = body(begin, end);
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(err_mu);
      if (!has_error || begin < err_chunk) {
        first_error = std::move(st);
        err_chunk = begin;
        has_error = true;
      }
    }
  });
  return first_error;
}

bool InParallelRegion() { return t_in_parallel_region; }

}  // namespace fairem
