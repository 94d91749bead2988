#include "src/robust/supervisor.h"

#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <thread>
#include <utility>

#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/robust/retry.h"
#include "src/robust/worker_process.h"
#include "src/util/string_util.h"

namespace fairem {
namespace {

std::atomic<int> g_shutdown_signal{0};

void OnShutdownSignal(int sig) {
  // Only the lock-free store: everything else waits for the poll loop.
  g_shutdown_signal.store(sig, std::memory_order_relaxed);
}

/// A worker child currently being supervised.
struct RunningWorker {
  size_t task_index = 0;
  WorkerProcess proc;
  bool timed_out = false;
};

}  // namespace

const char* TaskOutcomeKindName(TaskOutcome::Kind kind) {
  switch (kind) {
    case TaskOutcome::Kind::kOk:
      return "ok";
    case TaskOutcome::Kind::kFailed:
      return "failed";
    case TaskOutcome::Kind::kCrashed:
      return "crashed";
    case TaskOutcome::Kind::kTimedOut:
      return "timed_out";
    case TaskOutcome::Kind::kCancelled:
      return "cancelled";
  }
  return "?";
}

ShutdownGuard::ShutdownGuard() {
  g_shutdown_signal.store(0, std::memory_order_relaxed);
  auto* saved_int = new struct sigaction;
  auto* saved_term = new struct sigaction;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnShutdownSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGINT, &sa, saved_int);
  ::sigaction(SIGTERM, &sa, saved_term);
  saved_int_ = saved_int;
  saved_term_ = saved_term;
}

ShutdownGuard::~ShutdownGuard() {
  ::sigaction(SIGINT, static_cast<struct sigaction*>(saved_int_), nullptr);
  ::sigaction(SIGTERM, static_cast<struct sigaction*>(saved_term_), nullptr);
  delete static_cast<struct sigaction*>(saved_int_);
  delete static_cast<struct sigaction*>(saved_term_);
}

bool ShutdownGuard::requested() {
  return g_shutdown_signal.load(std::memory_order_relaxed) != 0;
}

int ShutdownGuard::signal_number() {
  return g_shutdown_signal.load(std::memory_order_relaxed);
}

int InterruptExitCode(int sig) { return 128 + (sig > 0 ? sig : SIGINT); }

Supervisor::Supervisor(SupervisorOptions options) : options_(options) {
  if (options_.jobs < 1) options_.jobs = 1;
  if (options_.max_attempts < 1) options_.max_attempts = 1;
}

Result<std::vector<TaskOutcome>> Supervisor::Run(
    const std::vector<Task>& tasks) {
  static Counter* spawned = MetricsRegistry::Global().GetCounter(
      "fairem.supervisor.workers_spawned");
  static Counter* respawns =
      MetricsRegistry::Global().GetCounter("fairem.supervisor.respawns");
  static Counter* tasks_ok =
      MetricsRegistry::Global().GetCounter("fairem.supervisor.tasks_ok");
  static Counter* tasks_failed =
      MetricsRegistry::Global().GetCounter("fairem.supervisor.tasks_failed");
  static Counter* tasks_crashed =
      MetricsRegistry::Global().GetCounter("fairem.supervisor.tasks_crashed");
  static Counter* tasks_timed_out = MetricsRegistry::Global().GetCounter(
      "fairem.supervisor.tasks_timed_out");
  static Counter* watchdog_kills = MetricsRegistry::Global().GetCounter(
      "fairem.supervisor.watchdog_kills");
  static Counter* shutdowns =
      MetricsRegistry::Global().GetCounter("fairem.supervisor.shutdowns");
  static Histogram* wall_hist = MetricsRegistry::Global().GetHistogram(
      "fairem.supervisor.task_wall_seconds");
  static Gauge* max_rss = MetricsRegistry::Global().GetGauge(
      "fairem.supervisor.max_peak_rss_mb");

  std::vector<TaskOutcome> outcomes(tasks.size());
  std::vector<int> attempts(tasks.size(), 0);
  std::deque<size_t> pending;
  for (size_t i = 0; i < tasks.size(); ++i) pending.push_back(i);
  std::vector<RunningWorker> running;

  // Sidecar directory: resolved pre-fork so parent and children agree. An
  // auto-created one lives only for this Run.
  std::string telemetry_dir = options_.telemetry_dir;
  bool telemetry_dir_owned = false;
  if (telemetry_dir.empty()) {
    telemetry_dir = (std::filesystem::temp_directory_path() /
                     ("fairem-telemetry-" + std::to_string(::getpid())))
                        .string();
    telemetry_dir_owned = true;
  }
  auto cleanup_telemetry_dir = [&]() {
    if (!telemetry_dir_owned) return;
    std::error_code ec;
    std::filesystem::remove_all(telemetry_dir, ec);
  };

  size_t done_count = 0;
  size_t failed_count = 0;
  auto report_progress = [&](double last_cell_seconds) {
    if (!options_.on_progress) return;
    ProgressSnapshot snap;
    snap.total = tasks.size();
    snap.done = done_count;
    snap.running = running.size();
    size_t retrying = 0;
    for (size_t idx : pending) {
      if (attempts[idx] > 0) ++retrying;
    }
    snap.retrying = retrying;
    snap.failed = failed_count;
    snap.last_cell_seconds = last_cell_seconds;
    options_.on_progress(snap);
  };

  auto reap_everything = [&]() {
    for (RunningWorker& worker : running) worker.proc.KillAndReap();
    running.clear();
  };

  auto spawn = [&](size_t index) -> Status {
    ++attempts[index];
    const int attempt = attempts[index];
    WorkerSpawnOptions spawn_options;
    spawn_options.task_key = tasks[index].key;
    spawn_options.attempt = attempt;
    spawn_options.max_rss_mb = options_.cell_max_rss_mb;
    spawn_options.telemetry_dir = telemetry_dir;
    // Probabilistic failpoints draw fresh per respawn, so a transient
    // injected crash behaves like a transient real one. The first attempt
    // keeps the parent's streams for deterministic single-shot tests.
    spawn_options.failpoint_reseed =
        attempt > 1 ? static_cast<uint64_t>(attempt) : 0;
    spawn_options.ship_failpoint = "supervisor_ship";
    // Inherited read ends of sibling pipes are the parent's business.
    for (const RunningWorker& other : running) {
      spawn_options.close_in_child.push_back(other.proc.pipe_fd());
    }
    FAIREM_ASSIGN_OR_RETURN(
        WorkerProcess proc,
        WorkerProcess::Spawn(tasks[index].run, spawn_options));
    spawned->Increment();
    RunningWorker worker;
    worker.task_index = index;
    worker.proc = std::move(proc);
    FAIREM_LOG(DEBUG) << "worker spawned" << LogKv("key", tasks[index].key)
                      << LogKv("pid", worker.proc.pid())
                      << LogKv("attempt", attempt);
    running.push_back(std::move(worker));
    return Status::OK();
  };

  // Finalizes one reaped worker: records the outcome or queues a respawn.
  auto settle = [&](RunningWorker& worker, int status, const rusage& usage,
                    double wall_seconds) {
    const size_t index = worker.task_index;
    const std::string& key = tasks[index].key;
    WorkerResult result = worker.proc.TakeResult(status);
    TaskOutcome out;
    out.attempts = attempts[index];
    out.exit_status = status;
    out.wall_seconds = wall_seconds;
    out.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    bool respawnable = true;
    if (worker.timed_out) {
      out.kind = TaskOutcome::Kind::kTimedOut;
      out.status = Status::Internal(
          "worker for '" + key + "' exceeded its " +
          FormatDouble(options_.cell_timeout_s, 1) +
          "s wall deadline and was killed by the watchdog");
    } else if (result.kind == WorkerResult::Kind::kOk) {
      out.kind = TaskOutcome::Kind::kOk;
      out.payload = std::move(result.payload);
    } else if (result.kind == WorkerResult::Kind::kTaskError) {
      out.kind = TaskOutcome::Kind::kFailed;
      out.status = result.status;
      respawnable = IsRetryableStatus(out.status);
    } else {
      out.kind = TaskOutcome::Kind::kCrashed;
      out.status = Status::Internal(
          "worker for '" + key + "' " +
          (result.exit_code >= 0
               ? "exited with code " + std::to_string(result.exit_code)
               : "was killed by signal " + std::to_string(result.signal)));
    }
    wall_hist->Observe(out.wall_seconds);
    if (out.peak_rss_mb > max_rss->value()) max_rss->Set(out.peak_rss_mb);
    FAIREM_LOG(INFO) << "worker finished" << LogKv("key", key)
                     << LogKv("outcome", TaskOutcomeKindName(out.kind))
                     << LogKv("attempt", out.attempts)
                     << LogKv("wall_s", FormatDouble(out.wall_seconds, 3))
                     << LogKv("peak_rss_mb", FormatDouble(out.peak_rss_mb, 1))
                     << LogKv("exit_status", out.exit_status);
    if (out.kind != TaskOutcome::Kind::kOk && respawnable &&
        attempts[index] < options_.max_attempts) {
      respawns->Increment();
      FAIREM_LOG(WARN) << "respawning worker" << LogKv("key", key)
                       << LogKv("next_attempt", attempts[index] + 1)
                       << LogKv("status", out.status.ToString());
      pending.push_back(index);
      report_progress(out.wall_seconds);
      return;
    }
    switch (out.kind) {
      case TaskOutcome::Kind::kOk:
        tasks_ok->Increment();
        break;
      case TaskOutcome::Kind::kFailed:
        tasks_failed->Increment();
        break;
      case TaskOutcome::Kind::kCrashed:
        tasks_crashed->Increment();
        break;
      case TaskOutcome::Kind::kTimedOut:
        tasks_timed_out->Increment();
        break;
      case TaskOutcome::Kind::kCancelled:
        break;
    }
    ++done_count;
    if (out.kind != TaskOutcome::Kind::kOk) ++failed_count;
    outcomes[index] = std::move(out);
    report_progress(wall_seconds);
  };

  while (!pending.empty() || !running.empty()) {
    if (ShutdownGuard::requested()) {
      const int sig = ShutdownGuard::signal_number();
      FAIREM_LOG(WARN) << "shutdown requested, reaping workers"
                       << LogKv("signal", sig)
                       << LogKv("workers", running.size())
                       << LogKv("pending_tasks", pending.size());
      reap_everything();
      cleanup_telemetry_dir();
      shutdowns->Increment();
      return Status::Cancelled("supervised run interrupted by signal " +
                               std::to_string(sig));
    }
    while (static_cast<int>(running.size()) < options_.jobs &&
           !pending.empty()) {
      size_t index = pending.front();
      pending.pop_front();
      if (Status st = spawn(index); !st.ok()) {
        reap_everything();
        cleanup_telemetry_dir();
        return st;
      }
    }
    report_progress(-1.0);
    bool progressed = false;
    for (size_t wi = 0; wi < running.size();) {
      RunningWorker& worker = running[wi];
      worker.proc.Drain();
      const double age = worker.proc.AgeSeconds();
      int status = 0;
      rusage usage;
      if (worker.proc.TryReap(&status, &usage)) {
        // Remove before settling so progress callbacks see an accurate
        // running count.
        RunningWorker finished = std::move(worker);
        running.erase(running.begin() + static_cast<long>(wi));
        settle(finished, status, usage, age);
        progressed = true;
        continue;
      }
      if (!worker.timed_out && options_.cell_timeout_s > 0.0 &&
          age > options_.cell_timeout_s) {
        worker.timed_out = true;
        watchdog_kills->Increment();
        FAIREM_LOG(WARN) << "watchdog deadline exceeded, killing worker"
                         << LogKv("key", tasks[worker.task_index].key)
                         << LogKv("pid", worker.proc.pid())
                         << LogKv("deadline_s",
                                  FormatDouble(options_.cell_timeout_s, 1));
        worker.proc.Kill();
      }
      ++wi;
    }
    if (!progressed && !running.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  cleanup_telemetry_dir();
  return outcomes;
}

}  // namespace fairem
