#ifndef FAIREM_ROBUST_SUPERVISOR_H_
#define FAIREM_ROBUST_SUPERVISOR_H_

#include <functional>
#include <string>
#include <vector>

#include "src/obs/telemetry.h"
#include "src/robust/worker_process.h"
#include "src/util/result.h"

namespace fairem {

// Process-isolated task executor for the batch audit: each task runs in a
// forked worker child so a crash, OOM, or hang in one grid cell cannot take
// down the sweep. The parent supervises with a wall-clock watchdog
// (SIGKILL at the deadline), per-worker rlimits (RLIMIT_AS / RLIMIT_CPU),
// and a respawn budget; results travel back over a pipe (plus whatever the
// worker persisted, e.g. a cell checkpoint). The fork/pipe/exit-code
// machinery itself lives in src/robust/worker_process (shared with the
// serve daemon). See DESIGN.md §10 for the worker lifecycle.

struct SupervisorOptions {
  /// Max concurrent worker processes; 1 still forks (isolation without
  /// parallelism). Clamped to >= 1.
  int jobs = 1;
  /// Wall-clock deadline per spawn attempt; the worker's process group is
  /// SIGKILLed when it is exceeded. 0 disables the watchdog.
  double cell_timeout_s = 0.0;
  /// RLIMIT_AS cap per worker in MiB (address space, the portable stand-in
  /// for an RSS cap); an over-budget worker fails allocation and dies, which
  /// the supervisor contains like any crash. 0 disables.
  int cell_max_rss_mb = 0;
  /// Spawn attempts per task including the first, mirroring
  /// RetryPolicy::max_attempts. Crashes and timeouts always respawn;
  /// task-level errors respawn only when IsRetryableStatus holds.
  int max_attempts = 3;
  /// Directory for the telemetry sidecar files that back up what each
  /// worker ships on the pipe (its metrics delta, spans, and profile), so
  /// merged parent metrics for a --jobs N run equal the sequential run's
  /// even when a worker dies mid-ship (DESIGN.md §11). Empty means a
  /// private directory under the system temp dir, created for the run and
  /// removed afterwards.
  std::string telemetry_dir;
  /// Invoked from the poll loop (single-threaded, possibly many times per
  /// second) after every state change; wire a ProgressReporter here for the
  /// live progress line. last_cell_seconds is >= 0 exactly once per settled
  /// worker.
  std::function<void(const ProgressSnapshot&)> on_progress;
};

/// What happened to one task after all spawn attempts.
struct TaskOutcome {
  enum class Kind {
    kOk,        // payload holds the worker's result
    kFailed,    // the task itself returned an error Status (shipped back)
    kCrashed,   // the worker died (signal, _Exit, OOM under rlimit)
    kTimedOut,  // the watchdog killed the worker at the deadline
    kCancelled, // shutdown was requested before the task finished
  };
  Kind kind = Kind::kCancelled;
  std::string payload;   // valid when kind == kOk
  Status status = Status::OK();  // failure detail otherwise
  int attempts = 0;      // spawn attempts consumed
  int exit_status = 0;   // raw waitpid status of the last attempt
  double wall_seconds = 0.0;  // wall time of the last attempt
  double peak_rss_mb = 0.0;   // ru_maxrss of the last attempt
};

const char* TaskOutcomeKindName(TaskOutcome::Kind kind);

/// Cooperative SIGINT/SIGTERM shutdown. Installing the guard (re)arms the
/// handlers and clears any previously latched signal; destruction restores
/// the prior handlers. The supervisor polls requested() and, when set,
/// kills and reaps every worker before returning Cancelled — no orphan
/// processes, no half-written state. Sequential grid runs poll it between
/// cells for the same clean exit.
class ShutdownGuard {
 public:
  ShutdownGuard();
  ~ShutdownGuard();
  ShutdownGuard(const ShutdownGuard&) = delete;
  ShutdownGuard& operator=(const ShutdownGuard&) = delete;

  static bool requested();
  /// The latched signal number (SIGINT/SIGTERM), or 0.
  static int signal_number();

 private:
  void* saved_int_;   // struct sigaction*, opaque to keep <csignal> out
  void* saved_term_;
};

/// The conventional exit code for a run stopped by `sig` (128 + signal,
/// e.g. 130 for SIGINT) — what a shell reports for a signal death, but
/// reached here through a clean flush-everything shutdown.
int InterruptExitCode(int sig);

/// Runs tasks in forked worker children, at most `options.jobs` at a time,
/// respawning per the retry budget. Outcomes are returned in task order
/// regardless of completion order. Metrics land under fairem.supervisor.*;
/// per-worker wall seconds, peak RSS, and exit status are logged at INFO.
///
/// Returns Cancelled when a ShutdownGuard signal arrives mid-run (workers
/// are killed and reaped first), IOError if workers cannot be spawned at
/// all. Individual task failures never fail the call — they are reported in
/// the per-task outcome.
class Supervisor {
 public:
  struct Task {
    /// Identifies the task in logs and metrics.
    std::string key;
    /// Runs in the forked child. On OK the returned string is shipped to
    /// the parent over the pipe (kept small-ish: it is buffered in memory
    /// on both sides). The child never returns to the caller's code after
    /// `run` — it exits via _Exit, so no atexit hooks fire and parent-side
    /// state (metrics files, trace buffers) is never clobbered.
    std::function<Result<std::string>()> run;
  };

  explicit Supervisor(SupervisorOptions options);

  Result<std::vector<TaskOutcome>> Run(const std::vector<Task>& tasks);

 private:
  SupervisorOptions options_;
};

}  // namespace fairem

#endif  // FAIREM_ROBUST_SUPERVISOR_H_
