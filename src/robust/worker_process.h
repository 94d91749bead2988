#ifndef FAIREM_ROBUST_WORKER_PROCESS_H_
#define FAIREM_ROBUST_WORKER_PROCESS_H_

#include <sys/resource.h>
#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/util/result.h"

namespace fairem {

// One crash-isolated worker child and its parent-side handle. This is the
// fork/pipe/rlimit/telemetry-ship machinery shared by the batch Supervisor
// (grid sweeps) and the serve daemon (per-query workers): the child runs a
// closure, ships its Result<std::string> back over a pipe behind FEMTEL1
// telemetry frames, and exits through the exit-code protocol below. The
// parent polls the handle without blocking, so one loop can watch many
// workers plus unrelated fds (sockets, timers), and reads each reaped
// worker back with TakeResult.

/// Worker exit codes (the parent <-> worker protocol). Anything else —
/// including a signal death — is treated as a crash.
///
///   kWorkerExitOk        the body returned OK; the pipe carries its payload
///   kWorkerExitTaskError the body returned a Status; the pipe carries
///                        EncodeShippedStatus ("<code int>\n<message>")
///   kWorkerExitProtocol  the worker could not set itself up or ship its
///                        result (pipe write failure, rlimit setup failure)
inline constexpr int kWorkerExitOk = 0;
inline constexpr int kWorkerExitTaskError = 3;
inline constexpr int kWorkerExitProtocol = 4;

/// Serializes an error Status for the pipe: "<code int>\n<message>".
std::string EncodeShippedStatus(const Status& status);

/// Reconstructs the Status a worker shipped with EncodeShippedStatus.
/// Malformed bytes (a crashed worker's partial write) become kInternal.
Status ParseShippedStatus(const std::string& wire);

struct WorkerSpawnOptions {
  /// Identifies the work in logs, telemetry, and sidecar filenames.
  std::string task_key;
  /// 1-based spawn attempt, recorded in shipped telemetry.
  int attempt = 1;
  /// RLIMIT_AS cap in MiB; an over-budget worker fails allocation and dies
  /// as a contained crash. 0 disables.
  int max_rss_mb = 0;
  /// RLIMIT_CPU cap in seconds (kernel backstop for spin hangs). 0 disables.
  int max_cpu_s = 0;
  /// Directory for durable telemetry sidecars (the crash path's copy of
  /// the metrics delta, spans, and profile the worker ships on the pipe).
  /// Empty means pipe-only shipping, no sidecar files.
  std::string telemetry_dir;
  /// When nonzero, the child reseeds probabilistic failpoint streams with
  /// this value, so respawns (and sibling workers) draw independently.
  uint64_t failpoint_reseed = 0;
  /// Failpoint site checked in the child after shipping, before _Exit —
  /// the injection point for shipped-then-crashed workers. Empty disables.
  std::string ship_failpoint;
  /// Parent-owned fds the child must close (sibling pipes, listening
  /// sockets, client connections). The child also closes its own read end.
  std::vector<int> close_in_child;
};

/// A reaped worker's outcome, as WorkerProcess::TakeResult reads it.
struct WorkerResult {
  enum class Kind {
    kOk,         // exited kWorkerExitOk: `payload` is what the body returned
    kTaskError,  // exited kWorkerExitTaskError: `status` is the body's error
    kCrash,      // any other exit, or a signal
  };
  Kind kind = Kind::kCrash;
  std::string payload;
  Status status = Status::OK();
  /// kCrash: the exit code, or -1 when a signal ended the worker.
  int exit_code = -1;
  /// kCrash: the terminating signal, or 0.
  int signal = 0;
};

class WorkerProcess {
 public:
  WorkerProcess() = default;
  WorkerProcess(WorkerProcess&& other) noexcept;
  WorkerProcess& operator=(WorkerProcess&& other) noexcept;
  WorkerProcess(const WorkerProcess&) = delete;
  WorkerProcess& operator=(const WorkerProcess&) = delete;
  /// Closes the pipe fd. Does NOT kill or reap — an abandoning caller must
  /// KillAndReap() explicitly (silent reaping here would hide leaks).
  ~WorkerProcess();

  /// Forks a child that runs `body` and ships its result. In the child:
  /// own process group (one-shot group kill), default signal handlers,
  /// parent-death SIGKILL, rlimits, optional profiler restart and failpoint
  /// reseed, a noexcept barrier around `body`, then _Exit — the child never
  /// returns to the caller's code, so no atexit hooks fire and parent-side
  /// state is never clobbered. In the parent: the pipe's read end is
  /// nonblocking for poll-loop supervision.
  static Result<WorkerProcess> Spawn(
      const std::function<Result<std::string>()>& body,
      const WorkerSpawnOptions& options);

  /// Appends whatever the pipe currently holds to the received bytes;
  /// never blocks.
  void Drain();

  /// wait4(WNOHANG). On reap: drains the final bytes, closes the pipe,
  /// fills *status / *usage, and returns true. The handle then reports
  /// valid() == false for Kill/Drain purposes but keeps what it received,
  /// for TakeResult.
  bool TryReap(int* status, rusage* usage);

  /// The parent-side mirror of the child's ship, called once after TryReap
  /// with its `wait_status`: classifies the exit and strips the FEMTEL1
  /// frames off the payload. It first absorbs the attempt's telemetry into
  /// this process exactly once: the TELE frame or else the telemetry
  /// sidecar (metrics and spans), the PROF frame or else the profile
  /// sidecar (Profiler::AbsorbFolded). Both sidecars are then deleted.
  WorkerResult TakeResult(int wait_status);

  /// SIGKILLs the worker's whole process group (and the worker itself, in
  /// case it died before its setpgid took effect).
  void Kill();

  /// Kill() then blocking waitpid + pipe close: the abandon path.
  void KillAndReap();

  /// Wall-clock seconds since the spawn.
  double AgeSeconds() const;

  /// Unix microseconds at Spawn time — the start timestamp for worker
  /// spans (DESIGN.md §16), so fork+compute cost lands on the worker's
  /// own track in a merged trace. 0 for a default-constructed handle.
  int64_t spawn_unix_us() const { return spawn_unix_us_; }

  bool valid() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }
  /// Parent's nonblocking read end; -1 once reaped. Poll it for readability
  /// as a cheap "worker wrote or exited" wakeup.
  int pipe_fd() const { return pipe_fd_; }

 private:
  pid_t pid_ = -1;
  int pipe_fd_ = -1;
  std::string received_;
  WorkerSpawnOptions options_;  // names this attempt's sidecars
  std::chrono::steady_clock::time_point start_;
  int64_t spawn_unix_us_ = 0;
};

}  // namespace fairem

#endif  // FAIREM_ROBUST_WORKER_PROCESS_H_
