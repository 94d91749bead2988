#include "src/robust/worker_process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <utility>

#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace.h"
#include "src/robust/failpoint.h"
#include "src/text/simd.h"
#include "src/util/io_util.h"
#include "src/util/string_util.h"

namespace fairem {
namespace {

bool ApplyWorkerLimits(const WorkerSpawnOptions& options) {
  if (options.max_rss_mb > 0) {
    rlimit lim;
    lim.rlim_cur = lim.rlim_max = static_cast<rlim_t>(options.max_rss_mb)
                                  << 20;
    if (::setrlimit(RLIMIT_AS, &lim) != 0) return false;
  }
  if (options.max_cpu_s > 0) {
    rlimit lim;
    lim.rlim_cur = lim.rlim_max = static_cast<rlim_t>(options.max_cpu_s);
    if (::setrlimit(RLIMIT_CPU, &lim) != 0) return false;
  }
  return true;
}

[[noreturn]] void RunChild(const std::function<Result<std::string>()>& body,
                           const WorkerSpawnOptions& options, int write_fd,
                           int read_fd) {
  // Own process group, so the watchdog can kill the worker and anything it
  // spawned in one shot, and terminal Ctrl-C reaches only the supervising
  // process (which shuts the fleet down cooperatively).
  ::setpgid(0, 0);
  ::signal(SIGINT, SIG_DFL);
  ::signal(SIGTERM, SIG_DFL);
#ifdef __linux__
  // If the parent itself is SIGKILLed, die with it — no orphans.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  ::close(read_fd);
  for (int fd : options.close_in_child) ::close(fd);
  if (!ApplyWorkerLimits(options)) std::_Exit(kWorkerExitProtocol);
  // fork() cleared the interval timer; re-arm so this worker samples its
  // own work, into a buffer reset of the parent's samples, with its stacks
  // rooted at process:worker_<pid>.
  const bool profiling = Profiler::Global().active();
  if (profiling) {
    (void)Profiler::Global().RestartAfterFork("worker_" +
                                              std::to_string(::getpid()));
  }
  if (options.failpoint_reseed != 0) {
    // Probabilistic failpoints draw fresh per respawn (and per sibling), so
    // an injected transient crash behaves like a transient real one.
    FailpointRegistry::Global().ReseedStreams(options.failpoint_reseed);
  }
  // The fork copied the parent's metric values and trace buffer; the
  // baseline lets the worker ship only what the body itself adds.
  FlushSimdTelemetry();
  const MetricsSnapshot telemetry_baseline =
      MetricsRegistry::Global().Snapshot();
  const size_t span_watermark = Tracer::Global().EventCount();
  // noexcept barrier: an exception escaping the body (e.g. bad_alloc under
  // RLIMIT_AS) must terminate HERE as a contained crash — if it unwound
  // further it would re-enter the forked copy of the caller's stack (worst
  // case: a test harness's catch block resumes running the caller's code
  // in the child).
  Result<std::string> result = [&]() noexcept { return body(); }();
  const int exit_code = result.ok() ? kWorkerExitOk : kWorkerExitTaskError;
  const std::string payload = result.ok()
                                  ? std::move(result).value()
                                  : EncodeShippedStatus(result.status());
  // Samples must land in the metrics registry before the snapshot below
  // diffs it, so the per-stage counters ship with the delta.
  std::string folded;
  if (profiling) {
    (void)Profiler::Global().Stop();
    Profiler::Global().ExportMetrics();
    folded = Profiler::Global().Collect().ToText();
  }
  WorkerTelemetry telemetry;
  telemetry.task_key = options.task_key;
  telemetry.attempt = options.attempt;
  telemetry.pid = static_cast<int64_t>(::getpid());
  // Kernel tallies batched on this thread must fold in before the diff,
  // or the tail of the batch would vanish with the worker.
  FlushSimdTelemetry();
  telemetry.metrics =
      DiffSnapshots(telemetry_baseline, MetricsRegistry::Global().Snapshot());
  telemetry.spans = Tracer::Global().EventsSince(span_watermark);
  // Sidecars before the pipe: if the writes below never complete the
  // parent can still sweep the files up. Best effort — a worker that
  // cannot write them still ships on the pipe.
  if (!options.telemetry_dir.empty()) {
    (void)WriteTelemetrySidecar(options.telemetry_dir, telemetry);
  }
  std::vector<TelemetryFrame> frames;
  frames.push_back({kFrameTelemetry, SerializeWorkerTelemetry(telemetry)});
  if (!folded.empty()) {
    if (!options.telemetry_dir.empty()) {
      (void)WriteProfileSidecar(options.telemetry_dir, options.task_key,
                                options.attempt, folded);
    }
    frames.push_back({kFrameProfile, std::move(folded)});
  }
  const std::string wire = EncodeTelemetryWire(frames, payload);
  if (!WriteFull(write_fd, wire).ok()) std::_Exit(kWorkerExitProtocol);
  ::close(write_fd);
  // Injection site for shipped-then-crashed workers: with a crash action
  // armed here the parent sees the full wire AND a sidecar AND a crash
  // exit — the double-delivery dedup's worst case.
  if (!options.ship_failpoint.empty()) {
    (void)CheckFailpoint(options.ship_failpoint);
  }
  // _Exit: no atexit hooks — the parent owns metrics/trace files.
  std::_Exit(exit_code);
}

}  // namespace

std::string EncodeShippedStatus(const Status& status) {
  return std::to_string(static_cast<int>(status.code())) + "\n" +
         status.message();
}

Status ParseShippedStatus(const std::string& wire) {
  size_t nl = wire.find('\n');
  double code_value = 0.0;
  if (nl == std::string::npos ||
      !ParseDouble(std::string_view(wire).substr(0, nl), &code_value) ||
      code_value < 1.0 ||
      code_value > static_cast<double>(StatusCode::kDeadlineExceeded)) {
    return Status::Internal("worker shipped malformed status: " +
                            wire.substr(0, 128));
  }
  return Status(static_cast<StatusCode>(static_cast<int>(code_value)),
                wire.substr(nl + 1));
}

WorkerProcess::WorkerProcess(WorkerProcess&& other) noexcept {
  *this = std::move(other);
}

WorkerProcess& WorkerProcess::operator=(WorkerProcess&& other) noexcept {
  if (this != &other) {
    if (pipe_fd_ >= 0) ::close(pipe_fd_);
    pid_ = std::exchange(other.pid_, -1);
    pipe_fd_ = std::exchange(other.pipe_fd_, -1);
    received_ = std::move(other.received_);
    options_ = std::move(other.options_);
    start_ = other.start_;
    spawn_unix_us_ = other.spawn_unix_us_;
  }
  return *this;
}

WorkerProcess::~WorkerProcess() {
  if (pipe_fd_ >= 0) ::close(pipe_fd_);
}

Result<WorkerProcess> WorkerProcess::Spawn(
    const std::function<Result<std::string>()>& body,
    const WorkerSpawnOptions& options) {
  int fds[2];
  if (::pipe(fds) != 0) {
    return Status::IOError(std::string("pipe failed: ") +
                           std::strerror(errno));
  }
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Status::IOError(std::string("fork failed: ") +
                           std::strerror(errno));
  }
  if (pid == 0) RunChild(body, options, fds[1], fds[0]);
  // ----- parent -----
  ::setpgid(pid, pid);  // mirror the child's setpgid to close the race
  ::close(fds[1]);
  int fd_flags = ::fcntl(fds[0], F_GETFL, 0);
  ::fcntl(fds[0], F_SETFL, fd_flags | O_NONBLOCK);
  WorkerProcess worker;
  worker.pid_ = pid;
  worker.pipe_fd_ = fds[0];
  worker.options_ = options;
  worker.start_ = std::chrono::steady_clock::now();
  worker.spawn_unix_us_ = UnixMicrosNow();
  return worker;
}

void WorkerProcess::Drain() {
  if (pipe_fd_ < 0) return;
  char buf[4096];
  for (;;) {
    ssize_t n = ::read(pipe_fd_, buf, sizeof(buf));
    if (n > 0) {
      received_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EOF or EAGAIN
  }
}

bool WorkerProcess::TryReap(int* status, rusage* usage) {
  if (pid_ <= 0) return false;
  std::memset(usage, 0, sizeof(*usage));
  pid_t reaped = ::wait4(pid_, status, WNOHANG, usage);
  if (reaped != pid_) return false;
  Drain();  // bytes written between the last drain and exit
  if (pipe_fd_ >= 0) {
    ::close(pipe_fd_);
    pipe_fd_ = -1;
  }
  pid_ = -1;
  return true;
}

WorkerResult WorkerProcess::TakeResult(int wait_status) {
  // A worker killed mid-ship leaves a truncated frame, which degrades to
  // "no telemetry"; ParseTelemetryWire skips frame types it does not know.
  TelemetryWireParse wire = ParseTelemetryWire(received_);
  received_.clear();
  const TelemetryFrame* tele = nullptr;
  const TelemetryFrame* prof = nullptr;
  for (const TelemetryFrame& frame : wire.frames) {
    if (frame.type == kFrameTelemetry && tele == nullptr) tele = &frame;
    if (frame.type == kFrameProfile && prof == nullptr) prof = &frame;
  }
  bool telemetry_seen = false;
  if (tele != nullptr) {
    Result<WorkerTelemetry> telemetry = ParseWorkerTelemetry(tele->bytes);
    if (telemetry.ok()) {
      telemetry_seen = true;
      AbsorbWorkerTelemetry(*telemetry);
    } else {
      FAIREM_LOG(WARN) << "worker telemetry unparseable, trying sidecar"
                       << LogKv("key", options_.task_key)
                       << LogKv("status", telemetry.status().ToString());
    }
  }
  // fairem.profile.* counters register on first use: a profiler-off run
  // ships no PROF frame and must not grow a profile metric.
  auto absorb_profile = [](const std::string& folded, const char* counter) {
    Profiler::Global().AbsorbFolded(folded);
    MetricsRegistry::Global().GetCounter(counter)->Increment();
  };
  if (prof != nullptr) {
    absorb_profile(prof->bytes, "fairem.profile.profiles_merged");
  }
  const std::string& dir = options_.telemetry_dir;
  if (!dir.empty()) {
    // The crash/timeout path: sweep up whichever copy the pipe never
    // delivered, then delete both files.
    static Counter* sidecars_swept = MetricsRegistry::Global().GetCounter(
        "fairem.telemetry.sidecars_swept");
    const std::string sidecar =
        TelemetrySidecarPath(dir, options_.task_key, options_.attempt);
    if (!telemetry_seen) {
      Result<WorkerTelemetry> telemetry = LoadTelemetrySidecarFile(sidecar);
      if (telemetry.ok()) {
        AbsorbWorkerTelemetry(*telemetry);
        sidecars_swept->Increment();
      }
    }
    const std::string profile_sidecar =
        ProfileSidecarPath(dir, options_.task_key, options_.attempt);
    if (prof == nullptr) {
      // Only a worker that sampled writes one, so a missing file just means
      // profiling was off or the worker died before its first flush.
      Result<std::string> folded = LoadProfileSidecarFile(profile_sidecar);
      if (folded.ok() && !folded->empty()) {
        absorb_profile(*folded, "fairem.profile.sidecars_swept");
      }
    }
    std::error_code ec;
    std::filesystem::remove(sidecar, ec);
    std::filesystem::remove(profile_sidecar, ec);
  }
  WorkerResult result;
  const int code = WIFEXITED(wait_status) ? WEXITSTATUS(wait_status) : -1;
  if (code == kWorkerExitOk) {
    result.kind = WorkerResult::Kind::kOk;
    result.payload = std::move(wire.payload);
  } else if (code == kWorkerExitTaskError) {
    result.kind = WorkerResult::Kind::kTaskError;
    result.status = ParseShippedStatus(wire.payload);
  } else {
    result.exit_code = code;
    result.signal = WIFSIGNALED(wait_status) ? WTERMSIG(wait_status) : 0;
  }
  return result;
}

void WorkerProcess::Kill() {
  if (pid_ <= 0) return;
  ::kill(-pid_, SIGKILL);
  ::kill(pid_, SIGKILL);
}

void WorkerProcess::KillAndReap() {
  if (pid_ <= 0) return;
  Kill();
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  if (pipe_fd_ >= 0) {
    ::close(pipe_fd_);
    pipe_fd_ = -1;
  }
}

double WorkerProcess::AgeSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

}  // namespace fairem
