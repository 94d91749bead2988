#include "src/serve/server.h"

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/robust/supervisor.h"
#include "src/robust/worker_process.h"
#include "src/serve/daemon_core.h"
#include "src/serve/protocol.h"
#include "src/util/io_util.h"

namespace fairem {
namespace {

struct ServeMetrics {
  Counter* shed_queue_full;
  Counter* shed_draining;
  Counter* deadline_expired;
  Counter* worker_crashes;
  Counter* worker_respawns;
  Counter* cache_hits;
  Counter* cells_computed;
  Counter* health_probes;
  Counter* progress_frames;
  Gauge* queue_depth;
  Gauge* inflight;
  /// Finished cell compute durations — shared with ProgressReporter's ETA
  /// metric so batch runs and the daemon pool one duration model.
  Histogram* cell_seconds;

  static ServeMetrics Make() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    ServeMetrics m;
    m.shed_queue_full = reg.GetCounter("fairem.serve.shed_queue_full");
    m.shed_draining = reg.GetCounter("fairem.serve.shed_draining");
    m.deadline_expired = reg.GetCounter("fairem.serve.deadline_expired");
    m.worker_crashes = reg.GetCounter("fairem.serve.worker_crashes");
    m.worker_respawns = reg.GetCounter("fairem.serve.worker_respawns");
    m.cache_hits = reg.GetCounter("fairem.serve.cell_cache_hits");
    m.cells_computed = reg.GetCounter("fairem.serve.cells_computed");
    m.health_probes = reg.GetCounter("fairem.serve.health_probes");
    m.progress_frames = reg.GetCounter("fairem.serve.progress_frames");
    m.queue_depth = reg.GetGauge("fairem.serve.queue_depth");
    m.inflight = reg.GetGauge("fairem.serve.inflight");
    m.cell_seconds = reg.GetHistogram("fairem.progress.cell_seconds");
    return m;
  }
};

struct QueryJob : AdmittedQuery {
  MatcherKind matcher = MatcherKind::kDT;
  bool pairwise = false;
  const EMDataset* dataset = nullptr;
  int attempts = 0;
  bool timed_out = false;
  WorkerProcess proc;            // valid while in flight
  pid_t worker_pid = 0;          // survives the reap (proc.pid() is -1 then)
  double last_progress_s = 0.0;  // monotonic; rate-limits PROG frames
};

constexpr FrontIdentity kServeIdentity = {
    "daemon",       "fairem.serve",    "requests_total",
    "requests_ok",  "requests_failed", /*sheds_are_failures=*/true};

class ServeDaemon : public DaemonFront {
 public:
  explicit ServeDaemon(const ServeOptions& options)
      : DaemonFront(kServeIdentity, FrontSettings::From(options)),
        options_(options),
        metrics_(ServeMetrics::Make()) {}

  ~ServeDaemon() override {
    for (QueryJob& job : inflight_) job.proc.KillAndReap();
  }

 private:
  // --------------------------------------------------- front-end hooks --

  Status Warm() override {
    FAIREM_ASSIGN_OR_RETURN(warm_, WarmState::Warm(options_.warm));
    FAIREM_LOG(INFO) << "fairem serve ready"
                     << LogKv("socket", options_.socket_path)
                     << LogKv("datasets", warm_.num_datasets())
                     << LogKv("cells_preloaded", warm_.num_cached_cells());
    return Status::OK();
  }

  void BeforePoll(double now) override {
    ExpireQueuedJobs(now);
    Dispatch();
  }

  void AddPollFds(std::vector<pollfd>* fds) override {
    for (QueryJob& job : inflight_) {
      if (job.proc.pipe_fd() >= 0) {
        fds->push_back({job.proc.pipe_fd(), POLLIN, 0});
      }
    }
  }

  void AfterPoll() override {
    PumpWorkers();
    EmitProgress();
  }

  void FillHealth(HealthReport* reply) override {
    metrics_.health_probes->Increment();
    reply->serving = !draining();
    reply->queue_depth = static_cast<double>(queue_.size());
    reply->inflight = static_cast<double>(inflight_.size());
    reply->retry_after_s = CurrentRetryAfterS();
  }

  void HandleQuery(uint64_t conn_id, const QueryRequest& request) override {
    if (request.op != "cell") {
      QueryResponse response;
      response.id = request.id;
      response.status =
          Status::InvalidArgument("unknown op '" + request.op + "'");
      Respond(conn_id, response);
      return;
    }
    AdmitCellQuery(conn_id, request);
  }

  /// Queued-but-unstarted work is shed: retryable, the honest signal to go
  /// elsewhere. In-flight work finishes or deadlines out.
  void OnDrain() override {
    for (QueryJob& job : queue_) {
      metrics_.shed_draining->Increment();
      QueryResponse response;
      response.id = job.request.id;
      response.status = Status::Unavailable("draining; retry elsewhere");
      response.retry_after_s = options_.retry_after_s;
      FinishJob(job, response);
    }
    queue_.clear();
  }

  bool Busy() const override { return !inflight_.empty(); }

  void UpdateGauges() override {
    metrics_.queue_depth->Set(static_cast<double>(queue_.size()));
    metrics_.inflight->Set(static_cast<double>(inflight_.size()));
  }

  // ----------------------------------------------------------- admission --

  double CurrentRetryAfterS() const {
    return LoadAwareRetryAfterS(
        options_.retry_after_s, static_cast<int>(queue_.size()),
        options_.max_queue, static_cast<int>(inflight_.size()),
        options_.max_inflight);
  }

  void AdmitCellQuery(uint64_t conn_id, const QueryRequest& request) {
    const int64_t admit_unix_us =
        request.trace.valid() ? UnixMicrosNow() : 0;
    QueryResponse response;
    response.id = request.id;
    if (draining()) {
      metrics_.shed_draining->Increment();
      response.status = Status::Unavailable("draining; retry elsewhere");
      response.retry_after_s = options_.retry_after_s;
      AttachAdHocSpan(request, &response, "shed_draining", admit_unix_us);
      Respond(conn_id, response);
      return;
    }
    if (request.mode != "single" && request.mode != "pairwise") {
      response.status = Status::InvalidArgument("mode must be single|pairwise");
      Respond(conn_id, response);
      return;
    }
    Result<const EMDataset*> dataset = warm_.Dataset(request.dataset);
    if (!dataset.ok()) {
      response.status = dataset.status();
      Respond(conn_id, response);
      return;
    }
    Result<MatcherKind> matcher = ParseMatcherKind(request.matcher);
    if (!matcher.ok()) {
      response.status = matcher.status();
      Respond(conn_id, response);
      return;
    }
    const bool pairwise = request.mode == "pairwise";
    std::string key = AuditCellKey(request.dataset, *matcher, pairwise);
    if (const std::string* cached = warm_.CachedCell(key)) {
      metrics_.cache_hits->Increment();
      response.payload = *cached;
      AttachAdHocSpan(request, &response, "cache_hit", admit_unix_us);
      Respond(conn_id, response);
      return;
    }
    // Overload shedding: the queue is the bounded resource. Past the
    // bound the honest answer is an immediate retryable refusal, not an
    // ever-growing latency tail.
    //
    // Jobs admitted earlier in this loop pass start at the next dispatch
    // while a compute slot is free, so they are not waiting: only queued
    // jobs beyond the free slots count against max_queue. Otherwise a
    // burst read in one pass would be shed while a slot sits idle.
    const int free_slots = std::max(
        0, options_.max_inflight - static_cast<int>(inflight_.size()));
    if (static_cast<int>(queue_.size()) - free_slots >= options_.max_queue) {
      metrics_.shed_queue_full->Increment();
      response.status = Status::Unavailable("admission queue full");
      // Load-aware hint: the fuller the daemon, the longer clients should
      // stay away, so router backpressure converges instead of retrying a
      // saturated daemon at the base period.
      response.retry_after_s = CurrentRetryAfterS();
      AttachAdHocSpan(request, &response, "shed_queue_full", admit_unix_us);
      Respond(conn_id, response);
      return;
    }
    QueryJob job;
    Admit(&job, conn_id, request, std::move(key), admit_unix_us);
    job.matcher = *matcher;
    job.pairwise = pairwise;
    job.dataset = *dataset;
    // First PROG after one full interval.
    if (job.ctx.valid()) job.last_progress_s = job.admitted_s;
    queue_.push_back(std::move(job));
  }

  // ---------------------------------------------------------- scheduling --

  void ExpireQueuedJobs(double now) {
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (now < it->deadline_s) {
        ++it;
        continue;
      }
      metrics_.deadline_expired->Increment();
      QueryResponse response;
      response.id = it->request.id;
      response.status =
          Status::DeadlineExceeded("deadline expired while queued");
      FinishJob(*it, response);
      it = queue_.erase(it);
    }
  }

  /// A completed span on the daemon's own track, parented under the job's
  /// "daemon.request" hop span. `start_unix_us` is when it began; the end
  /// is now.
  static WireSpan DaemonSpan(const QueryJob& job, const char* name,
                             int64_t start_unix_us) {
    return MakeWireSpan(name, "daemon", NewSpanId(), job.request_span_id,
                        start_unix_us, UnixMicrosNow());
  }

  /// DaemonSpan on the worker's track, annotated with the attempt.
  static WireSpan WorkerSpan(const QueryJob& job, const char* name,
                             int64_t start_unix_us) {
    WireSpan span = DaemonSpan(job, name, start_unix_us);
    span.process = "worker";
    span.pid = static_cast<int64_t>(job.worker_pid);
    span.annotations.emplace_back("attempt", std::to_string(job.attempts));
    return span;
  }

  void Dispatch() {
    while (static_cast<int>(inflight_.size()) < options_.max_inflight &&
           !queue_.empty()) {
      QueryJob job = std::move(queue_.front());
      queue_.pop_front();
      if (job.ctx.valid()) {
        job.spans.push_back(
            DaemonSpan(job, "daemon.queue", job.admitted_unix_us));
      }
      Status started = StartJob(&job);
      if (!started.ok()) {
        QueryResponse response;
        response.id = job.request.id;
        response.status = started;
        FinishJob(job, response);
        continue;
      }
      inflight_.push_back(std::move(job));
    }
  }

  Status StartJob(QueryJob* job) {
    ++job->attempts;
    WorkerSpawnOptions spawn;
    spawn.task_key = job->key;
    spawn.attempt = job->attempts;
    spawn.max_rss_mb = options_.worker_max_rss_mb;
    spawn.max_cpu_s = options_.worker_max_cpu_s;
    // Pipe-only telemetry (no telemetry_dir): worker metric deltas and
    // profiles merge into the daemon's, so `stats`, the drain snapshot,
    // and --profile_out cover the whole fleet.
    // Every spawn draws fresh probabilistic-failpoint streams — sibling
    // workers and respawns must not replay the parent's exact draws.
    spawn.failpoint_reseed = ++spawn_sequence_;
    spawn.ship_failpoint = "serve_ship";
    spawn.close_in_child.push_back(listen_fd());
    for (const auto& [id, conn] : conns()) {
      spawn.close_in_child.push_back(conn.fd);
    }
    for (QueryJob& other : inflight_) {
      if (other.proc.pipe_fd() >= 0) {
        spawn.close_in_child.push_back(other.proc.pipe_fd());
      }
    }
    const EMDataset* dataset = job->dataset;
    const MatcherKind matcher = job->matcher;
    const bool pairwise = job->pairwise;
    const uint64_t seed = options_.warm.seed;
    const int64_t fork_start_us = job->ctx.valid() ? UnixMicrosNow() : 0;
    FAIREM_ASSIGN_OR_RETURN(
        job->proc,
        WorkerProcess::Spawn(
            [dataset, matcher, pairwise, seed]() -> Result<std::string> {
              GridRunOptions cell_options;
              cell_options.seed = seed;
              FAIREM_ASSIGN_OR_RETURN(
                  GridCellCheckpoint cell,
                  RunAuditCell(*dataset, matcher, pairwise, cell_options));
              return GridCellToJson(cell);
            },
            spawn));
    job->worker_pid = job->proc.pid();
    if (job->ctx.valid()) {
      job->spans.push_back(WorkerSpan(*job, "worker.fork", fork_start_us));
    }
    FAIREM_LOG(DEBUG) << "query worker spawned" << LogKv("key", job->key)
                      << LogKv("pid", job->proc.pid())
                      << LogKv("attempt", job->attempts);
    return Status::OK();
  }

  void PumpWorkers() {
    const double now = MonotonicSeconds();
    for (size_t i = 0; i < inflight_.size();) {
      QueryJob& job = inflight_[i];
      job.proc.Drain();
      int status = 0;
      rusage usage;
      if (job.proc.TryReap(&status, &usage)) {
        QueryJob finished = std::move(job);
        inflight_.erase(inflight_.begin() + static_cast<long>(i));
        SettleWorker(std::move(finished), status);
        continue;
      }
      if (!job.timed_out && now >= job.deadline_s) {
        // The deadline is end-to-end: however long the query waited in the
        // queue counts against the compute budget too.
        job.timed_out = true;
        metrics_.deadline_expired->Increment();
        FAIREM_LOG(WARN) << "query deadline exceeded, killing worker"
                         << LogKv("key", job.key)
                         << LogKv("pid", job.proc.pid());
        job.proc.Kill();
      }
      ++i;
    }
  }

  void SettleWorker(QueryJob job, int status) {
    WorkerResult result = job.proc.TakeResult(status);
    const bool exited_ok = result.kind == WorkerResult::Kind::kOk;
    if (exited_ok && !job.timed_out) {
      // Feed the ETA model for everyone's PROG frames, traced or not.
      metrics_.cell_seconds->Observe(job.proc.AgeSeconds());
    }
    if (job.ctx.valid() && job.proc.spawn_unix_us() > 0) {
      WireSpan compute =
          WorkerSpan(job, "worker.compute", job.proc.spawn_unix_us());
      const char* exit_kind = "crash";
      if (job.timed_out) {
        exit_kind = "killed_deadline";
      } else if (exited_ok) {
        exit_kind = "ok";
      } else if (result.kind == WorkerResult::Kind::kTaskError) {
        exit_kind = "task_error";
      }
      compute.annotations.emplace_back("exit", exit_kind);
      job.spans.push_back(std::move(compute));
    }
    QueryResponse response;
    response.id = job.request.id;
    if (job.timed_out) {
      response.status = Status::DeadlineExceeded(
          "query exceeded its deadline and the worker was killed");
      FinishJob(job, response);
      return;
    }
    if (exited_ok) {
      // Defensive parse: only a well-formed cell is cached and served.
      Result<GridCellCheckpoint> cell = ParseAuditCell(result.payload);
      if (cell.ok()) {
        metrics_.cells_computed->Increment();
        warm_.StoreCell(job.key, result.payload);
        response.payload = std::move(result.payload);
      } else {
        response.status = Status::Internal(
            "worker shipped unparseable cell: " + cell.status().ToString());
      }
      FinishJob(job, response);
      return;
    }
    if (result.kind == WorkerResult::Kind::kTaskError) {
      RespawnOrFail(std::move(job), result.status,
                    IsRetryableStatus(result.status));
      return;
    }
    // Crash: signal death, _Exit under a failpoint, OOM under RLIMIT_AS,
    // or a protocol failure.
    metrics_.worker_crashes->Increment();
    const std::string detail =
        result.exit_code >= 0 ? "exit code " + std::to_string(result.exit_code)
                              : "signal " + std::to_string(result.signal);
    Status crash = Status::Internal("query worker crashed (" + detail +
                                    ") for '" + job.key + "'");
    RespawnOrFail(std::move(job), crash, /*retryable=*/true);
  }

  /// Respawns the job when budget and deadline allow; otherwise finishes it
  /// with `failure`.
  void RespawnOrFail(QueryJob job, const Status& failure, bool retryable) {
    if (retryable && job.attempts < options_.max_attempts &&
        MonotonicSeconds() < job.deadline_s && !draining()) {
      metrics_.worker_respawns->Increment();
      FAIREM_LOG(WARN) << "respawning query worker" << LogKv("key", job.key)
                       << LogKv("next_attempt", job.attempts + 1)
                       << LogKv("status", failure.ToString());
      Status started = StartJob(&job);
      if (started.ok()) {
        inflight_.push_back(std::move(job));
        return;
      }
    }
    QueryResponse response;
    response.id = job.request.id;
    response.status = failure;
    FinishJob(job, response);
  }

  // ------------------------------------------------------------ outbound --

  void FinishJob(const QueryJob& job, QueryResponse& response) {
    std::vector<std::pair<std::string, std::string>> hop;
    if (job.ctx.valid()) {
      hop = {{"op", job.request.op},
             {"key", job.key},
             {"status", StatusCodeToString(response.status.code())},
             {"attempts", std::to_string(job.attempts)}};
    }
    Finish(job, response, std::move(hop));
  }

  /// Streams advisory PROG frames (progress fraction + ETA) to the clients
  /// of traced in-flight and queued queries, at most one per
  /// progress_interval_s per query. The ETA model is the mean finished
  /// cell duration; with no history yet, fraction 0 / eta -1 ("unknown").
  void EmitProgress() {
    if (options_.progress_interval_s <= 0.0) return;
    const double now_s = MonotonicSeconds();
    const uint64_t finished = metrics_.cell_seconds->count();
    const double mean_s =
        finished > 0
            ? metrics_.cell_seconds->sum() / static_cast<double>(finished)
            : -1.0;
    auto due = [&](const QueryJob& job) {
      return job.ctx.valid() &&
             now_s - job.last_progress_s >= options_.progress_interval_s;
    };
    auto emit = [&](QueryJob& job, const char* stage, double fraction,
                    double eta_s) {
      ProgressUpdate update;
      update.id = job.request.id;
      update.fraction = fraction;
      update.eta_s = eta_s;
      update.stage = stage;
      update.trace_id = job.trace_hex;
      if (!Send(job.conn_id, kFrameProgress,
                SerializeProgressUpdate(update))) {
        return;
      }
      metrics_.progress_frames->Increment();
      job.last_progress_s = now_s;
    };
    for (QueryJob& job : inflight_) {
      if (!due(job)) continue;
      double fraction = 0.0;
      double eta_s = -1.0;
      if (mean_s > 0.0) {
        const double elapsed = job.proc.AgeSeconds();
        // Cap below 1.0: the estimate is a mean, and claiming "done" while
        // the worker still runs would make the client's bar lie.
        fraction = std::min(0.95, elapsed / mean_s);
        eta_s = std::max(0.0, mean_s - elapsed);
      }
      emit(job, "compute", fraction, eta_s);
    }
    for (QueryJob& job : queue_) {
      if (due(job)) emit(job, "queued", 0.0, mean_s > 0.0 ? mean_s : -1.0);
    }
  }

  ServeOptions options_;
  ServeMetrics metrics_;
  WarmState warm_;
  uint64_t spawn_sequence_ = 0;
  std::deque<QueryJob> queue_;
  std::vector<QueryJob> inflight_;
};

}  // namespace

double LoadAwareRetryAfterS(double base, int queue_depth, int max_queue,
                            int inflight, int max_inflight) {
  if (base <= 0.0) return 0.0;
  double factor = 1.0;
  if (max_queue > 0 && queue_depth > 0) {
    factor += std::min(1.0, static_cast<double>(queue_depth) /
                                static_cast<double>(max_queue));
  }
  if (max_inflight > 0 && inflight > 0) {
    factor += std::min(1.0, static_cast<double>(inflight) /
                                static_cast<double>(max_inflight));
  }
  return base * factor;
}

Status RunServeDaemon(const ServeOptions& options) {
  // EPIPE handling relies on write() returning the error instead of the
  // default fatal SIGPIPE.
  IgnoreSigpipe();
  ShutdownGuard shutdown_guard;
  ServeOptions normalized = options;
  if (normalized.max_inflight < 1) normalized.max_inflight = 1;
  if (normalized.max_queue < 0) normalized.max_queue = 0;
  if (normalized.max_attempts < 1) normalized.max_attempts = 1;
  if (normalized.poll_interval_s <= 0.0) normalized.poll_interval_s = 0.01;
  ServeDaemon daemon(normalized);
  return daemon.Serve();
}

}  // namespace fairem
