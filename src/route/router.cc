#include "src/route/router.h"

#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/report/grid.h"
#include "src/robust/checkpoint.h"
#include "src/robust/circuit_breaker.h"
#include "src/robust/supervisor.h"
#include "src/serve/daemon_core.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/util/io_util.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"

namespace fairem {
namespace {

/// The hedge fires once a call has outlived this quantile of observed
/// backend-call latencies (floored at hedge_min_delay_s).
constexpr double kHedgeQuantile = 0.95;

// SIGHUP latch for live membership reload. sig_atomic_t write is the only
// thing the handler does; the event loop consumes it between poll rounds.
volatile std::sig_atomic_t g_sighup_latch = 0;

void OnSighup(int) { g_sighup_latch = 1; }

void InstallSighupHandler() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnSighup;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGHUP, &action, nullptr);
}

struct RouteMetrics {
  Counter* degraded_answers;
  Counter* unroutable_queries;
  Counter* shed_overload;
  Counter* shed_draining;
  Counter* deadline_expired;
  Counter* failovers;
  Counter* rerouted_queries;
  Counter* hedges_started;
  Counter* hedges_won;
  Counter* hedges_lost;
  Counter* health_probes;
  Counter* health_probe_failures;
  Counter* breaker_opens;
  Counter* reloads;
  Gauge* backends;
  Gauge* backends_usable;
  Gauge* inflight_jobs;
  Histogram* backend_call_seconds;

  static RouteMetrics Make() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    RouteMetrics m;
    m.degraded_answers = reg.GetCounter("fairem.route.degraded_answers");
    m.unroutable_queries = reg.GetCounter("fairem.route.unroutable_queries");
    m.shed_overload = reg.GetCounter("fairem.route.shed_overload");
    m.shed_draining = reg.GetCounter("fairem.route.shed_draining");
    m.deadline_expired = reg.GetCounter("fairem.route.deadline_expired");
    m.failovers = reg.GetCounter("fairem.route.failovers");
    m.rerouted_queries = reg.GetCounter("fairem.route.rerouted_queries");
    m.hedges_started = reg.GetCounter("fairem.route.hedges_started");
    m.hedges_won = reg.GetCounter("fairem.route.hedges_won");
    m.hedges_lost = reg.GetCounter("fairem.route.hedges_lost");
    m.health_probes = reg.GetCounter("fairem.route.health_probes");
    m.health_probe_failures =
        reg.GetCounter("fairem.route.health_probe_failures");
    m.breaker_opens = reg.GetCounter("fairem.route.breaker_opens");
    m.reloads = reg.GetCounter("fairem.route.reloads");
    m.backends = reg.GetGauge("fairem.route.backends");
    m.backends_usable = reg.GetGauge("fairem.route.backends_usable");
    m.inflight_jobs = reg.GetGauge("fairem.route.inflight_jobs");
    m.backend_call_seconds =
        reg.GetHistogram("fairem.route.backend_call_seconds");
    return m;
  }
};

/// One backend daemon as the router sees it: its breaker, its persistent
/// probe connection, and the last load report it gave.
struct Backend {
  std::string path;
  CircuitBreaker breaker;
  Gauge* state_gauge = nullptr;
  uint64_t opens_seen = 0;

  // Probe connection (persistent, re-established on any failure).
  FramedConn probe;
  double next_probe_s = 0.0;
  double probe_sent_s = -1.0;  // >= 0 while a probe awaits its reply
  uint64_t probe_id = 0;

  /// Last HLTH reply's serving flag. Optimistic before the first probe so
  /// a cold-started router can route immediately.
  bool serving = true;
};

/// One request to one backend: its own connection, so cancelling a loser
/// (hedge or failover) is just a close — no shared stream to corrupt.
struct RouteCall {
  FramedConn conn;
  std::string backend;
  double started_s = 0.0;
  // "router.call" span for this backend attempt; 0 when the job is
  // untraced or the span has already been closed into job.spans.
  uint64_t span_id = 0;
  int64_t started_unix_us = 0;

  bool active() const { return conn.open(); }
};

struct RouteJob : AdmittedQuery {
  uint64_t route_id = 0;  // router-side correlation id, all calls share it
                          // (request.id stays the client's)
  std::vector<std::string> tried;
  bool rerouted = false;
  RouteCall primary;
  RouteCall hedge;
  double hedge_at_s = -1.0;  // < 0: hedging disabled for this job
};

// failed_queries counts only definite errors delivered to a client (sheds
// are retryable and expected under load); the chaos drill gates on it
// staying 0 while a backend is killed mid-load.
constexpr FrontIdentity kRouteIdentity = {
    "router",      "fairem.route",   "queries_total",
    "queries_ok",  "failed_queries", /*sheds_are_failures=*/false};

class RouteDaemon : public DaemonFront {
 public:
  explicit RouteDaemon(const RouteOptions& options)
      : DaemonFront(kRouteIdentity, FrontSettings::From(options)),
        options_(options),
        metrics_(RouteMetrics::Make()),
        rng_(0x526f757465ull ^ static_cast<uint64_t>(::getpid())) {}

  /// Reads the initial membership; fails when it is empty.
  Status LoadBackends() {
    std::vector<std::string> initial = options_.backends;
    if (!options_.backends_file.empty()) {
      Result<std::string> text = ReadFileToString(options_.backends_file);
      if (text.ok()) {
        for (std::string& path : ParseBackendsList(*text)) {
          initial.push_back(std::move(path));
        }
      } else {
        FAIREM_LOG(WARN) << "backends file unreadable at startup"
                         << LogKv("path", options_.backends_file)
                         << LogKv("status", text.status().ToString());
      }
    }
    ApplyBackendSet(initial);
    if (backends_.empty()) {
      return Status::InvalidArgument(
          "route: no backends configured (--backends or --backends_file)");
    }
    return Status::OK();
  }

 private:
  // --------------------------------------------------- front-end hooks --

  Status Warm() override {
    FAIREM_LOG(INFO) << "fairem route ready"
                     << LogKv("socket", options_.socket_path)
                     << LogKv("backends", backends_.size());
    return Status::OK();
  }

  void BeforePoll(double now) override {
    if (g_sighup_latch != 0) {
      g_sighup_latch = 0;
      ReloadBackends();
    }
    ProbeBackends(now);
    StartHedges(now);
    ExpireJobs(now);
  }

  void AddPollFds(std::vector<pollfd>* fds) override {
    for (const auto& [path, backend] : backends_) backend.probe.AddPollFd(fds);
    for (const auto& [id, job] : jobs_) {
      job.primary.conn.AddPollFd(fds);
      job.hedge.conn.AddPollFd(fds);
    }
  }

  void AfterPoll() override {
    PumpBackendProbes();
    PumpCalls();
  }

  void FillHealth(HealthReport* reply) override {
    reply->serving = !draining() && UsableBackendCount(MonotonicSeconds()) > 0;
    reply->queue_depth = static_cast<double>(jobs_.size());
    reply->inflight = static_cast<double>(jobs_.size());
    reply->retry_after_s = CurrentRetryAfterS();
  }

  void HandleQuery(uint64_t conn_id, const QueryRequest& request) override {
    AdmitRoutedQuery(conn_id, request);
  }

  // In-flight routed queries finish, fail over, or deadline out — the loop
  // keeps pumping them; only new arrivals are shed.
  bool Busy() const override { return !jobs_.empty(); }

  void UpdateGauges() override {
    const double now = MonotonicSeconds();
    metrics_.backends->Set(static_cast<double>(backends_.size()));
    metrics_.backends_usable->Set(
        static_cast<double>(UsableBackendCount(now)));
    metrics_.inflight_jobs->Set(static_cast<double>(jobs_.size()));
    for (auto& [path, backend] : backends_) {
      backend.state_gauge->Set(
          static_cast<double>(backend.breaker.state(now)));
    }
  }

  // ---------------------------------------------------------- membership --

  void ApplyBackendSet(const std::vector<std::string>& paths) {
    std::map<std::string, Backend> next;
    for (const std::string& path : paths) {
      if (path.empty() || next.count(path) != 0) continue;
      auto existing = backends_.find(path);
      if (existing != backends_.end()) {
        // A surviving backend keeps its breaker and probe connection:
        // reload must not forget what we learned about it.
        next.emplace(path, std::move(existing->second));
        backends_.erase(existing);
        continue;
      }
      Backend backend;
      backend.path = path;
      CircuitBreakerOptions breaker;
      breaker.failure_threshold = options_.breaker_failure_threshold;
      breaker.open_cooldown_s = options_.breaker_cooldown_s;
      backend.breaker = CircuitBreaker(breaker);
      backend.state_gauge = MetricsRegistry::Global().GetGauge(
          "fairem.route.backend." + SanitizeForFilename(path) + ".state");
      next.emplace(path, std::move(backend));
    }
    // Whatever is left in backends_ was removed (its probe closes with it).
    for (auto& [path, backend] : backends_) {
      if (backend.state_gauge != nullptr) backend.state_gauge->Set(-1.0);
      FAIREM_LOG(INFO) << "backend removed" << LogKv("backend", path);
    }
    backends_ = std::move(next);
  }

  void ReloadBackends() {
    if (options_.backends_file.empty()) {
      FAIREM_LOG(WARN) << "SIGHUP with no --backends_file; membership kept";
      return;
    }
    Result<std::string> text = ReadFileToString(options_.backends_file);
    if (!text.ok()) {
      // Keep serving with the old membership; an operator mid-edit must
      // not be able to empty the fleet with a torn file.
      FAIREM_LOG(WARN) << "backends reload failed"
                       << LogKv("path", options_.backends_file)
                       << LogKv("status", text.status().ToString());
      return;
    }
    std::vector<std::string> paths = ParseBackendsList(*text);
    if (paths.empty()) {
      FAIREM_LOG(WARN) << "backends reload: file lists no backends; kept "
                          "previous membership";
      return;
    }
    ApplyBackendSet(paths);
    metrics_.reloads->Increment();
    FAIREM_LOG(INFO) << "backends reloaded"
                     << LogKv("path", options_.backends_file)
                     << LogKv("backends", backends_.size());
  }

  // ------------------------------------------------------------- probing --

  void ProbeBackends(double now) {
    for (auto& [path, backend] : backends_) {
      if (backend.probe.open() && backend.probe_sent_s >= 0.0 &&
          now - backend.probe_sent_s > options_.health_timeout_s) {
        ProbeFailed(backend, now, "probe timeout");
      }
      if (now < backend.next_probe_s) continue;
      ScheduleNextProbe(backend, now);
      if (!backend.probe.open()) {
        // Probes ignore the breaker on purpose: they are how an open
        // breaker ever finds out the backend recovered.
        Result<int> fd = ConnectUnix(backend.path);
        metrics_.health_probes->Increment();
        if (!fd.ok()) {
          metrics_.health_probe_failures->Increment();
          RecordBackendFailure(backend, now);
          continue;
        }
        backend.probe.Reset(*fd);
      } else {
        if (backend.probe_sent_s >= 0.0) continue;  // previous still out
        metrics_.health_probes->Increment();
      }
      HealthReport probe;
      probe.probe = true;
      probe.id = ++probe_sequence_;
      backend.probe_id = probe.id;
      backend.probe_sent_s = now;
      backend.probe.Queue(kFrameHealth, SerializeHealthReport(probe));
      FlushProbe(backend, now);
    }
  }

  void ScheduleNextProbe(Backend& backend, double now) {
    backend.next_probe_s =
        now + options_.health_period_s * rng_.NextDouble(0.5, 1.5);
  }

  void ProbeFailed(Backend& backend, double now, const char* reason) {
    FAIREM_LOG(WARN) << "health probe failed"
                     << LogKv("backend", backend.path)
                     << LogKv("reason", reason);
    metrics_.health_probe_failures->Increment();
    backend.probe.Close();
    backend.probe_sent_s = -1.0;
    RecordBackendFailure(backend, now);
  }

  void FlushProbe(Backend& backend, double now) {
    if (!backend.probe.Flush()) {
      ProbeFailed(backend, now, "probe write failed");
    }
  }

  void PumpBackendProbes() {
    const double now = MonotonicSeconds();
    for (auto& [path, backend] : backends_) {
      if (!backend.probe.open()) continue;
      FlushProbe(backend, now);
      if (!backend.probe.open()) continue;
      const bool open = backend.probe.ReadAvailable();
      for (;;) {
        ServeMessage message;
        Result<FrameDecoder::Next> next =
            backend.probe.decoder.TryNext(&message);
        if (!next.ok()) {
          ProbeFailed(backend, now, "malformed probe reply");
          break;
        }
        if (*next == FrameDecoder::Next::kNeedMore) break;
        if (message.type != kFrameHealth) continue;  // stray frame: ignore
        Result<HealthReport> report = ParseHealthReport(message.bytes);
        if (!report.ok() || report->id != backend.probe_id) continue;
        backend.probe_sent_s = -1.0;
        backend.serving = report->serving;
        // Transport-wise the backend is alive; a draining backend is
        // excluded by the serving flag, not the breaker.
        RecordBackendSuccess(backend, now);
      }
      if (!open && backend.probe.open()) {
        ProbeFailed(backend, now, "probe connection closed");
      }
    }
  }

  // ------------------------------------------------------------ breakers --

  void RecordBackendFailure(Backend& backend, double now) {
    backend.breaker.RecordFailure(now);
    const uint64_t opened = backend.breaker.times_opened();
    if (opened > backend.opens_seen) {
      metrics_.breaker_opens->Increment(opened - backend.opens_seen);
      backend.opens_seen = opened;
      FAIREM_LOG(WARN) << "circuit breaker opened"
                       << LogKv("backend", backend.path)
                       << LogKv("failures",
                                backend.breaker.consecutive_failures());
    }
  }

  void RecordBackendSuccess(Backend& backend, double now) {
    backend.breaker.RecordSuccess(now);
  }

  Backend* FindBackend(const std::string& path) {
    auto it = backends_.find(path);
    return it == backends_.end() ? nullptr : &it->second;
  }

  // ------------------------------------------------------------- inbound --

  double CurrentRetryAfterS() const {
    return LoadAwareRetryAfterS(options_.retry_after_s,
                                static_cast<int>(jobs_.size()),
                                options_.max_inflight_jobs, 0, 0);
  }

  int UsableBackendCount(double now) {
    int usable = 0;
    for (auto& [path, backend] : backends_) {
      if (backend.serving &&
          backend.breaker.state(now) != CircuitBreaker::State::kOpen) {
        ++usable;
      }
    }
    return usable;
  }

  // -------------------------------------------------------------- routing --

  void AdmitRoutedQuery(uint64_t conn_id, const QueryRequest& request) {
    QueryResponse response;
    response.id = request.id;
    if (draining()) {
      metrics_.shed_draining->Increment();
      response.status = Status::Unavailable("router draining; retry later");
      response.retry_after_s = options_.retry_after_s;
      AttachAdHocSpan(request, &response, "shed_draining");
      Respond(conn_id, response);
      return;
    }
    if (static_cast<int>(jobs_.size()) >= options_.max_inflight_jobs) {
      metrics_.shed_overload->Increment();
      response.status = Status::Unavailable("router at capacity");
      response.retry_after_s = CurrentRetryAfterS();
      AttachAdHocSpan(request, &response, "shed_overload");
      Respond(conn_id, response);
      return;
    }
    RouteJob job;
    Admit(&job, conn_id, request,
          request.dataset + "." + request.mode + "." + request.matcher,
          UnixMicrosNow());
    job.route_id = ++route_sequence_;
    const double now = job.admitted_s;
    if (options_.hedge) job.hedge_at_s = now + HedgeDelay();
    if (!Dispatch(job, &job.primary, now)) {
      FinishUnroutable(job);
      return;
    }
    jobs_.emplace(job.route_id, std::move(job));
  }

  /// Rendezvous pick: the highest-ranked backend for the job's key that is
  /// serving, not already tried, and whose breaker admits a request.
  std::string PickBackend(const RouteJob& job, double now) {
    std::vector<std::pair<uint64_t, Backend*>> ranked;
    ranked.reserve(backends_.size());
    for (auto& [path, backend] : backends_) {
      if (!backend.serving) continue;
      if (std::find(job.tried.begin(), job.tried.end(), path) !=
          job.tried.end()) {
        continue;
      }
      ranked.emplace_back(RendezvousRank(job.key, path), &backend);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (auto& [rank, backend] : ranked) {
      // AllowRequest claims a half-open probe slot, so only consult it for
      // the backend we would actually use.
      if (backend->breaker.AllowRequest(now)) return backend->path;
    }
    return std::string();
  }

  /// Starts `job`'s next attempt on the best untried backend. False when
  /// every candidate is exhausted (`call` left inactive).
  bool Dispatch(RouteJob& job, RouteCall* call, double now) {
    while (true) {
      std::string target = PickBackend(job, now);
      if (target.empty()) return false;
      job.tried.push_back(target);
      Result<int> fd = ConnectUnix(target);
      if (!fd.ok()) {
        if (Backend* backend = FindBackend(target)) {
          RecordBackendFailure(*backend, now);
        }
        AppendFailoverSpan(job, target, call == &job.hedge,
                           "connect_failed");
        metrics_.failovers->Increment();
        continue;
      }
      call->conn.Reset(*fd);
      call->backend = target;
      call->started_s = now;
      QueryRequest forwarded = job.request;
      forwarded.id = job.route_id;
      // The backend should only work as long as the client will still be
      // listening: forward the remaining budget, not the original.
      forwarded.deadline_s = std::max(0.001, job.deadline_s - now);
      if (job.ctx.valid()) {
        // Re-parent the context so the backend's spans hang under this
        // specific call — a hedge and its primary stay distinguishable.
        call->span_id = NewSpanId();
        call->started_unix_us = UnixMicrosNow();
        forwarded.trace.parent_span_id = call->span_id;
      }
      call->conn.Queue(kFrameQueryRequest, SerializeQueryRequest(forwarded));
      FlushCall(*call);
      return true;
    }
  }

  double HedgeDelay() {
    double delay = options_.hedge_min_delay_s;
    // Until the histogram has seen enough calls the quantile estimate is
    // noise; stay on the floor.
    if (metrics_.backend_call_seconds->count() >= 20) {
      delay = std::max(
          delay, metrics_.backend_call_seconds->Quantile(kHedgeQuantile));
    }
    return delay;
  }

  void StartHedges(double now) {
    for (auto& [id, job] : jobs_) {
      if (job.hedge_at_s < 0.0 || now < job.hedge_at_s) continue;
      if (job.hedge.active() || !job.primary.active()) continue;
      job.hedge_at_s = -1.0;  // one hedge per job
      if (Dispatch(job, &job.hedge, now)) {
        metrics_.hedges_started->Increment();
      }
    }
  }

  // ------------------------------------------------------- call lifecycle --

  void CloseCall(RouteCall* call) { call->conn.Close(); }

  /// Forwards a backend's advisory PROG frame to the job's client, with
  /// the correlation id rewritten from the router's to the client's.
  void ForwardProgress(RouteJob& job, const std::string& bytes) {
    Result<ProgressUpdate> update = ParseProgressUpdate(bytes);
    if (!update.ok() || update->id != job.route_id) return;
    ProgressUpdate forwarded = *update;
    forwarded.id = job.request.id;
    if (forwarded.trace_id.empty()) forwarded.trace_id = job.trace_hex;
    Send(job.conn_id, kFrameProgress, SerializeProgressUpdate(forwarded));
  }

  /// Pump one call's IO. Returns 0 while pending, +1 with *out filled on a
  /// definite answer, -1 on transport failure or a backend kUnavailable
  /// (both mean: try another backend).
  int PumpCall(RouteCall& call, RouteJob& job, QueryResponse* out) {
    FlushCall(call);
    if (!call.active()) return -1;
    const bool open = call.conn.ReadAvailable();
    for (;;) {
      ServeMessage message;
      Result<FrameDecoder::Next> next = call.conn.decoder.TryNext(&message);
      if (!next.ok()) return -1;
      if (*next == FrameDecoder::Next::kNeedMore) break;
      if (message.type == kFrameProgress) {
        ForwardProgress(job, message.bytes);
        continue;
      }
      if (message.type != kFrameQueryResponse) continue;
      Result<QueryResponse> response = ParseQueryResponse(message.bytes);
      if (!response.ok()) return -1;
      if (response->id != job.route_id) return -1;
      // A backend shed/drain is the router's cue to fail over, exactly
      // like a dead backend — the client never sees it.
      if (!response->status.ok() && response->status.IsUnavailable()) {
        return -1;
      }
      *out = std::move(*response);
      return 1;
    }
    return open ? 0 : -1;
  }

  void FlushCall(RouteCall& call) {
    // EPIPE and friends: the backend went away.
    if (!call.conn.Flush()) CloseCall(&call);
  }

  void PumpCalls() {
    const double now = MonotonicSeconds();
    std::vector<uint64_t> ids;
    ids.reserve(jobs_.size());
    for (auto& [id, job] : jobs_) ids.push_back(id);
    for (uint64_t id : ids) {
      for (bool is_hedge : {false, true}) {
        auto jt = jobs_.find(id);
        if (jt == jobs_.end()) break;
        RouteCall& call = is_hedge ? jt->second.hedge : jt->second.primary;
        if (!call.active()) continue;
        QueryResponse response;
        int outcome = PumpCall(call, jt->second, &response);
        if (outcome == 0) continue;
        if (outcome > 0) {
          OnCallAnswered(jt->second, is_hedge, std::move(response), now);
          jobs_.erase(id);
          break;
        }
        OnCallFailed(jt->second, is_hedge, now);
      }
    }
  }

  /// Closes `call`'s "router.call" span into job.spans with the given
  /// outcome. Safe to call on an untraced or already-closed call (no-op).
  void FinishCallSpan(RouteJob& job, RouteCall& call, bool is_hedge,
                      const char* outcome) {
    if (!job.ctx.valid() || call.span_id == 0) return;
    WireSpan span =
        MakeWireSpan("router.call", "router", call.span_id,
                     job.request_span_id, call.started_unix_us,
                     UnixMicrosNow());
    span.annotations.emplace_back("backend", call.backend);
    span.annotations.emplace_back("hedge", is_hedge ? "true" : "false");
    span.annotations.emplace_back("outcome", outcome);
    job.spans.push_back(std::move(span));
    call.span_id = 0;
  }

  /// Finalizes a routed query through the core's Finish: the
  /// "router.request" hop span lands ahead of the backend's own spans,
  /// which `response` may already carry.
  void FinishRoutedJob(RouteJob& job, QueryResponse& response,
                       const char* outcome) {
    std::vector<std::pair<std::string, std::string>> hop;
    if (job.ctx.valid()) {
      hop = {{"key", job.key},
             {"outcome", outcome},
             {"backends_tried", std::to_string(job.tried.size())}};
    }
    Finish(job, response, std::move(hop));
  }

  void OnCallAnswered(RouteJob& job, bool is_hedge, QueryResponse response,
                      double now) {
    RouteCall& winner = is_hedge ? job.hedge : job.primary;
    RouteCall& loser = is_hedge ? job.primary : job.hedge;
    if (Backend* backend = FindBackend(winner.backend)) {
      RecordBackendSuccess(*backend, now);
    }
    metrics_.backend_call_seconds->Observe(now - winner.started_s);
    const bool hedge_won = is_hedge;
    if (is_hedge) {
      metrics_.hedges_won->Increment();
    } else if (loser.active()) {
      metrics_.hedges_lost->Increment();
    }
    FinishCallSpan(job, winner, is_hedge, "answered");
    FinishCallSpan(job, loser, !is_hedge, "cancelled");
    // The loser's answer no longer matters; cancellation is a close. Its
    // outcome is unknown, so its breaker is left alone.
    CloseCall(&loser);
    CloseCall(&winner);
    response.id = job.request.id;
    FinishRoutedJob(job, response, hedge_won ? "hedge_won" : "primary_won");
  }

  /// The failover decision itself, as an instant span: a connected trace
  /// shows not just the failed call but the moment the router moved on
  /// from it. `reason` distinguishes a call that died mid-flight
  /// ("call_failed") from a backend that refused the connection outright
  /// ("connect_failed", e.g. a SIGKILLed daemon's stale socket).
  void AppendFailoverSpan(RouteJob& job, const std::string& from_backend,
                          bool is_hedge, const char* reason) {
    if (!job.ctx.valid()) return;
    const int64_t now_us = UnixMicrosNow();
    WireSpan failover = MakeWireSpan("router.failover", "router", NewSpanId(),
                                     job.request_span_id, now_us, now_us);
    failover.annotations.emplace_back("from_backend", from_backend);
    failover.annotations.emplace_back("reason", reason);
    failover.annotations.emplace_back("hedge", is_hedge ? "true" : "false");
    job.spans.push_back(std::move(failover));
  }

  void OnCallFailed(RouteJob& job, bool is_hedge, double now) {
    RouteCall& failed = is_hedge ? job.hedge : job.primary;
    if (Backend* backend = FindBackend(failed.backend)) {
      RecordBackendFailure(*backend, now);
    }
    FinishCallSpan(job, failed, is_hedge, "failed");
    AppendFailoverSpan(job, failed.backend, is_hedge, "call_failed");
    CloseCall(&failed);
    metrics_.failovers->Increment();
    if (!job.rerouted) {
      job.rerouted = true;
      metrics_.rerouted_queries->Increment();
    }
    RouteCall& other = is_hedge ? job.primary : job.hedge;
    if (other.active()) return;  // the surviving call may still answer
    if (Dispatch(job, &job.primary, now)) return;
    const uint64_t id = job.route_id;
    FinishUnroutable(job);
    jobs_.erase(id);
  }

  /// Every candidate is down or refusing: degrade instead of hanging. A
  /// cell query gets the paper's Table 9 "-" semantics — a structured
  /// error-entry answer the report layer already knows how to render; any
  /// other op gets a retryable kUnavailable.
  void FinishUnroutable(RouteJob& job) {
    QueryResponse response;
    response.id = job.request.id;
    if (job.request.op == "cell") {
      GridCellCheckpoint cell;
      cell.matcher = job.request.matcher;
      cell.marker = MatcherMarker(job.request.matcher);
      cell.error = true;
      cell.status =
          Status::Unavailable("no backend available for cell '" + job.key +
                              "'")
              .ToString();
      response.payload = GridCellToJson(cell);
      metrics_.degraded_answers->Increment();
    } else {
      response.status =
          Status::Unavailable("no backend available for op '" +
                              job.request.op + "'");
      response.retry_after_s = CurrentRetryAfterS();
      metrics_.unroutable_queries->Increment();
    }
    FinishRoutedJob(job, response, "unroutable");
  }

  void ExpireJobs(double now) {
    std::vector<uint64_t> expired;
    for (auto& [id, job] : jobs_) {
      if (now >= job.deadline_s) expired.push_back(id);
    }
    for (uint64_t id : expired) {
      auto it = jobs_.find(id);
      if (it == jobs_.end()) continue;
      RouteJob& job = it->second;
      metrics_.deadline_expired->Increment();
      if (job.hedge.active()) metrics_.hedges_lost->Increment();
      FinishCallSpan(job, job.primary, /*is_hedge=*/false, "expired");
      FinishCallSpan(job, job.hedge, /*is_hedge=*/true, "expired");
      CloseCall(&job.primary);
      CloseCall(&job.hedge);
      QueryResponse response;
      response.id = job.request.id;
      response.status =
          Status::DeadlineExceeded("deadline expired in router");
      FinishRoutedJob(job, response, "deadline");
      jobs_.erase(it);
    }
  }

  RouteOptions options_;
  RouteMetrics metrics_;
  Rng rng_;
  uint64_t route_sequence_ = 0;
  uint64_t probe_sequence_ = 0;
  std::map<std::string, Backend> backends_;
  std::map<uint64_t, RouteJob> jobs_;
};

}  // namespace

uint64_t RendezvousRank(const std::string& cell_key,
                        const std::string& backend) {
  // FNV-1a over key, a separator byte, then backend (the separator keeps
  // ("ab","c") and ("a","bc") distinct), finished with the splitmix64
  // avalanche so rendezvous comparisons see well-mixed high bits.
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : cell_key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  h ^= 0x1full;
  h *= 1099511628211ull;
  for (unsigned char c : backend) {
    h ^= c;
    h *= 1099511628211ull;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

std::vector<std::string> ParseBackendsList(const std::string& text) {
  std::vector<std::string> out;
  for (const std::string& line : Split(text, '\n')) {
    std::string_view trimmed = TrimAscii(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    std::string path(trimmed);
    if (std::find(out.begin(), out.end(), path) == out.end()) {
      out.push_back(std::move(path));
    }
  }
  return out;
}

Status RunRouteDaemon(const RouteOptions& options) {
  IgnoreSigpipe();
  ShutdownGuard shutdown_guard;
  InstallSighupHandler();
  RouteOptions normalized = options;
  if (normalized.max_inflight_jobs < 1) normalized.max_inflight_jobs = 1;
  if (normalized.health_period_s <= 0.0) normalized.health_period_s = 0.5;
  if (normalized.health_timeout_s <= 0.0) normalized.health_timeout_s = 2.0;
  if (normalized.poll_interval_s <= 0.0) normalized.poll_interval_s = 0.01;
  RouteDaemon daemon(normalized);
  FAIREM_RETURN_NOT_OK(daemon.LoadBackends());
  return daemon.Serve();
}

}  // namespace fairem
