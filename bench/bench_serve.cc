// Closed-loop load generator for the `fairem serve` daemon (DESIGN.md §14).
//
// Forks a daemon child warming one small dataset, then drives it with
// concurrent client threads issuing a mix of ping / stats / cell queries
// through ServeClient::CallWithRetry (jittered backoff, retry-after hints).
// The serve knobs are deliberately tight (max_inflight 1, max_queue 2) so
// the run exercises admission control and overload shedding, not just the
// happy path. Three invariants are enforced, with or without chaos:
//
//   1. Every request terminates with a definite outcome — OK or a
//      structured error — never a hang (per-IO deadlines bound the rest).
//   2. The daemon survives: a final ping answers, repeated queries for the
//      same cell return byte-identical payloads (cache), and a raw-socket
//      drill shows unknown frame types are skipped while garbage bytes get
//      the connection closed without hurting anyone else.
//   3. SIGTERM drains cooperatively: exit 0 and a durable metrics snapshot
//      at bench_serve_daemon_metrics.json.
//
// Chaos mode is just --failpoints (e.g. "grid_cell=crash(0.5)"): the
// daemon child inherits the armed registry and reseeds per worker spawn, so
// query workers crash/hang under load. Failed requests then count as
// definite outcomes; the bench still requires eventual success for the
// probed cell (fresh attempts draw fresh streams) and a clean drain.
//
// Client-side latency lands in fairem.serve.client.latency_seconds inside
// BENCH_serve.json, which bench_smoke gates with `fairem benchdiff`.
//
// Trace mode (--trace, DESIGN.md §16) runs the same loop with distributed
// tracing on: every client propagates a trace context, the daemons (and
// router, with --route) send their spans back, and the bench scores hop
// completeness — the fraction of OK cell queries whose collected spans
// cover every expected process (router and daemon behind a router, the
// daemon alone otherwise). The score lands in the gauge
// fairem.serve.trace.completeness_ratio inside BENCH_serve_trace.json /
// BENCH_serve_route_trace.json, which bench_smoke gates at >= 0.95 even
// under chaos, alongside a tracing-on vs tracing-off latency ratio gate.
// Trace mode also arms a slow-query log (threshold 1 ms, so cell computes
// qualify) at bench_serve_slow.jsonl for the slowlog/tracetop drills.
//
// Route mode (--route, DESIGN.md §15) runs the same closed loop against a
// 3-backend fleet behind a `fairem route` shard router on the same front
// socket — the clients don't change at all. Mid-load one backend is
// SIGKILLed and later restarted: the run asserts zero client-visible
// failures (failover absorbs the death), answers byte-identical to asking
// a surviving daemon directly, and that the corpse rejoins after restart
// without a router restart. Artifacts move to BENCH_serve_route.json and
// bench_route_daemon_metrics.json so bench_smoke can gate the clean and
// routed runs independently.

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include <atomic>
#include <cstring>
#include <iostream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/harness/bench_flags.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/profiler.h"
#include "src/route/router.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/util/io_util.h"
#include "src/util/json.h"
#include "src/util/string_util.h"

namespace fairem {
namespace {

constexpr char kSocketPath[] = "bench_serve.sock";
constexpr char kDataset[] = "Cricket";
constexpr char kDrainMetricsPath[] = "bench_serve_daemon_metrics.json";
constexpr char kRouteDrainMetricsPath[] = "bench_route_daemon_metrics.json";
constexpr char kSlowLogPath[] = "bench_serve_slow.jsonl";
constexpr int kRouteBackends = 3;
const char* const kMatchers[] = {"BooleanRuleMatcher", "DTMatcher",
                                 "NBMatcher"};

std::string BackendSocket(int index) {
  return "bench_serve_backend_" + std::to_string(index) + ".sock";
}

struct ClientTally {
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> shed_final{0};      // kUnavailable after retries
  std::atomic<uint64_t> deadline{0};        // kDeadlineExceeded
  std::atomic<uint64_t> worker_failed{0};   // kInternal (crash budget spent)
  std::atomic<uint64_t> other_failed{0};
  std::atomic<uint64_t> transport{0};       // connection-level failure
  std::atomic<uint64_t> traced_cell_ok{0};  // OK cell queries, trace mode
  std::atomic<uint64_t> traced_cell_complete{0};  // ..with full hop coverage
};

void Classify(ClientTally* tally, const Status& status) {
  if (status.ok()) {
    tally->ok.fetch_add(1);
  } else if (status.IsUnavailable()) {
    tally->shed_final.fetch_add(1);
  } else if (status.IsDeadlineExceeded()) {
    tally->deadline.fetch_add(1);
  } else if (status.code() == StatusCode::kInternal) {
    tally->worker_failed.fetch_add(1);
  } else {
    tally->other_failed.fetch_add(1);
  }
}

void ClientLoop(int client_index, int requests, const BenchFlags& flags,
                bool trace, bool route_mode, ClientTally* tally) {
  Histogram* latency = MetricsRegistry::Global().GetHistogram(
      "fairem.serve.client.latency_seconds");
  RetryPolicy retry;
  retry.max_attempts = 6;
  retry.initial_backoff_seconds = 0.02;
  retry.max_backoff_seconds = 0.5;
  ServeClientOptions client_options;
  client_options.io_timeout_s = 30.0;
  client_options.connect_timeout_s = 60.0;
  client_options.trace = trace;
  Result<ServeClient> client = ServeClient::Connect(kSocketPath,
                                                    client_options);
  if (!client.ok()) {
    tally->requests.fetch_add(static_cast<uint64_t>(requests));
    tally->transport.fetch_add(static_cast<uint64_t>(requests));
    return;
  }
  const size_t num_matchers = sizeof(kMatchers) / sizeof(kMatchers[0]);
  for (int r = 0; r < requests; ++r) {
    QueryRequest request;
    // 1-in-4 liveness/stats probes keep cheap requests interleaved with
    // the expensive cell computes that cause queueing.
    const int roll = (client_index + r) % 4;
    if (roll == 0) {
      request.op = (r % 2 == 0) ? "ping" : "stats";
    } else {
      request.op = "cell";
      request.dataset = kDataset;
      request.matcher = kMatchers[(client_index + r) % num_matchers];
      request.deadline_s = 60.0;
    }
    tally->requests.fetch_add(1);
    const double start = MonotonicSeconds();
    Result<QueryResponse> outcome = client->CallWithRetry(
        request, retry,
        flags.seed_offset + 1000ull * client_index + r);
    latency->Observe(MonotonicSeconds() - start);
    if (!outcome.ok()) {
      // Transport-level failure: still a definite outcome, but track it
      // apart from structured server replies.
      tally->transport.fetch_add(1);
      continue;
    }
    Classify(tally, outcome->status);
    if (trace && request.op == "cell" && outcome->status.ok()) {
      // Hop completeness: did the spans the response carried back cover
      // every process the query crossed? Behind a router, router AND
      // daemon (a cache hit has no worker span, so the worker does not
      // count toward completeness); direct to a daemon, the daemon.
      tally->traced_cell_ok.fetch_add(1);
      std::set<std::string> procs;
      for (const WireSpan& span : client->last_spans()) {
        if (span.process != "client") procs.insert(span.process);
      }
      const size_t want = route_mode ? 2 : 1;
      const bool has_daemon = procs.count("daemon") != 0;
      const bool has_router = !route_mode || procs.count("router") != 0;
      if (procs.size() >= want && has_daemon && has_router) {
        tally->traced_cell_complete.fetch_add(1);
      }
    }
  }
}

// Raw-socket protocol drill: an unknown frame type must be skipped (the
// following ping still answers); garbage bytes must get the connection
// closed promptly — and neither may disturb the daemon.
int RawFrameDrill() {
  auto raw_connect = []() {
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, kSocketPath, sizeof(kSocketPath));
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd >= 0 &&
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0) {
      ::close(fd);
      return -1;
    }
    return fd;
  };

  int fd = raw_connect();
  if (fd < 0) {
    std::cerr << "raw drill: connect failed\n";
    return 1;
  }
  QueryRequest ping;
  ping.op = "ping";
  ping.id = 7;
  // Unknown type first: "JUNK" frame with a valid header must be skipped
  // and counted, not kill the connection.
  std::string wire = EncodeServeMessage("JUNK", "ignore me");
  wire += EncodeServeMessage(kFrameQueryRequest, SerializeQueryRequest(ping));
  if (Status st = WriteFullDeadline(fd, wire.data(), wire.size(), 10.0);
      !st.ok()) {
    std::cerr << "raw drill: write failed: " << st << "\n";
    ::close(fd);
    return 1;
  }
  FrameDecoder decoder;
  Result<ServeMessage> reply = ReadServeMessage(fd, &decoder, 10.0);
  ::close(fd);
  if (!reply.ok() || reply->type != kFrameQueryResponse) {
    std::cerr << "raw drill: no response past an unknown frame type\n";
    return 1;
  }

  // Garbage bytes: the stream is unrecoverable, the daemon must close it
  // (we observe EOF) instead of hanging or crashing.
  fd = raw_connect();
  if (fd < 0) {
    std::cerr << "raw drill: reconnect failed\n";
    return 1;
  }
  const char garbage[] = "this is not FEMTEL1 at all\n";
  (void)WriteFullDeadline(fd, garbage, sizeof(garbage) - 1, 10.0);
  char byte = 0;
  Status eof = ReadSomeBefore(fd, &byte, 1, MonotonicSeconds() + 10.0).status();
  ::close(fd);
  if (!eof.IsUnavailable()) {
    std::cerr << "raw drill: daemon did not close a corrupt connection: "
              << eof << "\n";
    return 1;
  }
  return 0;
}

// Forks a fresh single-threaded daemon process with its own ShutdownGuard,
// killed with a real SIGTERM at the end — the same deployment shape as
// `fairem serve`, minus exec.
pid_t ForkServeDaemon(const ServeOptions& options) {
  pid_t pid = ::fork();
  if (pid == 0) {
    Status st = RunServeDaemon(options);
    if (!st.ok()) {
      FAIREM_LOG(ERROR) << "daemon failed" << LogKv("status", st.ToString());
    }
    ::_exit(st.ok() ? 0 : 1);
  }
  return pid;
}

pid_t ForkRouter(const RouteOptions& options) {
  pid_t pid = ::fork();
  if (pid == 0) {
    Status st = RunRouteDaemon(options);
    if (!st.ok()) {
      FAIREM_LOG(ERROR) << "router failed" << LogKv("status", st.ToString());
    }
    ::_exit(st.ok() ? 0 : 1);
  }
  return pid;
}

/// One stats round trip against the front socket; -1 when the call or the
/// lookup fails.
double FrontStat(const std::string& section, const std::string& name) {
  ServeClientOptions options;
  options.io_timeout_s = 10.0;
  options.connect_timeout_s = 10.0;
  Result<ServeClient> client = ServeClient::Connect(kSocketPath, options);
  if (!client.ok()) return -1.0;
  QueryRequest request;
  request.op = "stats";
  Result<QueryResponse> r = client->Call(request);
  if (!r.ok() || !r->status.ok()) return -1.0;
  Result<JsonValue> doc = JsonParse(r->payload);
  if (!doc.ok()) return -1.0;
  const JsonValue* sec = JsonFind(*doc, section);
  if (sec == nullptr) return -1.0;
  const JsonValue* value = JsonFind(*sec, name);
  if (value == nullptr) return -1.0;
  Result<double> d = JsonAsDouble(*value, name);
  return d.ok() ? *d : -1.0;
}

bool WaitForGauge(const std::string& name, double want, double timeout_s) {
  const int rounds = static_cast<int>(timeout_s / 0.05) + 1;
  for (int i = 0; i < rounds; ++i) {
    if (FrontStat("gauges", name) == want) return true;
    ::usleep(50 * 1000);
  }
  return false;
}

int TerminateDaemon(pid_t pid, const char* what) {
  if (pid <= 0) return 1;
  ::kill(pid, SIGTERM);
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::cerr << "FAIL: " << what << " did not drain cleanly (status "
              << status << ")\n";
    return 1;
  }
  return 0;
}

/// `daemon` holds every daemon's options but its socket.
int Run(const BenchFlags& flags, const ServeOptions& daemon, bool route_mode,
        bool trace_mode) {
  IgnoreSigpipe();
  const bool chaos = !flags.failpoints.value_or("").empty();
  ::unlink(kSocketPath);
  if (trace_mode) ::unlink(kSlowLogPath);
  // Trace mode: a 1 µs slow-query threshold makes every query qualify —
  // even sub-millisecond warm-cache hits when the drill reuses a
  // checkpoint dir — so the run leaves a span-carrying slow log for the
  // slowlog/tracetop drills in bench_smoke.
  auto arm_slowlog = [&](double* slow_ms, std::string* slow_log) {
    if (!trace_mode) return;
    *slow_ms = 0.001;
    *slow_log = kSlowLogPath;
  };

  pid_t daemon_pid = -1;  // single mode: the one daemon
  pid_t router_pid = -1;  // route mode: the front-end
  pid_t backend_pids[kRouteBackends] = {-1, -1, -1};
  if (route_mode) {
    // Looser per-backend admission than the single-daemon drill: the
    // router turns a shed into a failover re-dispatch, and this drill's
    // contract is zero client-visible failures while a backend dies.
    for (int i = 0; i < kRouteBackends; ++i) {
      ::unlink(BackendSocket(i).c_str());
      ServeOptions options = daemon;
      options.socket_path = BackendSocket(i);
      options.max_inflight = 2;
      options.max_queue = 8;
      arm_slowlog(&options.slow_query_ms, &options.slow_query_log);
      backend_pids[i] = ForkServeDaemon(options);
      if (backend_pids[i] < 0) {
        std::cerr << "fork failed: " << std::strerror(errno) << "\n";
        return 1;
      }
    }
    RouteOptions route;
    route.socket_path = kSocketPath;
    for (int i = 0; i < kRouteBackends; ++i) {
      route.backends.push_back(BackendSocket(i));
    }
    route.health_period_s = 0.1;  // notice the SIGKILL within the run
    route.health_timeout_s = 1.0;
    route.breaker_cooldown_s = 0.3;
    route.default_deadline_s = 60.0;
    route.max_deadline_s = 120.0;
    route.metrics_path = kRouteDrainMetricsPath;
    arm_slowlog(&route.slow_query_ms, &route.slow_query_log);
    router_pid = ForkRouter(route);
    if (router_pid < 0) {
      std::cerr << "fork failed: " << std::strerror(errno) << "\n";
      return 1;
    }
  } else {
    ServeOptions options = daemon;
    options.socket_path = kSocketPath;
    options.metrics_path = kDrainMetricsPath;
    arm_slowlog(&options.slow_query_ms, &options.slow_query_log);
    daemon_pid = ForkServeDaemon(options);
    if (daemon_pid < 0) {
      std::cerr << "fork failed: " << std::strerror(errno) << "\n";
      return 1;
    }
  }

  const int clients = 4;
  const int requests_per_client = route_mode ? 24 : 8;
  ClientTally tally;
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back(ClientLoop, c, requests_per_client, flags,
                           trace_mode, route_mode, &tally);
    }
    if (route_mode) {
      // The failover drill: one shard dies as the load opens and stays
      // dead until it is done, so every query it owns (the fixed socket
      // names make it own the NBMatcher key) must fail over.
      ::kill(backend_pids[0], SIGKILL);
      int status = 0;
      ::waitpid(backend_pids[0], &status, 0);
    }
    for (std::thread& t : threads) t.join();
    if (route_mode) {
      // Restart the corpse on the same socket: the router's probes must
      // close its breaker again with no operator action beyond this.
      ServeOptions options = daemon;
      options.socket_path = BackendSocket(0);
      options.max_inflight = 2;
      options.max_queue = 8;
      arm_slowlog(&options.slow_query_ms, &options.slow_query_log);
      backend_pids[0] = ForkServeDaemon(options);
    }
  }

  int exit_code = 0;
  const uint64_t definite = tally.ok + tally.shed_final + tally.deadline +
                            tally.worker_failed + tally.other_failed +
                            tally.transport;
  std::cout << "serve bench: " << tally.requests << " requests, " << tally.ok
            << " ok, " << tally.shed_final << " shed, " << tally.deadline
            << " deadline, " << tally.worker_failed << " worker-failed, "
            << tally.other_failed << " other, " << tally.transport
            << " transport\n";
  if (definite != tally.requests) {
    std::cerr << "FAIL: " << (tally.requests - definite)
              << " request(s) without a definite outcome\n";
    exit_code = 1;
  }
  if (!chaos && tally.ok != tally.requests) {
    std::cerr << "FAIL: failures without chaos armed\n";
    exit_code = 1;
  }
  if (trace_mode) {
    const uint64_t traced = tally.traced_cell_ok.load();
    const uint64_t complete = tally.traced_cell_complete.load();
    const double ratio =
        traced > 0 ? static_cast<double>(complete) /
                         static_cast<double>(traced)
                   : 0.0;
    MetricsRegistry::Global()
        .GetGauge("fairem.serve.trace.completeness_ratio")
        ->Set(ratio);
    std::cout << "trace completeness: " << complete << "/" << traced
              << " OK cell queries with full hop coverage\n";
    if (traced == 0) {
      std::cerr << "FAIL: trace mode ran but no OK cell query was traced\n";
      exit_code = 1;
    }
  }

  // Route mode: the death must actually have been absorbed by failover,
  // and the restarted shard must rejoin — router probes close its breaker
  // again — with no operator action beyond the restart itself.
  if (route_mode) {
    if (FrontStat("counters", "fairem.route.failovers") < 1.0) {
      std::cerr << "FAIL: no failover recorded for the killed backend\n";
      exit_code = 1;
    }
    const std::string state_gauge =
        "fairem.route.backend." +
        SanitizeForFilename(BackendSocket(0)) + ".state";
    if (!WaitForGauge(state_gauge, 0.0, 30.0)) {
      std::cerr << "FAIL: killed backend never rejoined the router\n";
      exit_code = 1;
    }
  }

  // Post-load (and post-chaos) probe: the daemon must still answer, the
  // probed cell must eventually succeed (fresh requests draw fresh
  // failpoint streams), and a repeat must be byte-identical — served from
  // the parent-owned cache no worker crash can corrupt.
  {
    ServeClientOptions probe_options;
    probe_options.io_timeout_s = 60.0;
    Result<ServeClient> probe = ServeClient::Connect(kSocketPath,
                                                     probe_options);
    if (!probe.ok()) {
      std::cerr << "FAIL: post-load connect: " << probe.status() << "\n";
      exit_code = 1;
    } else {
      QueryRequest cell;
      cell.op = "cell";
      cell.dataset = kDataset;
      cell.matcher = kMatchers[0];
      cell.deadline_s = 60.0;
      RetryPolicy patient;
      patient.max_attempts = 4;
      std::string first_payload;
      for (int tries = 0; tries < 20 && first_payload.empty(); ++tries) {
        Result<QueryResponse> got = probe->CallWithRetry(cell, patient,
                                                         9000 + tries);
        if (got.ok() && got->status.ok()) first_payload = got->payload;
      }
      Result<QueryResponse> again = probe->CallWithRetry(cell, patient, 42);
      if (first_payload.empty()) {
        std::cerr << "FAIL: probed cell never succeeded\n";
        exit_code = 1;
      } else if (!again.ok() || !again->status.ok() ||
                 again->payload != first_payload) {
        std::cerr << "FAIL: repeated cell query was not byte-identical\n";
        exit_code = 1;
      }
      if (route_mode && !first_payload.empty()) {
        // Single-daemon equivalence: a surviving backend asked directly
        // must serve the exact bytes the router did.
        Result<ServeClient> direct =
            ServeClient::Connect(BackendSocket(1), probe_options);
        Result<QueryResponse> mine =
            direct.ok() ? direct->CallWithRetry(cell, patient, 44)
                        : Result<QueryResponse>(direct.status());
        if (!mine.ok() || !mine->status.ok() ||
            mine->payload != first_payload) {
          std::cerr << "FAIL: routed answer differs from a direct daemon "
                       "answer\n";
          exit_code = 1;
        }
      }
      QueryRequest stats;
      stats.op = "stats";
      Result<QueryResponse> snapshot = probe->CallWithRetry(stats, patient,
                                                            43);
      const char* stats_token = route_mode ? "fairem.route.queries_total"
                                           : "fairem.serve.requests_total";
      if (!snapshot.ok() || !snapshot->status.ok() ||
          snapshot->payload.find(stats_token) == std::string::npos) {
        std::cerr << "FAIL: stats query missing expected counters\n";
        exit_code = 1;
      }
    }
  }
  if (RawFrameDrill() != 0) exit_code = 1;

  // Cooperative drain: SIGTERM, expect exit 0 and the durable snapshot.
  // In route mode the router drains first (it still holds backend
  // connections), then the fleet.
  if (route_mode) {
    if (TerminateDaemon(router_pid, "router") != 0) exit_code = 1;
    for (int i = 0; i < kRouteBackends; ++i) {
      if (TerminateDaemon(backend_pids[i], "backend") != 0) exit_code = 1;
    }
  } else {
    if (TerminateDaemon(daemon_pid, "daemon") != 0) exit_code = 1;
  }

  Profiler::Global().ExportMetrics();
  Profiler::Global().ExportStageCpuGauges();
  EmitProcessResourceGauges();
  const char* snapshot_path =
      trace_mode ? (route_mode ? "BENCH_serve_route_trace.json"
                               : "BENCH_serve_trace.json")
                 : (route_mode ? "BENCH_serve_route.json"
                               : "BENCH_serve.json");
  if (Status st = MetricsRegistry::Global().WriteJsonFile(snapshot_path);
      !st.ok()) {
    FAIREM_LOG(WARN) << "could not write bench metrics snapshot"
                     << LogKv("status", st.ToString());
  }
  std::cout << (exit_code == 0 ? "serve bench OK\n" : "serve bench FAILED\n");
  return exit_code;
}

int Main(int argc, char** argv) {
  ServeOptions daemon;
  daemon.warm.datasets = {kDataset};
  daemon.max_inflight = 1;  // tight on purpose: force queueing + sheds
  daemon.max_queue = 2;
  daemon.default_deadline_s = 60.0;
  daemon.max_deadline_s = 120.0;
  daemon.io_timeout_s = 10.0;
  daemon.max_attempts = 3;
  bool route = false;
  bool trace = false;
  FlagSet extra;
  extra.Bool("--route", &route);
  extra.Bool("--trace", &trace);
  extra.String("--checkpoint_dir", &daemon.warm.checkpoint_dir, "DIR");
  const BenchFlags flags = ParseBenchFlags(argc, argv, std::move(extra));
  daemon.warm.scale = flags.scale;
  daemon.warm.seed = 1234 + flags.seed_offset;
  return Run(flags, daemon, route, trace);
}

}  // namespace
}  // namespace fairem

int main(int argc, char** argv) { return fairem::Main(argc, argv); }
