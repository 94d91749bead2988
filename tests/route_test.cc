// End-to-end tests for the `fairem route` shard router (DESIGN.md §15).
// Every test forks real processes — N `fairem serve` daemons plus one
// router, each single-threaded and stopped with real signals — and talks
// to the router over its UNIX socket exactly like a client would, so
// rendezvous routing, health probes, circuit breakers, failover, hedging,
// degradation, and SIGHUP reload are all exercised through the production
// wire.
//
// The chaos lane (ctest `route_chaos`) reruns the *Chaos* tests with
// FAIREM_FAILPOINTS exported, which the forked backends inherit; without
// the env the Chaos test arms a default crash spec itself.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/robust/checkpoint.h"
#include "src/robust/failpoint.h"
#include "src/route/router.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/util/io_util.h"
#include "src/util/json.h"
#include "src/util/string_util.h"

namespace fairem {
namespace {

std::string FreshSocketPath(const std::string& leaf) {
  // sun_path is 108 bytes; /tmp keeps us far under even when TempDir is
  // a deep build path.
  std::string path = "/tmp/fairem_" + leaf + "." +
                     std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  return path;
}

ServeOptions SmallServeOptions(const std::string& socket_path) {
  ServeOptions options;
  options.socket_path = socket_path;
  options.warm.datasets = {"Cricket"};
  options.warm.scale = 0.25;
  options.default_deadline_s = 60.0;
  options.max_deadline_s = 120.0;
  return options;
}

RouteOptions SmallRouteOptions(const std::string& socket_path,
                               std::vector<std::string> backends) {
  RouteOptions options;
  options.socket_path = socket_path;
  options.backends = std::move(backends);
  // Tight knobs so death detection and breaker transitions finish inside a
  // test, not an SLO window.
  options.health_period_s = 0.1;
  options.health_timeout_s = 1.0;
  options.breaker_failure_threshold = 3;
  options.breaker_cooldown_s = 0.3;
  options.hedge_min_delay_s = 0.05;
  options.default_deadline_s = 60.0;
  options.max_deadline_s = 120.0;
  return options;
}

/// Forked `fairem serve` backend, SIGKILLable mid-test to simulate a dying
/// shard. Same shape as serve_test's DaemonHandle.
class BackendHandle {
 public:
  BackendHandle(const ServeOptions& options, const std::string& failpoints) {
    pid_ = ::fork();
    if (pid_ == 0) {
      if (!failpoints.empty()) {
        if (Status st = FailpointRegistry::Global().Configure(failpoints);
            !st.ok()) {
          ::_exit(2);
        }
      }
      Status st = RunServeDaemon(options);
      ::_exit(st.ok() ? 0 : 1);
    }
  }

  ~BackendHandle() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  /// SIGTERM + reap; returns the wait status (-1 when already stopped).
  int Stop() {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    int status = -1;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return status;
  }

  /// SIGKILL + reap: the crash case. The socket file stays behind, like a
  /// real dead daemon's would.
  void Kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

/// Forked `fairem route` front-end.
class RouterHandle {
 public:
  explicit RouterHandle(const RouteOptions& options) {
    pid_ = ::fork();
    if (pid_ == 0) {
      Status st = RunRouteDaemon(options);
      ::_exit(st.ok() ? 0 : 1);
    }
  }

  ~RouterHandle() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  int Stop() {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    int status = -1;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return status;
  }

  /// SIGTERM, then a bounded WNOHANG wait; a router still running after
  /// `timeout_s` is SIGKILLed and -1 is returned, so a wedged router fails
  /// the test promptly instead of hanging it.
  int StopWithin(double timeout_s) {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    const int rounds = static_cast<int>(timeout_s / 0.01) + 1;
    for (int i = 0; i < rounds; ++i) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return status;
      }
      ::usleep(10 * 1000);
    }
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return -1;
  }

  void Sighup() {
    if (pid_ > 0) ::kill(pid_, SIGHUP);
  }

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

Result<ServeClient> ConnectPatient(const std::string& socket_path) {
  ServeClientOptions options;
  options.io_timeout_s = 60.0;  // warmup + a cell compute fit comfortably
  options.connect_timeout_s = 60.0;
  return ServeClient::Connect(socket_path, options);
}

QueryRequest CellRequest(const std::string& matcher,
                         double deadline_s = 60.0) {
  QueryRequest request;
  request.op = "cell";
  request.dataset = "Cricket";
  request.matcher = matcher;
  request.deadline_s = deadline_s;
  return request;
}

/// One stats round trip against the router; returns the named counter or
/// gauge, or -1 when the stats call or the lookup fails.
double RouterStat(const std::string& router_socket,
                  const std::string& section, const std::string& name) {
  Result<ServeClient> client = ConnectPatient(router_socket);
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

/// Polls router stats until `pred(value)` holds; false on timeout.
template <typename Pred>
bool WaitForStat(const std::string& router_socket, const std::string& section,
                 const std::string& name, Pred pred, double timeout_s) {
  const int rounds = static_cast<int>(timeout_s / 0.05) + 1;
  for (int i = 0; i < rounds; ++i) {
    if (pred(RouterStat(router_socket, section, name))) return true;
    ::usleep(50 * 1000);
  }
  return false;
}

/// The per-backend breaker state gauge the router exports for `path`.
std::string BackendStateGauge(const std::string& path) {
  return "fairem.route.backend." + SanitizeForFilename(path) + ".state";
}

// ---------------------------------------------------------------------------
// Routing-table unit tests: no processes, just the pure functions.

TEST(RouteUnitTest, RendezvousRankIsDeterministicAndSpreads) {
  EXPECT_EQ(RendezvousRank("Cricket.single.DTMatcher", "/tmp/a.sock"),
            RendezvousRank("Cricket.single.DTMatcher", "/tmp/a.sock"));
  EXPECT_NE(RendezvousRank("Cricket.single.DTMatcher", "/tmp/a.sock"),
            RendezvousRank("Cricket.single.DTMatcher", "/tmp/b.sock"));
  // Keys spread: with 3 backends and 64 keys, no backend owns everything.
  const std::vector<std::string> backends = {"/tmp/a.sock", "/tmp/b.sock",
                                             "/tmp/c.sock"};
  std::set<std::string> winners;
  for (int i = 0; i < 64; ++i) {
    const std::string key = "Cricket.single.m" + std::to_string(i);
    std::string best;
    uint64_t best_rank = 0;
    for (const std::string& b : backends) {
      const uint64_t rank = RendezvousRank(key, b);
      if (best.empty() || rank > best_rank) {
        best = b;
        best_rank = rank;
      }
    }
    winners.insert(best);
  }
  EXPECT_EQ(winners.size(), backends.size());
}

TEST(RouteUnitTest, RendezvousOnlyRemapsKeysOfRemovedBackend) {
  // The rendezvous property the router's cache warmth rests on: dropping
  // backend c moves only the keys c owned; every other key keeps its
  // winner.
  const std::vector<std::string> all = {"/tmp/a.sock", "/tmp/b.sock",
                                        "/tmp/c.sock"};
  const std::vector<std::string> without_c = {"/tmp/a.sock", "/tmp/b.sock"};
  auto winner = [](const std::string& key,
                   const std::vector<std::string>& backends) {
    std::string best;
    uint64_t best_rank = 0;
    for (const std::string& b : backends) {
      const uint64_t rank = RendezvousRank(key, b);
      if (best.empty() || rank > best_rank) {
        best = b;
        best_rank = rank;
      }
    }
    return best;
  };
  int moved = 0;
  for (int i = 0; i < 256; ++i) {
    const std::string key = "Cricket.single.m" + std::to_string(i);
    const std::string before = winner(key, all);
    const std::string after = winner(key, without_c);
    if (before != "/tmp/c.sock") {
      EXPECT_EQ(after, before) << key;
    } else {
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);  // c owned something in 256 keys
}

TEST(RouteUnitTest, ParseBackendsListSkipsCommentsAndDuplicates) {
  const std::string text =
      "# fleet config\n"
      "/tmp/a.sock\n"
      "\n"
      "  /tmp/b.sock  \n"
      "/tmp/a.sock\n"
      "# /tmp/ghost.sock\n";
  const std::vector<std::string> parsed = ParseBackendsList(text);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0], "/tmp/a.sock");
  EXPECT_EQ(parsed[1], "/tmp/b.sock");
  EXPECT_TRUE(ParseBackendsList("").empty());
  EXPECT_TRUE(ParseBackendsList("# only comments\n\n").empty());
}

// ---------------------------------------------------------------------------
// End-to-end: real backends behind a real router.

TEST(RouteTest, RoutedAnswersMatchDirectDaemonAnswers) {
  IgnoreSigpipe();
  const std::string backend_a = FreshSocketPath("route_direct_a");
  const std::string backend_b = FreshSocketPath("route_direct_b");
  const std::string front = FreshSocketPath("route_direct_front");
  BackendHandle a(SmallServeOptions(backend_a), "");
  BackendHandle b(SmallServeOptions(backend_b), "");
  RouterHandle router(SmallRouteOptions(front, {backend_a, backend_b}));

  Result<ServeClient> client = ConnectPatient(front);
  ASSERT_TRUE(client.ok()) << client.status();

  // ping and stats are answered by the router itself.
  QueryRequest ping;
  ping.op = "ping";
  Result<QueryResponse> pong = client->Call(ping);
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_TRUE(pong->status.ok()) << pong->status;
  EXPECT_EQ(pong->payload, "pong");
  QueryRequest stats;
  stats.op = "stats";
  Result<QueryResponse> snapshot = client->Call(stats);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  ASSERT_TRUE(snapshot->status.ok()) << snapshot->status;
  EXPECT_NE(snapshot->payload.find("fairem.route.queries_total"),
            std::string::npos);

  // A routed cell answer is byte-identical to asking either daemon
  // directly: the backends are warmed identically and the computation is
  // deterministic, so the router adds no observable difference.
  for (const char* matcher : {"DTMatcher", "NBMatcher"}) {
    Result<QueryResponse> routed = client->Call(CellRequest(matcher));
    ASSERT_TRUE(routed.ok()) << routed.status();
    ASSERT_TRUE(routed->status.ok()) << routed->status;
    for (const std::string& path : {backend_a, backend_b}) {
      Result<ServeClient> direct = ConnectPatient(path);
      ASSERT_TRUE(direct.ok()) << direct.status();
      Result<QueryResponse> mine = direct->Call(CellRequest(matcher));
      ASSERT_TRUE(mine.ok()) << mine.status();
      ASSERT_TRUE(mine->status.ok()) << mine->status;
      EXPECT_EQ(routed->payload, mine->payload) << matcher << " via " << path;
    }
  }

  int status = router.Stop();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(WEXITSTATUS(a.Stop()), 0);
  EXPECT_EQ(WEXITSTATUS(b.Stop()), 0);
}

TEST(RouteTest, FailoverAfterBackendSigkill) {
  IgnoreSigpipe();
  const std::string backend_a = FreshSocketPath("route_kill_a");
  const std::string backend_b = FreshSocketPath("route_kill_b");
  const std::string front = FreshSocketPath("route_kill_front");
  BackendHandle a(SmallServeOptions(backend_a), "");
  BackendHandle b(SmallServeOptions(backend_b), "");
  RouterHandle router(SmallRouteOptions(front, {backend_a, backend_b}));

  Result<ServeClient> client = ConnectPatient(front);
  ASSERT_TRUE(client.ok()) << client.status();
  Result<QueryResponse> warm = client->Call(CellRequest("DTMatcher"));
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_TRUE(warm->status.ok()) << warm->status;

  // Kill one shard outright, then immediately query keys that may hash to
  // it: each must still succeed, via failover re-dispatch if the dead
  // backend was picked first.
  a.Kill();
  for (const char* matcher :
       {"DTMatcher", "NBMatcher", "SVMMatcher", "LogRegMatcher"}) {
    Result<QueryResponse> r = client->Call(CellRequest(matcher));
    ASSERT_TRUE(r.ok()) << matcher << ": " << r.status();
    EXPECT_TRUE(r->status.ok()) << matcher << ": " << r->status;
  }

  // Health probes notice the corpse and the usable count settles at 1
  // (the breaker may flap open -> half-open while probing, so wait for
  // the open observation rather than sampling once).
  EXPECT_TRUE(WaitForStat(front, "gauges", "fairem.route.backends_usable",
                          [](double v) { return v == 1.0; }, 20.0));
  EXPECT_TRUE(WaitForStat(front, "gauges", BackendStateGauge(backend_a),
                          [](double v) { return v >= 1.0; }, 20.0));

  int status = router.Stop();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(WEXITSTATUS(b.Stop()), 0);
}

TEST(RouteTest, KilledBackendRejoinsWithoutRouterRestart) {
  IgnoreSigpipe();
  const std::string backend_a = FreshSocketPath("route_rejoin_a");
  const std::string backend_b = FreshSocketPath("route_rejoin_b");
  const std::string front = FreshSocketPath("route_rejoin_front");
  auto a = std::make_unique<BackendHandle>(SmallServeOptions(backend_a), "");
  BackendHandle b(SmallServeOptions(backend_b), "");
  RouterHandle router(SmallRouteOptions(front, {backend_a, backend_b}));

  Result<ServeClient> client = ConnectPatient(front);
  ASSERT_TRUE(client.ok()) << client.status();
  Result<QueryResponse> warm = client->Call(CellRequest("DTMatcher"));
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_TRUE(warm->status.ok()) << warm->status;

  a->Kill();
  ASSERT_TRUE(WaitForStat(front, "gauges", BackendStateGauge(backend_a),
                          [](double v) { return v >= 1.0; }, 20.0));

  // Restart the shard on the same socket. The router's probes keep
  // flowing to an open backend, so the first one the revived daemon
  // answers closes its breaker — no router restart, no SIGHUP.
  a = std::make_unique<BackendHandle>(SmallServeOptions(backend_a), "");
  EXPECT_TRUE(WaitForStat(front, "gauges", BackendStateGauge(backend_a),
                          [](double v) { return v == 0.0; }, 30.0));
  EXPECT_TRUE(WaitForStat(front, "gauges", "fairem.route.backends_usable",
                          [](double v) { return v == 2.0; }, 20.0));
  for (const char* matcher : {"DTMatcher", "NBMatcher", "SVMMatcher"}) {
    Result<QueryResponse> r = client->Call(CellRequest(matcher));
    ASSERT_TRUE(r.ok()) << matcher << ": " << r.status();
    EXPECT_TRUE(r->status.ok()) << matcher << ": " << r->status;
  }

  int status = router.Stop();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(WEXITSTATUS(a->Stop()), 0);
  EXPECT_EQ(WEXITSTATUS(b.Stop()), 0);
}

TEST(RouteTest, AllBackendsDownYieldsStructuredErrorCell) {
  IgnoreSigpipe();
  // Both backends are socket paths nothing ever listened on: every
  // dispatch attempt fails immediately and the fleet is exhausted.
  const std::string backend_a = FreshSocketPath("route_down_a");
  const std::string backend_b = FreshSocketPath("route_down_b");
  const std::string front = FreshSocketPath("route_down_front");
  RouterHandle router(SmallRouteOptions(front, {backend_a, backend_b}));

  Result<ServeClient> client = ConnectPatient(front);
  ASSERT_TRUE(client.ok()) << client.status();

  // A cell query degrades to the paper's Table 9 "-" semantics: an OK
  // response whose payload is a parseable error-entry cell, so a report
  // built over a dead fleet renders dashes instead of crashing.
  Result<QueryResponse> r = client->Call(CellRequest("DTMatcher"));
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->status.ok()) << r->status;
  Result<GridCellCheckpoint> cell = GridCellFromJson(r->payload);
  ASSERT_TRUE(cell.ok()) << cell.status() << " payload=" << r->payload;
  EXPECT_EQ(cell->matcher, "DTMatcher");
  EXPECT_TRUE(cell->error);
  EXPECT_NE(cell->status.find("no backend available"), std::string::npos)
      << cell->status;

  // The router itself is healthy: ping answers and the degradation is
  // visible in its own metrics.
  QueryRequest ping;
  ping.op = "ping";
  Result<QueryResponse> pong = client->Call(ping);
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_TRUE(pong->status.ok()) << pong->status;
  EXPECT_GE(RouterStat(front, "counters", "fairem.route.degraded_answers"),
            1.0);

  int status = router.Stop();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(RouteTest, HedgedRequestBeatsHangingBackend) {
  IgnoreSigpipe();
  const std::string backend_a = FreshSocketPath("route_hedge_a");
  const std::string backend_b = FreshSocketPath("route_hedge_b");
  const std::string front = FreshSocketPath("route_hedge_front");
  // Backend a hangs on every cell compute; backend b is healthy. Keys
  // whose primary lands on a stall past the hedge delay, the hedge goes
  // to b, and the client still gets a fast, correct answer.
  BackendHandle a(SmallServeOptions(backend_a), "grid_cell=hang(1)");
  BackendHandle b(SmallServeOptions(backend_b), "");
  RouteOptions route = SmallRouteOptions(front, {backend_a, backend_b});
  route.hedge_min_delay_s = 0.05;
  RouterHandle router(route);

  Result<ServeClient> client = ConnectPatient(front);
  ASSERT_TRUE(client.ok()) << client.status();

  // Which keys rank a first depends on the (pid-stamped) socket paths, so
  // walk cells until the stats show a *won* hedge. A key whose primary is
  // the hanging backend must complete via its hedge to b, so waiting for
  // hedges_won (not hedges_started) is immune to slow-but-healthy primaries
  // starting hedges that lose. 16 independent keys make a miss (every key
  // ranking b first) vanishingly unlikely.
  const char* matchers[] = {"DTMatcher",     "NBMatcher",
                            "SVMMatcher",    "LogRegMatcher",
                            "RFMatcher",     "LinRegMatcher",
                            "BooleanRuleMatcher", "Dedupe"};
  bool hedge_won = false;
  for (const char* matcher : matchers) {
    for (const char* mode : {"single", "pairwise"}) {
      QueryRequest request = CellRequest(matcher, 30.0);
      request.mode = mode;
      Result<QueryResponse> r = client->Call(request);
      ASSERT_TRUE(r.ok()) << matcher << ": " << r.status();
      EXPECT_TRUE(r->status.ok()) << matcher << ": " << r->status;
      if (RouterStat(front, "counters", "fairem.route.hedges_won") >= 1.0) {
        hedge_won = true;
        break;
      }
    }
    if (hedge_won) break;
  }
  EXPECT_TRUE(hedge_won) << "no hedge won across 16 cell keys";
  EXPECT_GE(RouterStat(front, "counters", "fairem.route.hedges_started"), 1.0);

  int status = router.Stop();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(WEXITSTATUS(b.Stop()), 0);
}

TEST(RouteTest, SighupReloadAddsAndRemovesBackends) {
  IgnoreSigpipe();
  const std::string backend_a = FreshSocketPath("route_hup_a");
  const std::string backend_b = FreshSocketPath("route_hup_b");
  const std::string front = FreshSocketPath("route_hup_front");
  const std::string fleet_file =
      "/tmp/fairem_route_hup_fleet." + std::to_string(::getpid()) + ".txt";
  auto write_fleet = [&](const std::vector<std::string>& paths) {
    std::ofstream out(fleet_file, std::ios::trunc);
    out << "# fleet\n";
    for (const std::string& p : paths) out << p << "\n";
  };
  write_fleet({backend_a});

  BackendHandle a(SmallServeOptions(backend_a), "");
  BackendHandle b(SmallServeOptions(backend_b), "");
  RouteOptions route = SmallRouteOptions(front, {});
  route.backends_file = fleet_file;
  RouterHandle router(route);

  Result<ServeClient> client = ConnectPatient(front);
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(WaitForStat(front, "gauges", "fairem.route.backends",
                          [](double v) { return v == 1.0; }, 20.0));

  // Scale out: add b to the file and poke the router. No restart.
  write_fleet({backend_a, backend_b});
  router.Sighup();
  EXPECT_TRUE(WaitForStat(front, "gauges", "fairem.route.backends",
                          [](double v) { return v == 2.0; }, 20.0));
  EXPECT_GE(RouterStat(front, "counters", "fairem.route.reloads"), 1.0);

  // Scale in: drop a. Queries keep succeeding, now via b only.
  write_fleet({backend_b});
  router.Sighup();
  EXPECT_TRUE(WaitForStat(front, "gauges", "fairem.route.backends",
                          [](double v) { return v == 1.0; }, 20.0));
  for (const char* matcher : {"DTMatcher", "NBMatcher"}) {
    Result<QueryResponse> r = client->Call(CellRequest(matcher));
    ASSERT_TRUE(r.ok()) << matcher << ": " << r.status();
    EXPECT_TRUE(r->status.ok()) << matcher << ": " << r->status;
  }

  int status = router.Stop();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(WEXITSTATUS(a.Stop()), 0);
  EXPECT_EQ(WEXITSTATUS(b.Stop()), 0);
  ::unlink(fleet_file.c_str());
}

/// A backend that listens but never accepts: backlog 0 plus one pending
/// connection leaves its accept queue full, so every further connect to it
/// would block until the listener accepts — which it never does.
class StalledListener {
 public:
  explicit StalledListener(const std::string& path) : path_(path) {
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 0) != 0) {
      return;
    }
    pending_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ok_ = ::connect(pending_fd_, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) == 0;
  }

  ~StalledListener() {
    if (pending_fd_ >= 0) ::close(pending_fd_);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    ::unlink(path_.c_str());
  }

  bool ok() const { return ok_; }

 private:
  std::string path_;
  int listen_fd_ = -1;
  int pending_fd_ = -1;
  bool ok_ = false;
};

TEST(RouteTest, StalledBackendDoesNotFreezeRouter) {
  IgnoreSigpipe();
  const std::string live = FreshSocketPath("route_stall_live");
  const std::string stalled = FreshSocketPath("route_stall_dead");
  const std::string front = FreshSocketPath("route_stall_front");
  StalledListener stall(stalled);
  ASSERT_TRUE(stall.ok());
  BackendHandle a(SmallServeOptions(live), "");
  RouterHandle router(SmallRouteOptions(front, {live, stalled}));

  // Short IO budget: a router wedged in a connect() to the stalled backend
  // fails this test in seconds instead of at the ctest timeout.
  ServeClientOptions options;
  options.connect_timeout_s = 60.0;
  options.io_timeout_s = 3.0;
  Result<ServeClient> client = ServeClient::Connect(front, options);
  ASSERT_TRUE(client.ok()) << client.status();

  QueryRequest ping;
  ping.op = "ping";
  const auto ping_start = std::chrono::steady_clock::now();
  Result<QueryResponse> pong = client->Call(ping);
  const double ping_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - ping_start)
                            .count();
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_TRUE(pong->status.ok()) << pong->status;
  EXPECT_LT(ping_s, 1.0);

  // Cells whose rendezvous winner is the stalled backend must fail over to
  // the live one and answer exactly what the live daemon answers directly.
  Result<ServeClient> patient = ConnectPatient(front);
  ASSERT_TRUE(patient.ok()) << patient.status();
  Result<ServeClient> direct = ConnectPatient(live);
  ASSERT_TRUE(direct.ok()) << direct.status();
  int stalled_winners = 0;
  for (const char* matcher : {"DTMatcher", "NBMatcher", "SVMMatcher",
                              "LogRegMatcher", "RFMatcher", "LinRegMatcher",
                              "BooleanRuleMatcher", "Dedupe"}) {
    for (const char* mode : {"single", "pairwise"}) {
      const std::string key =
          std::string("Cricket.") + mode + "." + matcher;
      if (RendezvousRank(key, stalled) <= RendezvousRank(key, live)) continue;
      QueryRequest request = CellRequest(matcher);
      request.mode = mode;
      Result<QueryResponse> routed = patient->Call(request);
      ASSERT_TRUE(routed.ok()) << key << ": " << routed.status();
      ASSERT_TRUE(routed->status.ok()) << key << ": " << routed->status;
      Result<QueryResponse> mine = direct->Call(request);
      ASSERT_TRUE(mine.ok()) << key << ": " << mine.status();
      ASSERT_TRUE(mine->status.ok()) << key << ": " << mine->status;
      EXPECT_EQ(routed->payload, mine->payload) << key;
      if (++stalled_winners == 2) break;
    }
    if (stalled_winners == 2) break;
  }
  EXPECT_GT(stalled_winners, 0) << "no key ranked the stalled backend first";

  int status = router.StopWithin(10.0);
  ASSERT_NE(status, -1) << "router did not drain after SIGTERM";
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(WEXITSTATUS(a.Stop()), 0);
}

// ---------------------------------------------------------------------------
// Chaos: crash-failpoint backends behind the router (ctest `route_chaos`
// reruns this with FAIREM_FAILPOINTS exported to the whole tree).

TEST(RouteChaosTest, ChaosAnswersStayDefiniteAndByteIdentical) {
  IgnoreSigpipe();
  const std::string backend_a = FreshSocketPath("route_chaos_a");
  const std::string backend_b = FreshSocketPath("route_chaos_b");
  const std::string backend_c = FreshSocketPath("route_chaos_c");
  const std::string front = FreshSocketPath("route_chaos_front");
  // The chaos lane exports FAIREM_FAILPOINTS (the forked backends arm it
  // on first failpoint use); standalone runs inject a default crash mix.
  const char* env_spec = std::getenv("FAIREM_FAILPOINTS");
  const std::string spec = env_spec != nullptr ? "" : "grid_cell=crash(0.5)";
  ServeOptions serve_a = SmallServeOptions(backend_a);
  ServeOptions serve_b = SmallServeOptions(backend_b);
  ServeOptions serve_c = SmallServeOptions(backend_c);
  serve_a.max_attempts = serve_b.max_attempts = serve_c.max_attempts = 2;
  BackendHandle a(serve_a, spec);
  BackendHandle b(serve_b, spec);
  BackendHandle c(serve_c, spec);
  RouterHandle router(
      SmallRouteOptions(front, {backend_a, backend_b, backend_c}));

  Result<ServeClient> client = ConnectPatient(front);
  ASSERT_TRUE(client.ok()) << client.status();

  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.initial_backoff_seconds = 0.02;
  const char* matchers[] = {"BooleanRuleMatcher", "DTMatcher", "NBMatcher"};
  int definite = 0;
  for (int i = 0; i < 9; ++i) {
    QueryRequest request = (i % 3 == 0)
                               ? QueryRequest{}
                               : CellRequest(matchers[i % 3], 30.0);
    if (i % 3 == 0) request.op = "ping";
    Result<QueryResponse> r = client->CallWithRetry(request, retry, 100 + i);
    if (!r.ok()) {
      // Transport failure is definite too, but the client must recover.
      ASSERT_FALSE(r.status().ToString().empty());
    }
    ++definite;
    if (!client->connected()) {
      Result<ServeClient> fresh = ConnectPatient(front);
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      *client = std::move(*fresh);
    }
  }
  EXPECT_EQ(definite, 9);

  // Post-chaos: the probed cell must eventually succeed (fresh worker
  // spawns draw fresh failpoint streams) and then repeat byte-identically
  // no matter which backend serves it.
  std::string first;
  for (int tries = 0; tries < 30 && first.empty(); ++tries) {
    Result<QueryResponse> r = client->CallWithRetry(
        CellRequest("DTMatcher", 30.0), retry, 500 + tries);
    if (r.ok() && r->status.ok()) first = r->payload;
    if (!client->connected()) {
      Result<ServeClient> fresh = ConnectPatient(front);
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      *client = std::move(*fresh);
    }
  }
  ASSERT_FALSE(first.empty()) << "cell never succeeded under chaos";
  Result<QueryResponse> again =
      client->CallWithRetry(CellRequest("DTMatcher", 30.0), retry, 999);
  ASSERT_TRUE(again.ok()) << again.status();
  ASSERT_TRUE(again->status.ok()) << again->status;
  EXPECT_EQ(again->payload, first);

  int status = router.Stop();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(WEXITSTATUS(a.Stop()), 0);
  EXPECT_EQ(WEXITSTATUS(b.Stop()), 0);
  EXPECT_EQ(WEXITSTATUS(c.Stop()), 0);
}

}  // namespace
}  // namespace fairem
