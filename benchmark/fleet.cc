#include "fleet.h"

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench_stats.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace.h"
#include "src/robust/checkpoint.h"
#include "src/route/router.h"
#include "src/serve/client.h"
#include "src/serve/server.h"

namespace fairem::bench {
namespace {

constexpr int kBackends = 2;
constexpr double kHitRatePerS = 50.0;
constexpr int kHitConns = 2;
constexpr int kMissConns = 1;

pid_t ForkInto(const std::function<Status()>& body) {
  std::cout.flush();
  std::cerr.flush();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // A fleet process inherits the traced run's tracer; its spans would
    // only pile up in memory it never exports.
    Tracer::Global().set_enabled(false);
    Tracer::Global().Clear();
    const Status st = body();
    if (!st.ok()) std::cerr << "fleet process failed: " << st << "\n";
    ::_exit(st.ok() ? 0 : 1);
  }
  return pid;
}

/// utime + stime + cutime + cstime of `pid`, in seconds.
double ProcCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(line.substr(close + 2));
  // Fields 3.. of proc(5): state is first; utime is field 14.
  std::string skip;
  for (int f = 3; f < 14; ++f) fields >> skip;
  long ticks[4] = {0, 0, 0, 0};
  for (long& t : ticks) fields >> t;
  const double hz = static_cast<double>(::sysconf(_SC_CLK_TCK));
  return static_cast<double>(ticks[0] + ticks[1] + ticks[2] + ticks[3]) / hz;
}

double SelfCpuSeconds() {
  rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
             1e6;
}

Status Terminate(pid_t pid, const char* what) {
  ::kill(pid, SIGTERM);
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) {
    return Status::Internal(std::string(what) + ": waitpid failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal(std::string(what) + " did not drain cleanly");
  }
  return Status::OK();
}

QueryRequest CellRequest(const CellQuery& q) {
  QueryRequest request;
  request.op = "cell";
  request.dataset = q.dataset;
  request.matcher = q.matcher;
  request.mode = q.pairwise ? "pairwise" : "single";
  return request;
}

/// One blocking connection per target socket, opened on first use.
class Conns {
 public:
  explicit Conns(const Fleet& fleet, Target target)
      : fleet_(fleet), target_(target) {}

  /// Sends `q` and waits for the answer; false on any failure (transport,
  /// non-OK status, or a payload that differs from the key's first one).
  bool Ask(const CellQuery& q, PayloadBook* book) {
    const std::string& socket = target_ == Target::kRouted
                                    ? fleet_.router_socket()
                                    : fleet_.OwnerOf(q.key);
    auto it = clients_.find(socket);
    if (it == clients_.end()) {
      ServeClientOptions options;
      options.io_timeout_s = 60.0;
      Result<ServeClient> client = ServeClient::Connect(socket, options);
      if (!client.ok()) return false;
      it = clients_.emplace(socket, std::move(*client)).first;
    }
    Result<QueryResponse> response = it->second.Call(CellRequest(q));
    if (!response.ok()) {
      clients_.erase(it);  // reconnect next time
      return false;
    }
    if (!response->status.ok()) return false;
    std::lock_guard<std::mutex> lock(book_mu_);
    return book->Check(q.key, response->payload);
  }

 private:
  const Fleet& fleet_;
  Target target_;
  std::map<std::string, ServeClient> clients_;
  static std::mutex book_mu_;
};

std::mutex Conns::book_mu_;

/// Sleeps until shortly before `t_s`, then spins: a woken thread can wait
/// for a core, and that delay would be the generator's, not the system's.
void SleepUntil(double t_s) {
  constexpr double kSpinS = 200e-6;
  const double wait = t_s - NowS() - kSpinS;
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
  while (NowS() < t_s) {
  }
}

/// Runs one open-loop hit stream connection: sends its share of `schedule`
/// at the due times until `keep_going(due_s)` says stop.
template <typename KeepGoing>
void HitSender(const Fleet& fleet, Target target,
               const std::vector<CellQuery>& hot,
               const std::vector<Arrival>& schedule, int conn, double t0,
               KeepGoing keep_going, PayloadBook* book,
               std::vector<HitSample>* hits, size_t* failed) {
  Conns conns(fleet, target);
  double prev_done = t0;
  for (const Arrival& a : schedule) {
    if (a.conn != conn) continue;
    if (!keep_going(a.due_s)) break;
    const double due = t0 + a.due_s;
    SleepUntil(due);
    const double sent_at = NowS();
    const bool ok = conns.Ask(hot[a.item], book);
    const double done = NowS();
    if (!ok) ++*failed;
    hits->push_back({a.due_s, LatencyFromDue(due, done) * 1e3,
                     GeneratorLateness(due, prev_done, sent_at) * 1e3});
    prev_done = done;
  }
}

/// Merges the connections' hits into one stream in due order.
std::vector<HitSample> Merge(
    const std::vector<std::vector<HitSample>>& per_conn) {
  std::vector<HitSample> hits;
  for (const auto& h : per_conn) hits.insert(hits.end(), h.begin(), h.end());
  std::sort(hits.begin(), hits.end(),
            [](const HitSample& a, const HitSample& b) {
              return a.due_s < b.due_s;
            });
  return hits;
}

}  // namespace

Result<std::unique_ptr<Fleet>> Fleet::Start(const FleetOptions& options,
                                            double timeout_s) {
  auto fleet = std::make_unique<Fleet>();
  for (int i = 0; i < kBackends; ++i) {
    ServeOptions serve;
    serve.socket_path = "b" + std::to_string(i) + ".sock";
    serve.warm.datasets = options.datasets;
    serve.warm.scale = options.scale;
    serve.warm.seed = options.seed;
    ::unlink(serve.socket_path.c_str());
    const pid_t pid = ForkInto([serve]() { return RunServeDaemon(serve); });
    if (pid < 0) return Status::Internal("fork failed for a daemon");
    fleet->daemon_pids_.push_back(pid);
    fleet->backend_sockets_.push_back(serve.socket_path);
  }
  RouteOptions route;
  route.socket_path = "r.sock";
  route.backends = fleet->backend_sockets_;
  ::unlink(route.socket_path.c_str());
  fleet->router_socket_ = route.socket_path;
  fleet->router_pid_ = ForkInto([route]() { return RunRouteDaemon(route); });
  if (fleet->router_pid_ < 0) return Status::Internal("fork failed: router");

  const double deadline = NowS() + timeout_s;
  for (const std::string& socket : fleet->backend_sockets_) {
    ServeClientOptions client_options;
    client_options.connect_timeout_s = timeout_s;
    client_options.io_timeout_s = timeout_s;
    Result<ServeClient> client = ServeClient::Connect(socket, client_options);
    if (!client.ok()) return client.status();
    QueryRequest ping;
    ping.op = "ping";
    Result<QueryResponse> pong = client->Call(ping);
    if (!pong.ok() || !pong->status.ok() || pong->payload != "pong") {
      return Status::Unavailable("daemon " + socket +
                                 " never finished warm-up");
    }
  }
  while (true) {
    Result<MetricsSnapshot> stats = FetchStats(fleet->router_socket_);
    if (stats.ok()) {
      auto it = stats->gauges.find("fairem.route.backends_usable");
      if (it != stats->gauges.end() && it->second >= kBackends) break;
    }
    if (NowS() > deadline) {
      return Status::Unavailable("router never saw every backend usable");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return fleet;
}

Fleet::~Fleet() {
  std::vector<pid_t> pids = daemon_pids_;
  if (router_pid_ > 0) pids.push_back(router_pid_);
  for (pid_t pid : pids) ::kill(pid, SIGKILL);
  for (pid_t pid : pids) ::waitpid(pid, nullptr, 0);
}

Status Fleet::Stop() {
  Status result = Status::OK();
  if (router_pid_ > 0) {
    Status st = Terminate(router_pid_, "router");
    if (!st.ok()) result = st;
    router_pid_ = -1;
  }
  for (pid_t pid : daemon_pids_) {
    Status st = Terminate(pid, "daemon");
    if (!st.ok()) result = st;
  }
  daemon_pids_.clear();
  return result;
}

const std::string& Fleet::OwnerOf(const std::string& key) const {
  size_t best = 0;
  for (size_t i = 1; i < backend_sockets_.size(); ++i) {
    if (RendezvousRank(key, backend_sockets_[i]) >
        RendezvousRank(key, backend_sockets_[best])) {
      best = i;
    }
  }
  return backend_sockets_[best];
}

double Fleet::CpuSeconds() const {
  double total = router_pid_ > 0 ? ProcCpuSeconds(router_pid_) : 0.0;
  for (pid_t pid : daemon_pids_) total += ProcCpuSeconds(pid);
  return total;
}

bool PayloadBook::Check(const std::string& key, const std::string& payload) {
  auto [it, inserted] = payloads_.emplace(key, payload);
  if (inserted || it->second == payload) return true;
  problems.push_back("payload of " + key + " changed between answers");
  return false;
}

std::vector<double> AskEach(const Fleet& fleet, Target target,
                            const std::vector<CellQuery>& queries,
                            PayloadBook* book, size_t* failed) {
  Conns conns(fleet, target);
  std::vector<double> ms;
  ms.reserve(queries.size());
  for (const CellQuery& q : queries) {
    double seconds = 0.0;
    {
      Span span(target == Target::kRouted ? "serve.request.routed"
                                          : "serve.request.direct",
                &seconds);
      span.AddArg("cell", q.key);
      if (!conns.Ask(q, book)) ++*failed;
    }
    ms.push_back(seconds * 1e3);
  }
  return ms;
}

PhaseResult RunMixedPhase(const Fleet& fleet, Target target, const Mix& mix,
                          uint64_t seed, PayloadBook* book) {
  PhaseResult result;
  // Generous schedule horizon; the stream stops once the misses are done.
  const std::vector<Arrival> schedule = PoissonSchedule(
      seed, kHitRatePerS, 150.0, kHitConns, mix.hot.size());
  const std::vector<size_t> order = SeededOrder(seed, mix.misses.size());

  std::atomic<size_t> next_miss{0};
  std::atomic<int> misses_running{kMissConns};
  std::mutex miss_mu;
  const double cpu0 = SelfCpuSeconds() + fleet.CpuSeconds();
  const double t0 = NowS();

  std::vector<std::vector<HitSample>> hits(kHitConns);
  std::vector<std::pair<std::string, double>> miss_lat;
  std::vector<size_t> failed(kHitConns + kMissConns, 0);
  std::vector<std::thread> pool;
  for (int c = 0; c < kHitConns; ++c) {
    pool.emplace_back([&, c]() {
      auto keep_going = [&](double due_s) {
        return misses_running.load() > 0 || due_s < mix.min_phase_s;
      };
      HitSender(fleet, target, mix.hot, schedule, c, t0, keep_going, book,
                &hits[c], &failed[c]);
    });
  }
  for (int m = 0; m < kMissConns; ++m) {
    const int slot = kHitConns + m;
    pool.emplace_back([&, slot]() {
      Conns conns(fleet, target);
      for (size_t i = next_miss.fetch_add(1); i < order.size();
           i = next_miss.fetch_add(1)) {
        const CellQuery& q = mix.misses[order[i]];
        const double start = NowS();
        const bool ok = conns.Ask(q, book);
        const double ms = (NowS() - start) * 1e3;
        if (!ok) ++failed[slot];
        std::lock_guard<std::mutex> lock(miss_mu);
        miss_lat.emplace_back(q.key, ms);
      }
      misses_running.fetch_sub(1);
    });
  }
  for (std::thread& t : pool) t.join();
  result.cpu_s = SelfCpuSeconds() + fleet.CpuSeconds() - cpu0;

  result.hits = Merge(hits);
  result.sent = result.hits.size() + miss_lat.size();
  for (size_t f : failed) result.failed += f;
  for (const auto& [key, ms] : miss_lat) {
    result.miss_ms.push_back(ms);
    result.miss_ms_by_key[key] = ms;
  }
  return result;
}

void RunHitRung(const Fleet& fleet, const std::vector<CellQuery>& hot,
                double rate_per_s, int conns, double duration_s,
                uint64_t seed, PayloadBook* book,
                std::vector<double>* latencies_ms, size_t* sent,
                size_t* failed) {
  const std::vector<Arrival> schedule =
      PoissonSchedule(seed, rate_per_s, duration_s, conns, hot.size());
  std::vector<std::vector<HitSample>> hits(conns);
  std::vector<size_t> bad(conns, 0);
  const double t0 = NowS() + 0.01;
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c]() {
      HitSender(fleet, Target::kRouted, hot, schedule, c, t0,
                [](double) { return true; }, book, &hits[c], &bad[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  const std::vector<HitSample> merged = Merge(hits);
  *latencies_ms = Latencies(merged);
  *sent += merged.size();
  for (size_t b : bad) *failed += b;
}

Result<MetricsSnapshot> FetchStats(const std::string& socket) {
  ServeClientOptions options;
  options.connect_timeout_s = 5.0;
  options.io_timeout_s = 10.0;
  FAIREM_ASSIGN_OR_RETURN(ServeClient client,
                          ServeClient::Connect(socket, options));
  QueryRequest request;
  request.op = "stats";
  FAIREM_ASSIGN_OR_RETURN(QueryResponse response, client.Call(request));
  FAIREM_RETURN_NOT_OK(response.status);
  return MetricsSnapshotFromJson(response.payload);
}

}  // namespace fairem::bench
