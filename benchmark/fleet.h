#ifndef FAIREM_BENCHMARK_FLEET_H_
#define FAIREM_BENCHMARK_FLEET_H_

// The serve side of the benchmark: a router fronting N `fairem serve`
// daemons (forked, running the product entry points RunServeDaemon and
// RunRouteDaemon with the CLI's default options), and the load generator
// that drives it through ServeClient.

#include <sys/types.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "src/obs/metrics.h"
#include "src/util/result.h"

namespace fairem::bench {

/// Every daemon warms `datasets` at `scale`; `seed` is their datagen
/// seed_offset and cell seed (WarmStateOptions::seed). The fleet is a
/// router in front of two daemons.
struct FleetOptions {
  std::vector<std::string> datasets;
  double scale = 1.0;
  uint64_t seed = 0;
};

class Fleet {
 public:
  /// Forks the daemons and the router in the current directory (sockets are
  /// relative paths; the forked processes trace nothing), then waits until
  /// every daemon has answered a direct ping — a daemon accepts connections
  /// before its warm-up ends and answers only after — and the router counts
  /// every backend usable.
  /// A fleet that is not ready within `timeout_s` is torn down and the call
  /// fails, so no measured phase ever starts against a warming fleet.
  static Result<std::unique_ptr<Fleet>> Start(const FleetOptions& options,
                                              double timeout_s);

  Fleet() = default;
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// SIGTERM to the router, then the daemons; waits for each. Fails when a
  /// process did not drain to exit code 0.
  Status Stop();

  const std::string& router_socket() const { return router_socket_; }
  const std::vector<std::string>& backend_sockets() const {
    return backend_sockets_;
  }
  /// The backend a cell key routes to while every backend is healthy: the
  /// highest RendezvousRank, as the router picks it.
  const std::string& OwnerOf(const std::string& key) const;

  /// User+system CPU seconds of every fleet process and its reaped workers
  /// so far, from /proc (10 ms resolution).
  double CpuSeconds() const;

 private:
  std::string router_socket_;
  std::vector<std::string> backend_sockets_;
  std::vector<pid_t> daemon_pids_;
  pid_t router_pid_ = -1;
};

/// One audit cell as a query.
struct CellQuery {
  std::string dataset;
  std::string matcher;
  bool pairwise = false;
  std::string key;  // AuditCellKey
};

/// The queries of one measured phase, a synthetic mix. Hits are drawn from
/// `hot` (prewarmed in set-up) on a seeded Poisson schedule, 50 req/s over
/// two connections; each of `misses` is asked once in a seeded order by one
/// closed-loop client — an analyst asking for cells in turn. (Two such
/// clients would keep four workers busy, as the router hedges slow misses
/// onto the other backend, and starve the hit generator on a 4-core host.)
struct Mix {
  std::vector<CellQuery> hot;
  std::vector<CellQuery> misses;
  /// The hit stream runs until every miss is answered and at least this
  /// long.
  double min_phase_s = 5.5;
};

/// Where a query goes: the router, or (for direct measurements) the backend
/// that owns its key.
enum class Target { kRouted, kDirect };

/// Everything one phase measured. Latencies in milliseconds.
struct PhaseResult {
  std::vector<HitSample> hits;  // in due order
  std::vector<double> miss_ms;
  std::map<std::string, double> miss_ms_by_key;
  double cpu_s = 0.0;  // load generator + fleet, over the phase
  size_t sent = 0;
  size_t failed = 0;
};

/// Checks answers: every payload of a key must be byte-identical to the
/// first one seen for that key, in this process.
class PayloadBook {
 public:
  /// Records the payload; false (and a problem line) when it differs from
  /// the one already recorded for `key`.
  bool Check(const std::string& key, const std::string& payload);
  const std::map<std::string, std::string>& payloads() const {
    return payloads_;
  }
  std::vector<std::string> problems;

 private:
  std::map<std::string, std::string> payloads_;
};

/// Asks every query once over one connection (set-up prewarm, probes), each
/// in a "serve.request.routed" / "serve.request.direct" span. Returns
/// per-query latency in ms, aligned with `queries`; failures are counted in
/// `*failed`.
std::vector<double> AskEach(const Fleet& fleet, Target target,
                            const std::vector<CellQuery>& queries,
                            PayloadBook* book, size_t* failed);

/// The measured open-loop phase: hit stream plus closed-loop misses. No
/// spans inside: per-request bookkeeping would perturb the open loop.
PhaseResult RunMixedPhase(const Fleet& fleet, Target target, const Mix& mix,
                          uint64_t seed, PayloadBook* book);

/// Hit-only open-loop rung at `rate_per_s` over `conns` connections for
/// `duration_s`; fills latencies (ms) and counts.
void RunHitRung(const Fleet& fleet, const std::vector<CellQuery>& hot,
                double rate_per_s, int conns, double duration_s,
                uint64_t seed, PayloadBook* book,
                std::vector<double>* latencies_ms, size_t* sent,
                size_t* failed);

/// The `stats` snapshot of one socket (router or daemon).
Result<MetricsSnapshot> FetchStats(const std::string& socket);

}  // namespace fairem::bench

#endif  // FAIREM_BENCHMARK_FLEET_H_
