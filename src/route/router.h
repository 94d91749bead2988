#ifndef FAIREM_ROUTE_ROUTER_H_
#define FAIREM_ROUTE_ROUTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/result.h"
#include "src/util/status.h"

namespace fairem {

// The shard router (`fairem route`, DESIGN.md §15): a front-end daemon that
// fans queries out across N `fairem serve` backends and wraps each one in a
// robustness envelope, so a fleet of daemons presents as one reliable
// endpoint. It speaks the same framed protocol as the daemons on both
// sides — ServeClient talks to a router or a daemon unchanged.
//
//   * Rendezvous routing: each query's cell key ranks every backend by
//     RendezvousRank and the highest usable one wins, so cache warmth
//     survives membership changes — adding or removing a backend only
//     moves the keys that hashed to it, never reshuffles the rest.
//   * Health checks: every backend gets an active HLTH probe on a jittered
//     period over a persistent connection; a probe timeout or transport
//     error counts against the backend like a failed query.
//   * Circuit breakers: consecutive failures (probes or queries) open a
//     per-backend breaker; while open the backend is skipped at routing
//     time. Probes keep flowing regardless, so a recovered backend closes
//     its breaker and rejoins without a router restart.
//   * Failover: a query whose backend dies mid-flight, refuses
//     (kUnavailable shed/drain), or cannot be reached is re-dispatched to
//     the next-ranked backend it has not tried yet, within its deadline.
//   * Hedging: when enabled, a query still unanswered after a delay
//     derived from the observed backend-call p95 gets a second request on
//     a different backend; the first answer wins and the loser is
//     cancelled. Tames tail latency from a slow-but-alive backend.
//   * Graceful degradation: when every backend for a cell is exhausted, a
//     cell query returns the structured error-entry answer (the paper's
//     Table 9 "-" semantics) instead of hanging or dropping.
//   * Live membership: SIGHUP re-reads `backends_file` and applies
//     adds/removes in place; surviving backends keep their breaker and
//     probe state.
//
// Runs on the daemon's event-loop core (src/serve/daemon_core.h, DESIGN.md
// §14); backend connects are nonblocking, so a backend that stops
// accepting costs a failover, never a stalled loop. Metrics land under
// fairem.route.*.

struct RouteOptions {
  /// Front UNIX-domain socket clients connect to. A stale file from a dead
  /// router is replaced.
  std::string socket_path;
  /// Backend daemon socket paths (static membership).
  std::vector<std::string> backends;
  /// Optional file of backend socket paths, one per line ('#' comments).
  /// Read at startup (union with `backends`) and re-read on SIGHUP.
  std::string backends_file;
  /// Mean period between health probes per backend; each interval is
  /// jittered to [0.5, 1.5) of this so probes never synchronize.
  double health_period_s = 0.5;
  /// A probe unanswered for this long counts as a backend failure.
  double health_timeout_s = 2.0;
  /// Consecutive failures that open a backend's breaker.
  int breaker_failure_threshold = 3;
  /// Seconds a breaker stays open before allowing trial traffic.
  double breaker_cooldown_s = 1.0;
  /// Hedged second requests (off leaves only failover re-dispatch).
  bool hedge = true;
  /// Floor for the hedge delay, which otherwise tracks the observed
  /// backend-call p95; also used before enough calls have been observed
  /// to estimate it.
  double hedge_min_delay_s = 0.05;
  /// Routed queries in flight at once; past this, arrivals are shed with a
  /// retryable kUnavailable and a load-aware retry_after_s hint.
  int max_inflight_jobs = 64;
  double default_deadline_s = 30.0;
  double max_deadline_s = 120.0;
  /// Per-connection IO activity deadline (slow-client protection).
  double io_timeout_s = 10.0;
  /// Base backoff hint shipped with kUnavailable sheds.
  double retry_after_s = 0.05;
  double poll_interval_s = 0.01;
  /// When non-empty, the final metrics snapshot is written here durably as
  /// the last step of the drain.
  std::string metrics_path;
  /// Slow-query log (DESIGN.md §16): routed queries slower than
  /// slow_query_ms end-to-end get one wide-event JSON line (trace id, op,
  /// key, status, span breakdown) appended to slow_query_log, rate-limited.
  /// Disabled when slow_query_ms <= 0 or the path is empty.
  double slow_query_ms = 0.0;
  std::string slow_query_log;
};

/// Runs the router until a SIGTERM/SIGINT drain completes. Returns OK after
/// a clean drain; an error Status when the front socket cannot be set up or
/// no backend is configured. Installs its own ShutdownGuard and SIGHUP
/// handler and ignores SIGPIPE.
Status RunRouteDaemon(const RouteOptions& options);

/// Rendezvous (highest-random-weight) rank of `backend` for `cell_key`:
/// a stable 64-bit hash of the pair. Routing sends a key to the usable
/// backend with the highest rank, so membership changes only remap keys
/// whose winner changed. Deterministic across processes and runs (no
/// std::hash, whose value is unspecified across implementations).
uint64_t RendezvousRank(const std::string& cell_key,
                        const std::string& backend);

/// Parses a backends file: one socket path per line, blank lines and
/// '#'-comments skipped, surrounding whitespace trimmed, duplicates
/// dropped (first occurrence wins).
std::vector<std::string> ParseBackendsList(const std::string& text);

}  // namespace fairem

#endif  // FAIREM_ROUTE_ROUTER_H_
