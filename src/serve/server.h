#ifndef FAIREM_SERVE_SERVER_H_
#define FAIREM_SERVE_SERVER_H_

#include <string>

#include "src/serve/warm_state.h"
#include "src/util/result.h"

namespace fairem {

// The always-on audit daemon (`fairem serve`): a long-lived process that
// owns warmed state — generated datasets, checkpointed cell results — and
// answers concurrent queries over a UNIX-domain socket speaking the framed
// protocol in src/serve/protocol.h. Robustness posture (DESIGN.md §14):
//
//   * Bounded admission: at most `max_inflight` queries compute at once and
//     at most `max_queue` wait; past that, requests are shed immediately
//     with a retryable kUnavailable carrying a retry_after_s hint.
//   * End-to-end deadlines: every query carries one (client-requested,
//     clamped to `max_deadline_s`, defaulting to `default_deadline_s`).
//     Expiry is enforced while queued AND while computing — a worker past
//     its deadline is SIGKILLed by the watchdog. Either way the client gets
//     a definite kDeadlineExceeded, never a hang.
//   * Crash isolation: cell queries run in forked worker processes under
//     rlimits. A crashing worker is respawned up to `max_attempts`; budget
//     exhaustion degrades to a structured kInternal reply. Warm state
//     lives only in the parent, so workers can never corrupt it.
//   * Slow-client protection: per-connection IO activity deadlines; a peer
//     that stalls mid-frame or never drains its responses is disconnected.
//     EPIPE/ECONNRESET on write is a clean client-disconnect, not an error.
//   * Cooperative drain: SIGTERM/SIGINT stops accepting, sheds the queue
//     (kUnavailable "draining"), lets in-flight queries finish or
//     deadline-out, flushes responses, then durably writes the final
//     metrics snapshot to `metrics_path` and returns OK.
//
// The daemon loop is single-threaded (one poll() over the listener, every
// connection, and every worker pipe; the shared core in
// src/serve/daemon_core.h); concurrency comes from the forked workers,
// never from threads.

struct ServeOptions {
  /// UNIX-domain socket path. A stale file from a dead daemon is replaced.
  std::string socket_path;
  WarmStateOptions warm;
  /// Queries computing in forked workers at once.
  int max_inflight = 2;
  /// Admitted-but-not-started queries; arrivals past this are shed.
  int max_queue = 8;
  double default_deadline_s = 30.0;
  double max_deadline_s = 120.0;
  /// Per-connection IO activity deadline (slow-client protection).
  double io_timeout_s = 10.0;
  /// Backoff hint shipped with kUnavailable sheds.
  double retry_after_s = 0.05;
  /// Spawn attempts per query including the first; crashes respawn until
  /// the budget or the query deadline runs out.
  int max_attempts = 2;
  /// RLIMIT_AS / RLIMIT_CPU for query workers (0 disables).
  int worker_max_rss_mb = 0;
  int worker_max_cpu_s = 0;
  double poll_interval_s = 0.01;
  /// When non-empty, the final metrics snapshot is written here durably
  /// (temp + rename + fsync) as the last step of the drain.
  std::string metrics_path;
  /// Slow-query log (DESIGN.md §16): queries that take longer than
  /// slow_query_ms end-to-end get one wide-event JSON line (trace id, op,
  /// key, status, span breakdown) appended to slow_query_log, rate-limited.
  /// Disabled when slow_query_ms <= 0 or the path is empty.
  double slow_query_ms = 0.0;
  std::string slow_query_log;
  /// Minimum spacing of advisory PROG frames streamed to the client of a
  /// traced in-flight query (progress %, ETA from the cell-duration
  /// histogram). <= 0 disables progress streaming.
  double progress_interval_s = 0.25;
};

/// Runs the daemon until a SIGTERM/SIGINT drain completes. Returns OK after
/// a clean drain; an error Status when the socket cannot be set up or warm
/// state cannot be built. Installs its own ShutdownGuard and ignores
/// SIGPIPE. Metrics land under fairem.serve.*.
Status RunServeDaemon(const ServeOptions& options);

/// The retry_after_s hint shipped with a queue-full shed, scaled by load so
/// a fleet of retrying clients (or a router doing backpressure) converges
/// instead of hammering a saturated daemon at the base period. Monotone
/// non-decreasing in queue_depth and inflight, equal to `base` at zero
/// load, and bounded by 3x base (base + one full queue + full inflight).
/// Degenerate capacities (max <= 0) contribute nothing.
double LoadAwareRetryAfterS(double base, int queue_depth, int max_queue,
                            int inflight, int max_inflight);

}  // namespace fairem

#endif  // FAIREM_SERVE_SERVER_H_
