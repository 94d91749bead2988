#ifndef FAIREM_SERVE_CLIENT_H_
#define FAIREM_SERVE_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/obs/trace.h"
#include "src/robust/retry.h"
#include "src/serve/protocol.h"
#include "src/util/result.h"

namespace fairem {

// Blocking client for the `fairem serve` daemon. One connection, one
// request at a time. Every IO carries a deadline, so a wedged or
// overloaded daemon yields a definite error instead of a hang; kUnavailable
// (shed, draining, disconnect) is the retryable class and CallWithRetry
// handles it with jittered backoff, honoring the server's retry_after_s
// hint and transparently reconnecting when the daemon closed on us.

struct ServeClientOptions {
  /// Per-request socket IO budget (write + read each get this much).
  double io_timeout_s = 10.0;
  /// How long Connect keeps retrying while the daemon is still starting
  /// up (socket file absent / not yet listening).
  double connect_timeout_s = 10.0;
  /// Distributed tracing (DESIGN.md §16): mint a TraceContext per query,
  /// propagate it on QREQ, record client-side spans (query root, each
  /// attempt, each backoff sleep), and collect the cross-process spans the
  /// response piggybacks — available via last_spans() afterwards.
  bool trace = false;
  /// Invoked (on the calling thread, mid-Call) for each advisory PROG
  /// frame the server streams for the in-flight request. May be null.
  std::function<void(const ProgressUpdate&)> on_progress;
};

class ServeClient {
 public:
  /// Connects, retrying until the daemon listens or the timeout passes
  /// (kUnavailable then).
  static Result<ServeClient> Connect(const std::string& socket_path,
                                     const ServeClientOptions& options = {});

  ServeClient() = default;
  ServeClient(ServeClient&& other) noexcept;
  ServeClient& operator=(ServeClient&& other) noexcept;
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;
  ~ServeClient();

  /// One request/response round trip. A transport-level failure (daemon
  /// gone, IO deadline) surfaces as the Result status; a query-level
  /// failure arrives as an OK Result whose response.status is the error.
  /// Assigns and checks the correlation id.
  Result<QueryResponse> Call(const QueryRequest& request);

  /// Call, retrying kUnavailable outcomes (transport or response) under
  /// `policy`, sleeping max(jittered backoff, server retry_after_s hint)
  /// and reconnecting first when the transport failed. Other errors —
  /// including kDeadlineExceeded, which is definite — return immediately.
  /// Cumulative sleep is capped by the tighter of policy.deadline_seconds
  /// and request.deadline_s: a backoff that would overshoot it returns a
  /// prompt kDeadlineExceeded response naming the last error instead of
  /// sleeping past the deadline.
  Result<QueryResponse> CallWithRetry(const QueryRequest& request,
                                      const RetryPolicy& policy,
                                      uint64_t seed = 1234);

  bool connected() const { return fd_ >= 0; }
  void Close();

  /// The trace of the most recent traced query: its context (trace id) and
  /// every span collected — the client's own plus the ones the response
  /// carried from router/daemon/worker. Valid until the next traced query
  /// starts. Empty when options.trace is off.
  const TraceContext& last_trace() const { return last_trace_; }
  const std::vector<WireSpan>& last_spans() const { return last_spans_; }

 private:
  /// One transport round trip; records a "client.attempt" span and streams
  /// PROG frames when `ctx` is valid. `attempt` > 0 annotates the span.
  Result<QueryResponse> CallAttempt(const QueryRequest& request,
                                    const TraceContext& ctx, int attempt);

  std::string socket_path_;
  ServeClientOptions options_;
  int fd_ = -1;
  /// Bytes read from fd_ past the last message returned; reset with it.
  FrameDecoder decoder_;
  uint64_t next_id_ = 0;
  TraceContext last_trace_;
  std::vector<WireSpan> last_spans_;
};

}  // namespace fairem

#endif  // FAIREM_SERVE_CLIENT_H_
