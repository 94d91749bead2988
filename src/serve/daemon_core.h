#ifndef FAIREM_SERVE_DAEMON_CORE_H_
#define FAIREM_SERVE_DAEMON_CORE_H_

#include <poll.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/slowlog.h"
#include "src/obs/trace.h"
#include "src/serve/protocol.h"
#include "src/util/result.h"

namespace fairem {

// The event-loop core under both `fairem serve` and `fairem route`
// (DESIGN.md §14): nonblocking UNIX sockets, framed connections, and a
// front end that owns the listener, the client connections, the shared
// request prelude, slow-client protection, and the drain. Each daemon adds
// only its policy on top — the serve daemon its admission queue and
// workers, the router its backends — through the DaemonFront hooks.

/// Binds a nonblocking, close-on-exec listener at `path`, replacing a
/// stale socket file (a live daemon would accept, so probing first would
/// be racy; one instance per path is the policy). kInvalidArgument for an
/// empty path or one that does not fit sun_path.
Result<int> ListenUnix(const std::string& path);

/// Nonblocking connect. A UNIX connect completes or fails at once, except
/// against a listener whose accept queue is full: that EAGAIN, a missing
/// path, and a refusal are all kUnavailable ("not up"), so no caller ever
/// blocks on a peer that stopped accepting. kInvalidArgument for a path
/// that does not fit sun_path.
Result<int> ConnectUnix(const std::string& path);

/// One framed stream on a nonblocking fd: the decoder for what arrived,
/// the outbuf of what is still owed, and the time of the last progress.
/// Owns the fd (closed on destruction; a moved-from conn is closed).
struct FramedConn {
  int fd = -1;
  FrameDecoder decoder;
  std::string outbuf;
  size_t out_sent = 0;
  double last_activity_s = 0.0;  // MonotonicSeconds() of the last IO

  FramedConn() = default;
  FramedConn(FramedConn&& other) noexcept;
  ~FramedConn();

  bool open() const { return fd >= 0; }
  bool has_pending_out() const { return out_sent < outbuf.size(); }

  /// Closes any current fd and adopts `new_fd` with empty buffers.
  void Reset(int new_fd);
  void Close() { Reset(-1); }

  /// Reads until EAGAIN, feeding the decoder. False once the peer is gone
  /// (EOF or a reset); bytes read before that stay decodable.
  bool ReadAvailable();
  /// Appends one encoded message to the outbuf (Flush sends it).
  void Queue(const char* type, const std::string& bytes);
  /// Writes until the outbuf is empty or the socket is full. False when
  /// the peer is gone (EPIPE/ECONNRESET; SIGPIPE must be ignored).
  bool Flush();
  /// Adds a poll entry (POLLIN, plus POLLOUT while output is owed) when
  /// the conn is open.
  void AddPollFd(std::vector<pollfd>* fds) const;
};

/// What both daemons track for one admitted query, admission to answer.
struct AdmittedQuery {
  uint64_t conn_id = 0;
  QueryRequest request;
  std::string key;
  double admitted_s = 0.0;  // MonotonicSeconds()
  double deadline_s = 0.0;  // absolute, MonotonicSeconds()
  // Tracing state (DESIGN.md §16). ctx is invalid for untraced queries and
  // every field below stays inert then — zero extra bytes on the wire.
  TraceContext ctx;
  std::string trace_hex;         // cached ctx.TraceIdHex()
  uint64_t request_span_id = 0;  // the hop span, minted at admission so
                                 // children can parent under it early
  int64_t admitted_unix_us = 0;
  std::vector<WireSpan> spans;   // completed spans of this hop
};

/// How a daemon names itself to the front end: span/slow-log process
/// label, metric namespace, and the three request-accounting counters.
struct FrontIdentity {
  const char* process;        // "daemon" | "router"
  const char* metric_prefix;  // "fairem.serve" | "fairem.route"
  const char* total_metric;   // every QREQ (and stray non-QREQ frame)
  const char* ok_metric;
  const char* failed_metric;
  /// Whether a kUnavailable answer (a shed) counts as failed.
  bool sheds_are_failures;
};

/// The front-end settings both option structs carry.
struct FrontSettings {
  std::string socket_path;
  double io_timeout_s = 10.0;
  double poll_interval_s = 0.01;
  double default_deadline_s = 30.0;
  double max_deadline_s = 120.0;
  std::string metrics_path;
  std::string slow_query_log;
  double slow_query_ms = 0.0;

  template <typename Options>
  static FrontSettings From(const Options& options) {
    return {options.socket_path,        options.io_timeout_s,
            options.poll_interval_s,    options.default_deadline_s,
            options.max_deadline_s,     options.metrics_path,
            options.slow_query_log,     options.slow_query_ms};
  }
};

/// The shared front end. Serve() binds the listener (before Warm(), so
/// early clients queue in the kernel backlog) and loops on one poll() until
/// a SIGTERM/SIGINT drain completes, then returns OK. Every iteration:
/// drain check, BeforePoll, poll over the listener + client conns +
/// AddPollFds, accept, client IO, AfterPoll, slow-client closes, gauges.
class DaemonFront {
 public:
  DaemonFront(const FrontIdentity& identity, FrontSettings settings);
  virtual ~DaemonFront();
  DaemonFront(const DaemonFront&) = delete;
  DaemonFront& operator=(const DaemonFront&) = delete;

  Status Serve();

 protected:
  // ----------------------------------------------------- daemon policy --
  /// Startup work after the listener is bound (warm state, ...).
  virtual Status Warm() = 0;
  /// Timers and dispatch before each poll; `now` is MonotonicSeconds().
  virtual void BeforePoll(double now) = 0;
  /// The owner's fds (worker pipes, backend connections) to poll on.
  virtual void AddPollFds(std::vector<pollfd>* fds) = 0;
  /// IO on the owner's fds after each poll.
  virtual void AfterPoll() = 0;
  /// Fills the load fields of a HLTH reply (id and transport are ours).
  virtual void FillHealth(HealthReport* reply) = 0;
  /// Any QREQ op other than ping/stats, already parsed.
  virtual void HandleQuery(uint64_t conn_id, const QueryRequest& request) = 0;
  /// Drain has begun: the listener is gone; shed what will never start.
  virtual void OnDrain() {}
  /// Work still owed to clients (blocks drain completion).
  virtual bool Busy() const = 0;
  virtual void UpdateGauges() = 0;

  // ------------------------------------------------ shared machinery --
  /// Fills the shared fields of an admitted query: deadline from the
  /// request (clamped to max, default when absent) and, when traced, the
  /// pre-minted hop span starting at `admit_unix_us`.
  void Admit(AdmittedQuery* query, uint64_t conn_id,
             const QueryRequest& request, std::string key,
             int64_t admit_unix_us) const;
  /// Answers an admitted query: observes request_seconds, closes the hop
  /// span (annotated with `annotations`) followed by the query's spans
  /// onto `response`, writes the slow-query event, and responds.
  void Finish(const AdmittedQuery& query, QueryResponse& response,
              std::vector<std::pair<std::string, std::string>> annotations);
  /// A one-shot hop span for a traced query answered without admission
  /// (sheds, cache hits), so even a refused query shows the hop that
  /// refused it. Spans [start_unix_us, now]; 0 makes it an instant at now.
  void AttachAdHocSpan(const QueryRequest& request, QueryResponse* response,
                       const char* outcome, int64_t start_unix_us = 0) const;
  /// Counts the answer, then queues and flushes it; a vanished client
  /// counts as a dropped response.
  void Respond(uint64_t conn_id, const QueryResponse& response);
  /// Queues and flushes one frame; false when the connection is gone.
  bool Send(uint64_t conn_id, const char* type, const std::string& bytes);

  bool draining() const { return draining_; }
  int listen_fd() const { return listen_fd_; }
  const std::map<uint64_t, FramedConn>& conns() const { return conns_; }

 private:
  struct Metrics {
    Counter* accepted;
    Counter* closed;
    Counter* client_disconnects;
    Counter* slow_client_closes;
    Counter* malformed_frames;
    Counter* total;
    Counter* ok;
    Counter* failed;
    Counter* responses_dropped;
    Counter* shutdowns;
    Gauge* connections;
    Histogram* request_seconds;
  };

  void Poll();
  void AcceptPending();
  void CloseConn(uint64_t conn_id);
  void FlushConn(uint64_t conn_id, FramedConn& conn);
  void PumpConnections();
  void ReadConn(uint64_t conn_id, FramedConn& conn);
  void HandleMessage(uint64_t conn_id, const ServeMessage& message);
  void CloseSlowClients();
  void RefreshGauges();
  void BeginDrain();
  bool DrainComplete() const;
  void FinishDrain();

  FrontIdentity identity_;
  FrontSettings settings_;
  Metrics metrics_;
  SlowQueryLogger slowlog_;
  int listen_fd_ = -1;
  uint64_t next_conn_id_ = 0;
  bool draining_ = false;
  std::map<uint64_t, FramedConn> conns_;
};

}  // namespace fairem

#endif  // FAIREM_SERVE_DAEMON_CORE_H_
