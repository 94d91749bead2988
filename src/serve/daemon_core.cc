#include "src/serve/daemon_core.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/obs/log.h"
#include "src/robust/supervisor.h"
#include "src/util/durable_file.h"
#include "src/util/io_util.h"

namespace fairem {
namespace {

constexpr int kListenBacklog = 64;

/// Fills `addr` for `path`; kInvalidArgument when it cannot fit.
Status UnixAddress(const std::string& path, sockaddr_un* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr->sun_path)) {
    return Status::InvalidArgument("socket path empty or too long: '" + path +
                                   "'");
  }
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return Status::OK();
}

Result<int> UnixSocket() {
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  return fd;
}

}  // namespace

Result<int> ListenUnix(const std::string& path) {
  sockaddr_un addr;
  FAIREM_RETURN_NOT_OK(UnixAddress(path, &addr));
  FAIREM_ASSIGN_OR_RETURN(int fd, UnixSocket());
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, kListenBacklog) != 0) {
    Status failed = Status::IOError("listen on '" + path +
                                    "' failed: " + std::strerror(errno));
    ::close(fd);
    return failed;
  }
  return fd;
}

Result<int> ConnectUnix(const std::string& path) {
  sockaddr_un addr;
  FAIREM_RETURN_NOT_OK(UnixAddress(path, &addr));
  FAIREM_ASSIGN_OR_RETURN(int fd, UnixSocket());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    return fd;
  }
  const int err = errno;
  ::close(fd);
  // ENOENT: not bound (yet). ECONNREFUSED: not listening, or a dead
  // daemon's stale file. EAGAIN: its accept queue is full — a blocking
  // connect would wait for an accept that may never come.
  if (err == ENOENT || err == ECONNREFUSED || err == EAGAIN) {
    return Status::Unavailable("'" + path + "' not up: " + std::strerror(err));
  }
  return Status::IOError("connect('" + path + "') failed: " +
                         std::strerror(err));
}

// ------------------------------------------------------------ FramedConn --

FramedConn::FramedConn(FramedConn&& other) noexcept
    : fd(std::exchange(other.fd, -1)),
      decoder(std::move(other.decoder)),
      outbuf(std::move(other.outbuf)),
      out_sent(other.out_sent),
      last_activity_s(other.last_activity_s) {}

FramedConn::~FramedConn() {
  if (fd >= 0) ::close(fd);
}

void FramedConn::Reset(int new_fd) {
  if (fd >= 0) ::close(fd);
  fd = new_fd;
  decoder = FrameDecoder();
  outbuf.clear();
  out_sent = 0;
  if (new_fd >= 0) last_activity_s = MonotonicSeconds();
}

bool FramedConn::ReadAvailable() {
  char buf[65536];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      last_activity_s = MonotonicSeconds();
      decoder.Feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // EOF, ECONNRESET and friends: the peer is gone.
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
}

void FramedConn::Queue(const char* type, const std::string& bytes) {
  outbuf.append(EncodeServeMessage(type, bytes));
}

bool FramedConn::Flush() {
  while (has_pending_out()) {
    ssize_t n = ::write(fd, outbuf.data() + out_sent, outbuf.size() - out_sent);
    if (n > 0) {
      out_sent += static_cast<size_t>(n);
      last_activity_s = MonotonicSeconds();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  outbuf.clear();
  out_sent = 0;
  return true;
}

void FramedConn::AddPollFd(std::vector<pollfd>* fds) const {
  if (fd < 0) return;
  const short events = has_pending_out() ? POLLIN | POLLOUT : POLLIN;
  fds->push_back({fd, events, 0});
}

// ----------------------------------------------------------- DaemonFront --

DaemonFront::DaemonFront(const FrontIdentity& identity,
                         FrontSettings settings)
    : identity_(identity),
      settings_(std::move(settings)),
      slowlog_(settings_.slow_query_log, settings_.slow_query_ms) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const std::string prefix = std::string(identity.metric_prefix) + ".";
  metrics_.accepted = reg.GetCounter(prefix + "connections_accepted");
  metrics_.closed = reg.GetCounter(prefix + "connections_closed");
  metrics_.client_disconnects = reg.GetCounter(prefix + "client_disconnects");
  metrics_.slow_client_closes = reg.GetCounter(prefix + "slow_client_closes");
  metrics_.malformed_frames = reg.GetCounter(prefix + "malformed_frames");
  metrics_.total = reg.GetCounter(prefix + identity.total_metric);
  metrics_.ok = reg.GetCounter(prefix + identity.ok_metric);
  metrics_.failed = reg.GetCounter(prefix + identity.failed_metric);
  metrics_.responses_dropped = reg.GetCounter(prefix + "responses_dropped");
  metrics_.shutdowns = reg.GetCounter(prefix + "shutdowns");
  metrics_.connections = reg.GetGauge(prefix + "connections");
  metrics_.request_seconds = reg.GetHistogram(prefix + "request_seconds");
}

DaemonFront::~DaemonFront() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!settings_.socket_path.empty()) {
    ::unlink(settings_.socket_path.c_str());
  }
}

Status DaemonFront::Serve() {
  FAIREM_ASSIGN_OR_RETURN(listen_fd_, ListenUnix(settings_.socket_path));
  FAIREM_RETURN_NOT_OK(Warm());
  while (true) {
    if (ShutdownGuard::requested() && !draining_) BeginDrain();
    BeforePoll(MonotonicSeconds());
    if (draining_ && DrainComplete()) break;
    Poll();
    AcceptPending();
    PumpConnections();
    AfterPoll();
    CloseSlowClients();
    RefreshGauges();
  }
  FinishDrain();
  return Status::OK();
}

void DaemonFront::Poll() {
  std::vector<pollfd> fds;
  fds.reserve(1 + conns_.size());
  if (listen_fd_ >= 0) fds.push_back({listen_fd_, POLLIN, 0});
  for (const auto& [id, conn] : conns_) conn.AddPollFd(&fds);
  AddPollFds(&fds);
  int timeout_ms = static_cast<int>(settings_.poll_interval_s * 1000.0);
  if (timeout_ms < 1) timeout_ms = 1;
  // EINTR (a drain or reload signal landing) just re-enters the loop,
  // which checks the latches at the top.
  (void)::poll(fds.empty() ? nullptr : fds.data(),
               static_cast<nfds_t>(fds.size()), timeout_ms);
}

void DaemonFront::AcceptPending() {
  if (listen_fd_ < 0) return;
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error: retry next loop
    }
    conns_[++next_conn_id_].Reset(fd);
    metrics_.accepted->Increment();
  }
}

void DaemonFront::CloseConn(uint64_t conn_id) {
  if (conns_.erase(conn_id) != 0) metrics_.closed->Increment();
}

void DaemonFront::FlushConn(uint64_t conn_id, FramedConn& conn) {
  if (conn.Flush()) return;
  // EPIPE/ECONNRESET: the client went away — a clean disconnect, not a
  // daemon error (SIGPIPE is ignored process-wide).
  metrics_.client_disconnects->Increment();
  CloseConn(conn_id);
}

void DaemonFront::PumpConnections() {
  // Snapshot ids: handlers can close connections while we iterate.
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (uint64_t id : ids) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    ReadConn(id, it->second);
    it = conns_.find(id);
    if (it != conns_.end()) FlushConn(id, it->second);
  }
}

void DaemonFront::ReadConn(uint64_t conn_id, FramedConn& conn) {
  const bool open = conn.ReadAvailable();
  for (;;) {
    ServeMessage message;
    Result<FrameDecoder::Next> next = conn.decoder.TryNext(&message);
    if (!next.ok()) {
      // A corrupt length-prefixed stream cannot be resynchronized; all we
      // owe the peer is a prompt close instead of a hang.
      metrics_.malformed_frames->Increment();
      FAIREM_LOG(WARN) << "closing connection on malformed frame"
                       << LogKv("conn", conn_id)
                       << LogKv("status", next.status().ToString());
      CloseConn(conn_id);
      return;
    }
    if (*next == FrameDecoder::Next::kNeedMore) break;
    HandleMessage(conn_id, message);
    if (conns_.count(conn_id) == 0) return;
  }
  if (!open) {
    metrics_.client_disconnects->Increment();
    CloseConn(conn_id);
  }
}

void DaemonFront::HandleMessage(uint64_t conn_id,
                                const ServeMessage& message) {
  if (message.type == kFrameHealth) {
    // Health probes bypass admission and request accounting: a prober
    // needs an honest liveness/load answer precisely when the queue is
    // full. A malformed probe body still gets a reply (id 0) — the reply
    // itself proves liveness.
    Result<HealthReport> probe = ParseHealthReport(message.bytes);
    HealthReport reply;
    if (probe.ok()) reply.id = probe->id;
    FillHealth(&reply);
    Send(conn_id, kFrameHealth, SerializeHealthReport(reply));
    return;
  }
  // PROG is advisory and flows toward clients; one arriving here is a
  // confused-but-harmless peer. Closing would turn a best-effort frame
  // into a query failure.
  if (message.type == kFrameProgress) return;
  metrics_.total->Increment();
  if (message.type != kFrameQueryRequest) {
    // A response frame sent at a server is a confused peer; drop it.
    metrics_.malformed_frames->Increment();
    CloseConn(conn_id);
    return;
  }
  Result<QueryRequest> request = ParseQueryRequest(message.bytes);
  QueryResponse response;
  if (!request.ok()) {
    response.status = request.status();
  } else if (request->op == "ping") {
    response.id = request->id;
    response.payload = "pong";
  } else if (request->op == "stats") {
    // This process's own metrics: fairem.serve.* from a daemon,
    // fairem.route.* from a router.
    response.id = request->id;
    RefreshGauges();
    response.payload =
        MetricsSnapshotToJson(MetricsRegistry::Global().Snapshot());
  } else {
    HandleQuery(conn_id, *request);
    return;
  }
  Respond(conn_id, response);
}

void DaemonFront::Respond(uint64_t conn_id, const QueryResponse& response) {
  if (response.status.ok()) {
    metrics_.ok->Increment();
  } else if (identity_.sheds_are_failures ||
             !response.status.IsUnavailable()) {
    metrics_.failed->Increment();
  }
  // A client that hung up while its query ran: the work is not wasted (a
  // computed cell is already cached) but the bytes have nowhere to go.
  if (!Send(conn_id, kFrameQueryResponse, SerializeQueryResponse(response))) {
    metrics_.responses_dropped->Increment();
  }
}

bool DaemonFront::Send(uint64_t conn_id, const char* type,
                       const std::string& bytes) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return false;
  it->second.Queue(type, bytes);
  FlushConn(conn_id, it->second);
  return true;
}

void DaemonFront::CloseSlowClients() {
  const double now = MonotonicSeconds();
  std::vector<uint64_t> slow;
  for (const auto& [id, conn] : conns_) {
    const bool mid_frame = conn.decoder.buffered() > 0;
    if ((mid_frame || conn.has_pending_out()) &&
        now - conn.last_activity_s > settings_.io_timeout_s) {
      slow.push_back(id);
    }
  }
  for (uint64_t id : slow) {
    metrics_.slow_client_closes->Increment();
    FAIREM_LOG(WARN) << "closing slow client" << LogKv("conn", id);
    CloseConn(id);
  }
}

void DaemonFront::RefreshGauges() {
  metrics_.connections->Set(static_cast<double>(conns_.size()));
  UpdateGauges();
}

// ------------------------------------------------------------- requests --

void DaemonFront::Admit(AdmittedQuery* query, uint64_t conn_id,
                        const QueryRequest& request, std::string key,
                        int64_t admit_unix_us) const {
  const double budget_s =
      request.deadline_s > 0.0
          ? std::min(request.deadline_s, settings_.max_deadline_s)
          : settings_.default_deadline_s;
  query->conn_id = conn_id;
  query->request = request;
  query->key = std::move(key);
  query->admitted_s = MonotonicSeconds();
  query->deadline_s = query->admitted_s + budget_s;
  if (request.trace.valid()) {
    query->ctx = request.trace;
    query->trace_hex = request.trace.TraceIdHex();
    query->request_span_id = NewSpanId();
    query->admitted_unix_us = admit_unix_us;
  }
}

void DaemonFront::Finish(
    const AdmittedQuery& query, QueryResponse& response,
    std::vector<std::pair<std::string, std::string>> annotations) {
  const double total_s = MonotonicSeconds() - query.admitted_s;
  metrics_.request_seconds->ObserveWithExemplar(total_s, query.trace_hex);
  if (query.ctx.valid()) {
    // The hop span closes now, covering admit -> respond, ahead of the
    // spans recorded under it (and after any a backend already shipped).
    WireSpan hop = MakeWireSpan(
        std::string(identity_.process) + ".request", identity_.process,
        query.request_span_id, query.ctx.parent_span_id,
        query.admitted_unix_us, UnixMicrosNow());
    hop.annotations = std::move(annotations);
    response.spans.push_back(std::move(hop));
    response.spans.insert(response.spans.end(), query.spans.begin(),
                          query.spans.end());
  }
  if (slowlog_.enabled()) {
    SlowQueryEvent event;
    event.process = identity_.process;
    event.trace_id = query.trace_hex;
    event.id = query.request.id;
    event.op = query.request.op;
    event.key = query.key;
    event.status = StatusCodeToString(response.status.code());
    event.total_ms = total_s * 1000.0;
    event.spans = response.spans;
    slowlog_.MaybeLog(event, MonotonicSeconds());
  }
  Respond(query.conn_id, response);
}

void DaemonFront::AttachAdHocSpan(const QueryRequest& request,
                                  QueryResponse* response,
                                  const char* outcome,
                                  int64_t start_unix_us) const {
  if (!request.trace.valid()) return;
  const int64_t now_us = UnixMicrosNow();
  WireSpan span = MakeWireSpan(
      std::string(identity_.process) + ".request", identity_.process,
      NewSpanId(), request.trace.parent_span_id,
      start_unix_us > 0 ? start_unix_us : now_us, now_us);
  span.annotations.emplace_back("outcome", outcome);
  response->spans.push_back(std::move(span));
}

// ---------------------------------------------------------------- drain --

void DaemonFront::BeginDrain() {
  draining_ = true;
  FAIREM_LOG(WARN) << "drain requested"
                   << LogKv("signal", ShutdownGuard::signal_number())
                   << LogKv("connections", conns_.size());
  // Stop accepting: close AND unlink, so new clients get a fast
  // ECONNREFUSED/ENOENT instead of queueing behind a dying daemon.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(settings_.socket_path.c_str());
  OnDrain();
}

bool DaemonFront::DrainComplete() const {
  if (Busy()) return false;
  for (const auto& [id, conn] : conns_) {
    if (conn.has_pending_out()) return false;
  }
  return true;
}

void DaemonFront::FinishDrain() {
  conns_.clear();
  RefreshGauges();
  metrics_.shutdowns->Increment();
  if (!settings_.metrics_path.empty()) {
    Status st = WriteFileDurable(
        settings_.metrics_path,
        MetricsSnapshotToJson(MetricsRegistry::Global().Snapshot()));
    if (!st.ok()) {
      FAIREM_LOG(WARN) << "drain metrics flush failed"
                       << LogKv("status", st.ToString());
    }
  }
  FAIREM_LOG(INFO) << "drain complete"
                   << LogKv("requests", metrics_.total->value());
}

}  // namespace fairem
