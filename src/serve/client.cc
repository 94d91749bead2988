#include "src/serve/client.h"

#include <unistd.h>

#include <utility>

#include "src/serve/daemon_core.h"
#include "src/util/io_util.h"

namespace fairem {

Result<ServeClient> ServeClient::Connect(const std::string& socket_path,
                                         const ServeClientOptions& options) {
  // Unavailable covers a daemon still starting up (socket file absent,
  // not yet listening) and one whose accept queue is full.
  const double start = MonotonicSeconds();
  Result<int> fd = ConnectUnix(socket_path);
  while (!fd.ok() && fd.status().IsUnavailable() &&
         MonotonicSeconds() - start < options.connect_timeout_s) {
    retry_internal::SleepSeconds(0.01);
    fd = ConnectUnix(socket_path);
  }
  FAIREM_RETURN_NOT_OK(fd.status());
  ServeClient client;
  client.socket_path_ = socket_path;
  client.options_ = options;
  client.fd_ = *fd;
  return client;
}

ServeClient::ServeClient(ServeClient&& other) noexcept
    : socket_path_(std::move(other.socket_path_)),
      options_(std::move(other.options_)),
      fd_(other.fd_),
      decoder_(std::move(other.decoder_)),
      next_id_(other.next_id_),
      last_trace_(other.last_trace_),
      last_spans_(std::move(other.last_spans_)) {
  other.fd_ = -1;
}

ServeClient& ServeClient::operator=(ServeClient&& other) noexcept {
  if (this != &other) {
    Close();
    socket_path_ = std::move(other.socket_path_);
    options_ = std::move(other.options_);
    fd_ = other.fd_;
    decoder_ = std::move(other.decoder_);
    next_id_ = other.next_id_;
    last_trace_ = other.last_trace_;
    last_spans_ = std::move(other.last_spans_);
    other.fd_ = -1;
  }
  return *this;
}

ServeClient::~ServeClient() { Close(); }

void ServeClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  decoder_ = FrameDecoder();
}

Result<QueryResponse> ServeClient::Call(const QueryRequest& request) {
  // Tracing a direct Call (no retry wrapper) still yields a rooted trace:
  // mint the context here and wrap the single attempt in the query root.
  if (!options_.trace || request.trace.valid()) {
    return CallAttempt(request, request.trace, 0);
  }
  TraceContext ctx = NewTraceContext();
  last_trace_ = ctx;
  last_spans_.clear();
  const int64_t start_us = UnixMicrosNow();
  ctx.parent_span_id = NewSpanId();
  Result<QueryResponse> outcome = CallAttempt(request, ctx, 0);
  const Status& status =
      outcome.ok() ? outcome->status : outcome.status();
  WireSpan root = MakeWireSpan("client.query", "client", ctx.parent_span_id,
                               0, start_us, UnixMicrosNow());
  root.annotations = {{"op", request.op},
                      {"status", StatusCodeToString(status.code())}};
  last_spans_.push_back(std::move(root));
  return outcome;
}

Result<QueryResponse> ServeClient::CallAttempt(const QueryRequest& request,
                                               const TraceContext& ctx,
                                               int attempt) {
  if (fd_ < 0) return Status::Unavailable("client: not connected");
  QueryRequest sent = request;
  sent.id = ++next_id_;
  const bool traced = ctx.valid();
  const int64_t start_us = traced ? UnixMicrosNow() : 0;
  if (traced) {
    // The attempt span is the parent of everything the server records for
    // this round trip, so its (pre-minted) id rides the QREQ.
    sent.trace = ctx;
    sent.trace.parent_span_id = NewSpanId();
  }
  auto finish_span = [&](const Status& status) {
    if (!traced) return;
    WireSpan span =
        MakeWireSpan("client.attempt", "client", sent.trace.parent_span_id,
                     ctx.parent_span_id, start_us, UnixMicrosNow());
    if (attempt > 0) {
      span.annotations.emplace_back("attempt", std::to_string(attempt));
    }
    span.annotations.emplace_back("status", StatusCodeToString(status.code()));
    last_spans_.push_back(std::move(span));
  };
  Status wrote = WriteServeMessage(fd_, kFrameQueryRequest,
                                   SerializeQueryRequest(sent),
                                   options_.io_timeout_s);
  if (!wrote.ok()) {
    Close();  // the stream position is unknown; a fresh connection is the
              // only safe retry
    finish_span(wrote);
    return wrote;
  }
  // The response may lag by the query's own deadline (compute time) on top
  // of transport time, so budget for both.
  const double read_timeout =
      options_.io_timeout_s +
      (sent.deadline_s > 0.0 ? sent.deadline_s : 0.0);
  // Advisory PROG frames may precede the QRSP; each read gets the full
  // budget again — progress arriving proves the peer is alive.
  Result<ServeMessage> message =
      ReadServeMessage(fd_, &decoder_, read_timeout);
  while (message.ok() && message->type == kFrameProgress) {
    Result<ProgressUpdate> progress = ParseProgressUpdate(message->bytes);
    if (progress.ok() && options_.on_progress != nullptr &&
        progress->id == sent.id) {
      options_.on_progress(*progress);
    }
    message = ReadServeMessage(fd_, &decoder_, read_timeout);
  }
  if (!message.ok()) {
    Close();
    finish_span(message.status());
    return message.status();
  }
  if (message->type != kFrameQueryResponse) {
    Close();
    finish_span(Status::IOError("unexpected frame"));
    return Status::IOError("client: unexpected frame type '" +
                           message->type + "'");
  }
  Result<QueryResponse> response = ParseQueryResponse(message->bytes);
  if (!response.ok()) {
    finish_span(response.status());
    return response.status();
  }
  if (response->id != sent.id) {
    Close();
    Status mismatch = Status::IOError(
        "client: response id " + std::to_string(response->id) +
        " does not match request id " + std::to_string(sent.id));
    finish_span(mismatch);
    return mismatch;
  }
  if (traced) {
    // The response piggybacks the downstream hops' spans; fold them into
    // this query's timeline.
    last_spans_.insert(last_spans_.end(), response->spans.begin(),
                       response->spans.end());
  }
  finish_span(response->status);
  return response;
}

Result<QueryResponse> ServeClient::CallWithRetry(const QueryRequest& request,
                                                 const RetryPolicy& policy,
                                                 uint64_t seed) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const double start = MonotonicSeconds();
  // One query root span covers every attempt and backoff; each attempt
  // parents its own round trip under it.
  QueryRequest traced_request = request;
  const bool traced = options_.trace && !request.trace.valid();
  const int64_t start_us = traced ? UnixMicrosNow() : 0;
  if (traced) {
    TraceContext ctx = NewTraceContext();
    last_trace_ = ctx;
    last_spans_.clear();
    ctx.parent_span_id = NewSpanId();
    traced_request.trace = ctx;
  }
  const uint64_t root_id = traced_request.trace.parent_span_id;
  auto finish_root = [&](const Status& status, int attempts) {
    if (!traced) return;
    WireSpan root = MakeWireSpan("client.query", "client", root_id, 0,
                                 start_us, UnixMicrosNow());
    root.annotations = {{"op", request.op},
                        {"status", StatusCodeToString(status.code())},
                        {"attempts", std::to_string(attempts)}};
    last_spans_.push_back(std::move(root));
  };
  // The effective wall-clock budget is the tighter of the policy deadline
  // and the query's own deadline: backoff sleeps (including a server's
  // retry_after_s hint, which can be large under load) must never push the
  // caller past the moment its answer is due.
  double budget = policy.deadline_seconds;
  if (request.deadline_s > 0.0 &&
      (budget <= 0.0 || request.deadline_s < budget)) {
    budget = request.deadline_s;
  }
  int attempt = 1;
  while (true) {
    if (fd_ < 0) {
      // Reconnect with whatever wall-clock budget remains (at least one
      // immediate attempt).
      ServeClientOptions reconnect = options_;
      if (budget > 0.0) {
        reconnect.connect_timeout_s =
            std::max(0.0, budget - (MonotonicSeconds() - start));
      }
      Result<ServeClient> fresh = Connect(socket_path_, reconnect);
      if (fresh.ok()) {
        // Keep our id counter: correlation ids stay unique per logical
        // client even across reconnects. The trace accumulated so far
        // survives too — the fresh connection has none.
        fresh->next_id_ = next_id_;
        fresh->last_trace_ = last_trace_;
        fresh->last_spans_ = std::move(last_spans_);
        *this = std::move(*fresh);
      } else if (attempt >= policy.max_attempts ||
                 !fresh.status().IsUnavailable()) {
        finish_root(fresh.status(), attempt);
        return fresh.status();
      }
    }
    Result<QueryResponse> outcome =
        CallAttempt(traced_request, traced_request.trace, attempt);
    const Status& status =
        outcome.ok() ? outcome->status : outcome.status();
    // Only kUnavailable is worth retrying here: it is the server's
    // explicit "try again" (shed/drain) or a transport drop. Deadline
    // expiry and input errors are definite.
    if (status.ok() || !status.IsUnavailable() ||
        attempt >= policy.max_attempts) {
      finish_root(status, attempt);
      return outcome;
    }
    double backoff = BackoffSeconds(policy, attempt, &rng);
    if (outcome.ok() && outcome->retry_after_s > backoff) {
      backoff = outcome->retry_after_s;
    }
    if (budget > 0.0) {
      const double remaining = budget - (MonotonicSeconds() - start);
      if (remaining <= 0.0 || backoff >= remaining) {
        // Sleeping would overshoot the deadline; the honest answer is a
        // prompt kDeadlineExceeded naming the error we were retrying, not
        // a late kUnavailable delivered after the answer stopped
        // mattering.
        QueryResponse expired;
        if (outcome.ok()) expired.id = outcome->id;
        expired.status = Status::DeadlineExceeded(
            "retry budget exhausted after " + std::to_string(attempt) +
            " attempt(s); last error: " + status.ToString());
        finish_root(expired.status, attempt);
        return expired;
      }
    }
    retry_internal::CountRetry(status);
    const int64_t sleep_start_us = traced ? UnixMicrosNow() : 0;
    retry_internal::SleepSeconds(backoff);
    if (traced) {
      WireSpan sleep_span = MakeWireSpan("client.backoff", "client",
                                         NewSpanId(), root_id,
                                         sleep_start_us, UnixMicrosNow());
      sleep_span.annotations = {
          {"attempt", std::to_string(attempt)},
          {"last_error", StatusCodeToString(status.code())}};
      last_spans_.push_back(std::move(sleep_span));
    }
    ++attempt;
  }
}

}  // namespace fairem
