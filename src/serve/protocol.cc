#include "src/serve/protocol.h"

#include <sstream>

#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/util/io_util.h"
#include "src/util/json.h"
#include "src/util/string_util.h"

namespace fairem {
namespace {

bool KnownMessageType(const std::string& type) {
  return type == kFrameQueryRequest || type == kFrameQueryResponse ||
         type == kFrameHealth || type == kFrameProgress;
}

}  // namespace

std::string SerializeQueryRequest(const QueryRequest& request) {
  std::ostringstream os;
  os << "{\"op\":";
  AppendJsonString(&os, request.op);
  os << ",\"dataset\":";
  AppendJsonString(&os, request.dataset);
  os << ",\"matcher\":";
  AppendJsonString(&os, request.matcher);
  os << ",\"mode\":";
  AppendJsonString(&os, request.mode);
  os << ",\"deadline_s\":" << FormatDouble(request.deadline_s, 6)
     << ",\"id\":" << request.id;
  if (request.trace.valid()) {
    os << ",\"trace_id\":";
    AppendJsonString(&os, request.trace.TraceIdHex());
    os << ",\"span_id\":" << request.trace.parent_span_id
       << ",\"sampled\":" << (request.trace.sampled ? "true" : "false");
  }
  os << "}";
  return os.str();
}

Result<QueryRequest> ParseQueryRequest(const std::string& json) {
  FAIREM_ASSIGN_OR_RETURN(JsonValue root, JsonParse(json));
  if (root.kind != JsonValue::kObject) {
    return Status::InvalidArgument("serve request: not a JSON object");
  }
  QueryRequest request;
  const JsonValue* op = JsonFind(root, "op");
  if (op == nullptr) {
    return Status::InvalidArgument("serve request: missing op");
  }
  FAIREM_ASSIGN_OR_RETURN(request.op, JsonAsString(*op, "op"));
  if (const JsonValue* v = JsonFind(root, "dataset")) {
    FAIREM_ASSIGN_OR_RETURN(request.dataset, JsonAsString(*v, "dataset"));
  }
  if (const JsonValue* v = JsonFind(root, "matcher")) {
    FAIREM_ASSIGN_OR_RETURN(request.matcher, JsonAsString(*v, "matcher"));
  }
  if (const JsonValue* v = JsonFind(root, "mode")) {
    FAIREM_ASSIGN_OR_RETURN(request.mode, JsonAsString(*v, "mode"));
  }
  if (const JsonValue* v = JsonFind(root, "deadline_s")) {
    FAIREM_ASSIGN_OR_RETURN(request.deadline_s,
                            JsonAsDouble(*v, "deadline_s"));
  }
  if (const JsonValue* v = JsonFind(root, "id")) {
    FAIREM_ASSIGN_OR_RETURN(request.id, JsonAsU64(*v, "id"));
  }
  // Trace fields are advisory: anything malformed degrades to an untraced
  // request rather than erroring it, so a buggy or future peer's trace
  // experiment can never take queries down.
  if (const JsonValue* v = JsonFind(root, "trace_id")) {
    if (v->kind == JsonValue::kString &&
        ParseTraceIdHex(v->scalar, &request.trace.trace_hi,
                        &request.trace.trace_lo)) {
      if (const JsonValue* span = JsonFind(root, "span_id")) {
        if (Result<uint64_t> id = JsonAsU64(*span, "span_id"); id.ok()) {
          request.trace.parent_span_id = *id;
        }
      }
      if (const JsonValue* sampled = JsonFind(root, "sampled")) {
        if (Result<bool> b = JsonAsBool(*sampled, "sampled"); b.ok()) {
          request.trace.sampled = *b;
        }
      }
    }
  }
  return request;
}

std::string SerializeQueryResponse(const QueryResponse& response) {
  std::ostringstream os;
  os << "{\"id\":" << response.id;
  if (response.status.ok()) {
    os << ",\"ok\":true,\"payload\":";
    AppendJsonString(&os, response.payload);
  } else {
    os << ",\"ok\":false,\"code\":"
       << static_cast<int>(response.status.code()) << ",\"code_name\":";
    AppendJsonString(&os, StatusCodeToString(response.status.code()));
    os << ",\"message\":";
    AppendJsonString(&os, response.status.message());
    os << ",\"retry_after_s\":" << FormatDouble(response.retry_after_s, 6);
  }
  if (!response.spans.empty()) {
    os << ",\"spans\":" << SerializeWireSpans(response.spans);
  }
  os << "}";
  return os.str();
}

Result<QueryResponse> ParseQueryResponse(const std::string& json) {
  FAIREM_ASSIGN_OR_RETURN(JsonValue root, JsonParse(json));
  if (root.kind != JsonValue::kObject) {
    return Status::InvalidArgument("serve response: not a JSON object");
  }
  QueryResponse response;
  if (const JsonValue* v = JsonFind(root, "id")) {
    FAIREM_ASSIGN_OR_RETURN(response.id, JsonAsU64(*v, "id"));
  }
  if (const JsonValue* v = JsonFind(root, "spans")) {
    // Tolerant: a response whose spans are garbage still delivers its
    // payload (the trace just loses those hops).
    response.spans = ParseWireSpans(*v);
  }
  const JsonValue* ok = JsonFind(root, "ok");
  if (ok == nullptr) {
    return Status::InvalidArgument("serve response: missing ok");
  }
  FAIREM_ASSIGN_OR_RETURN(bool is_ok, JsonAsBool(*ok, "ok"));
  if (is_ok) {
    const JsonValue* payload = JsonFind(root, "payload");
    if (payload == nullptr) {
      return Status::InvalidArgument("serve response: missing payload");
    }
    FAIREM_ASSIGN_OR_RETURN(response.payload,
                            JsonAsString(*payload, "payload"));
    return response;
  }
  const JsonValue* code = JsonFind(root, "code");
  const JsonValue* message = JsonFind(root, "message");
  if (code == nullptr || message == nullptr) {
    return Status::InvalidArgument("serve response: missing error detail");
  }
  FAIREM_ASSIGN_OR_RETURN(int64_t code_value, JsonAsI64(*code, "code"));
  if (code_value < 1 ||
      code_value > static_cast<int64_t>(StatusCode::kDeadlineExceeded)) {
    return Status::InvalidArgument("serve response: status code " +
                                   std::to_string(code_value) +
                                   " out of range");
  }
  std::string text;
  FAIREM_ASSIGN_OR_RETURN(text, JsonAsString(*message, "message"));
  response.status = Status(static_cast<StatusCode>(code_value), text);
  if (const JsonValue* v = JsonFind(root, "retry_after_s")) {
    FAIREM_ASSIGN_OR_RETURN(response.retry_after_s,
                            JsonAsDouble(*v, "retry_after_s"));
  }
  return response;
}

std::string SerializeHealthReport(const HealthReport& report) {
  std::ostringstream os;
  os << "{\"probe\":" << (report.probe ? "true" : "false")
     << ",\"id\":" << report.id
     << ",\"serving\":" << (report.serving ? "true" : "false")
     << ",\"queue_depth\":" << FormatDouble(report.queue_depth, 6)
     << ",\"inflight\":" << FormatDouble(report.inflight, 6)
     << ",\"retry_after_s\":" << FormatDouble(report.retry_after_s, 6)
     << "}";
  return os.str();
}

Result<HealthReport> ParseHealthReport(const std::string& json) {
  FAIREM_ASSIGN_OR_RETURN(JsonValue root, JsonParse(json));
  if (root.kind != JsonValue::kObject) {
    return Status::InvalidArgument("health report: not a JSON object");
  }
  // Every field is optional with a safe default, and unknown fields are
  // ignored: health probing must keep working across mixed versions.
  HealthReport report;
  if (const JsonValue* v = JsonFind(root, "probe")) {
    FAIREM_ASSIGN_OR_RETURN(report.probe, JsonAsBool(*v, "probe"));
  }
  if (const JsonValue* v = JsonFind(root, "id")) {
    FAIREM_ASSIGN_OR_RETURN(report.id, JsonAsU64(*v, "id"));
  }
  if (const JsonValue* v = JsonFind(root, "serving")) {
    FAIREM_ASSIGN_OR_RETURN(report.serving, JsonAsBool(*v, "serving"));
  }
  if (const JsonValue* v = JsonFind(root, "queue_depth")) {
    FAIREM_ASSIGN_OR_RETURN(report.queue_depth,
                            JsonAsDouble(*v, "queue_depth"));
  }
  if (const JsonValue* v = JsonFind(root, "inflight")) {
    FAIREM_ASSIGN_OR_RETURN(report.inflight, JsonAsDouble(*v, "inflight"));
  }
  if (const JsonValue* v = JsonFind(root, "retry_after_s")) {
    FAIREM_ASSIGN_OR_RETURN(report.retry_after_s,
                            JsonAsDouble(*v, "retry_after_s"));
  }
  return report;
}

std::string SerializeProgressUpdate(const ProgressUpdate& update) {
  std::ostringstream os;
  os << "{\"id\":" << update.id
     << ",\"fraction\":" << FormatDouble(update.fraction, 6)
     << ",\"eta_s\":" << FormatDouble(update.eta_s, 6) << ",\"stage\":";
  AppendJsonString(&os, update.stage);
  if (!update.trace_id.empty()) {
    os << ",\"trace_id\":";
    AppendJsonString(&os, update.trace_id);
  }
  os << "}";
  return os.str();
}

Result<ProgressUpdate> ParseProgressUpdate(const std::string& json) {
  FAIREM_ASSIGN_OR_RETURN(JsonValue root, JsonParse(json));
  if (root.kind != JsonValue::kObject) {
    return Status::InvalidArgument("progress update: not a JSON object");
  }
  // Per-field tolerant like HealthReport: PROG is advisory, and a frame a
  // future peer enriches must still parse here.
  ProgressUpdate update;
  if (const JsonValue* v = JsonFind(root, "id")) {
    if (Result<uint64_t> id = JsonAsU64(*v, "id"); id.ok()) update.id = *id;
  }
  if (const JsonValue* v = JsonFind(root, "fraction")) {
    if (Result<double> f = JsonAsDouble(*v, "fraction"); f.ok()) {
      update.fraction = *f;
    }
  }
  if (const JsonValue* v = JsonFind(root, "eta_s")) {
    if (Result<double> eta = JsonAsDouble(*v, "eta_s"); eta.ok()) {
      update.eta_s = *eta;
    }
  }
  if (const JsonValue* v = JsonFind(root, "stage")) {
    if (v->kind == JsonValue::kString) update.stage = v->scalar;
  }
  if (const JsonValue* v = JsonFind(root, "trace_id")) {
    if (v->kind == JsonValue::kString) update.trace_id = v->scalar;
  }
  return update;
}

std::string EncodeServeMessage(const std::string& type,
                               const std::string& bytes) {
  std::string wire;
  wire.reserve(kTelemetryMagicLen + kFrameHeaderLen + bytes.size());
  wire.append(kTelemetryMagic, kTelemetryMagicLen);
  AppendFrame(&wire, type, bytes);
  return wire;
}

Status WriteServeMessage(int fd, const std::string& type,
                         const std::string& bytes, double timeout_s) {
  const std::string wire = EncodeServeMessage(type, bytes);
  return WriteFullDeadline(fd, wire.data(), wire.size(), timeout_s);
}

Result<ServeMessage> ReadServeMessage(int fd, FrameDecoder* decoder,
                                      double timeout_s) {
  const double deadline =
      timeout_s > 0.0 ? MonotonicSeconds() + timeout_s : 0.0;
  for (;;) {
    ServeMessage message;
    FAIREM_ASSIGN_OR_RETURN(FrameDecoder::Next next,
                            decoder->TryNext(&message));
    if (next == FrameDecoder::Next::kMessage) return message;
    char buf[16384];
    FAIREM_ASSIGN_OR_RETURN(size_t n,
                            ReadSomeBefore(fd, buf, sizeof(buf), deadline));
    decoder->Feed(buf, n);
  }
}

void FrameDecoder::Feed(const char* data, size_t n) {
  // Reclaim the consumed prefix before growing, keeping the buffer bounded
  // by one frame regardless of how long the connection lives.
  if (consumed_ > 0) {
    buf_.erase(0, consumed_);
    consumed_ = 0;
  }
  buf_.append(data, n);
}

Result<FrameDecoder::Next> FrameDecoder::TryNext(ServeMessage* out) {
  for (;;) {
    if (!saw_magic_) {
      if (buffered() < kTelemetryMagicLen) return Next::kNeedMore;
      if (buf_.compare(consumed_, kTelemetryMagicLen, kTelemetryMagic) != 0) {
        return Status::InvalidArgument("serve frame: bad magic");
      }
      consumed_ += kTelemetryMagicLen;
      saw_magic_ = true;
    }
    // A redundant magic at a frame boundary (unknown frame followed by a
    // fresh magic+frame message) is consumed, not treated as a bad header.
    if (buffered() >= kTelemetryMagicLen &&
        buf_.compare(consumed_, kTelemetryMagicLen, kTelemetryMagic) == 0) {
      consumed_ += kTelemetryMagicLen;
      continue;
    }
    if (buffered() < kFrameHeaderLen) return Next::kNeedMore;
    std::string type;
    uint64_t length = 0;
    FAIREM_RETURN_NOT_OK(
        ParseFrameHeader(buf_.data() + consumed_, &type, &length));
    if (length > kMaxServeFrameBytes) {
      return Status::InvalidArgument("serve frame: declared length " +
                                     std::to_string(length) +
                                     " exceeds cap");
    }
    if (buffered() - kFrameHeaderLen < length) return Next::kNeedMore;
    consumed_ += kFrameHeaderLen;
    std::string body = buf_.substr(consumed_, length);
    consumed_ += length;
    if (KnownMessageType(type)) {
      saw_magic_ = false;  // the next message starts with its own magic
      out->type = std::move(type);
      out->bytes = std::move(body);
      return Next::kMessage;
    }
    // Unknown frame inside a message: skip and keep looking for the known
    // frame that completes it.
    UnknownFramesCounter()->Increment();
  }
}

}  // namespace fairem
