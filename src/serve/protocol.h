#ifndef FAIREM_SERVE_PROTOCOL_H_
#define FAIREM_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/trace.h"
#include "src/util/result.h"
#include "src/util/status.h"

namespace fairem {

// Wire protocol for `fairem serve`: every message is the FEMTEL1 magic
// followed by one typed frame (`<4-char type><16 hex length>\n<bytes>`,
// written and parsed by the frame-header codec in src/obs/telemetry.h that
// the worker pipe wire uses too; DESIGN.md §11/§14).
// Known types are QREQ (request JSON) and QRSP (response JSON); unknown
// types are skipped and counted in fairem.telemetry.unknown_frames, and a
// redundant magic at a frame boundary is consumed, so an older peer
// degrades instead of desyncing. Anything else — bad magic, malformed
// header, an oversized declared length — is unrecoverable for that
// connection and the reader closes it.

inline constexpr char kFrameQueryRequest[] = "QREQ";
inline constexpr char kFrameQueryResponse[] = "QRSP";
/// Lightweight liveness/load frame (DESIGN.md §15): the router probes each
/// backend with a HLTH frame carrying {"probe":true,"id":N}; a daemon (or a
/// router) answers with a HLTH reply immediately, bypassing admission — a
/// health check must stay cheap exactly when the queue is full. Peers that
/// predate HLTH skip it as an unknown frame, so probing an old daemon
/// degrades to "no reply before the probe deadline", never to desync.
inline constexpr char kFrameHealth[] = "HLTH";
/// Advisory mid-query progress frame (DESIGN.md §16): while a cell query
/// computes, the daemon streams PROG frames — fraction done, ETA from the
/// cell-duration histogram — toward the client; the router forwards them
/// with the id rewritten to the client's. PROG never completes a message:
/// peers that predate it (or ignore it) skip it as an unknown frame and
/// keep waiting for the QRSP, so progress streaming is pure opt-in.
inline constexpr char kFrameProgress[] = "PROG";

/// Upper bound on a declared frame body. A malicious or corrupted header
/// cannot make either side buffer more than this.
inline constexpr uint64_t kMaxServeFrameBytes = 8ull << 20;

struct QueryRequest {
  /// "ping" (liveness), "stats" (metrics snapshot JSON), or "cell" (one
  /// audit grid cell, computed in a crash-isolated worker).
  std::string op;
  std::string dataset;  // cell: dataset name, e.g. "dblp_acm"
  std::string matcher;  // cell: matcher name, e.g. "jaccard"
  std::string mode = "single";  // cell: "single" | "pairwise"
  /// Client-requested end-to-end deadline; 0 takes the server default. The
  /// server clamps it to its configured maximum.
  double deadline_s = 0.0;
  /// Client correlation id, echoed verbatim in the response.
  uint64_t id = 0;
  /// Distributed trace identity (optional wire fields "trace_id" 32-hex,
  /// "span_id", "sampled"). Invalid (zero) = untraced; the fields are then
  /// omitted from the wire entirely, and a malformed trace field on parse
  /// degrades to untraced instead of failing the request — old and new
  /// peers interoperate in both directions.
  TraceContext trace;
};

struct QueryResponse {
  uint64_t id = 0;
  /// OK, or the query's definite failure (code + message round-trip the
  /// socket; kUnavailable means shed/draining — retry after retry_after_s).
  Status status = Status::OK();
  /// Result bytes (cell JSON, stats JSON, or "pong"). Valid when ok.
  std::string payload;
  /// Backoff hint accompanying kUnavailable; 0 otherwise.
  double retry_after_s = 0.0;
  /// Spans this hop (and hops behind it) recorded for the query's trace,
  /// piggybacked on the response ("spans" field, omitted when empty; parse
  /// is tolerant — malformed spans drop, they never fail the response).
  std::vector<WireSpan> spans;
};

/// One HLTH frame body, both directions. A probe has `probe` true and only
/// `id` meaningful; a reply echoes the id and reports instantaneous load.
/// Unknown JSON fields are ignored on parse (newer peers may report more).
struct HealthReport {
  bool probe = false;
  uint64_t id = 0;
  /// False while draining (or, from a router, when no backend is usable).
  bool serving = true;
  double queue_depth = 0.0;
  double inflight = 0.0;
  /// The backoff hint a shed would carry right now (load-aware).
  double retry_after_s = 0.0;
};

/// One PROG frame body. Advisory by definition: every field is optional on
/// parse with a safe default, and unknown fields are ignored.
struct ProgressUpdate {
  /// Correlation id of the in-flight request the update is about.
  uint64_t id = 0;
  /// Best-effort completion estimate in [0, 1].
  double fraction = 0.0;
  /// Estimated seconds to completion; negative = unknown.
  double eta_s = -1.0;
  /// Coarse stage label ("queued", "compute", ...).
  std::string stage;
  /// 32-hex trace id when the query is traced; empty otherwise.
  std::string trace_id;
};

std::string SerializeQueryRequest(const QueryRequest& request);
Result<QueryRequest> ParseQueryRequest(const std::string& json);
std::string SerializeQueryResponse(const QueryResponse& response);
Result<QueryResponse> ParseQueryResponse(const std::string& json);
std::string SerializeHealthReport(const HealthReport& report);
Result<HealthReport> ParseHealthReport(const std::string& json);
std::string SerializeProgressUpdate(const ProgressUpdate& update);
Result<ProgressUpdate> ParseProgressUpdate(const std::string& json);

struct ServeMessage {
  std::string type;  // 4 chars
  std::string bytes;
};

/// magic + one frame, ready for the socket.
std::string EncodeServeMessage(const std::string& type,
                               const std::string& bytes);

/// Incremental decoder for one connection: feed whatever bytes arrived,
/// pull out complete messages. Unknown frame types are skipped (and
/// counted); a malformed or oversized stream returns an error, after which
/// the connection must be closed — there is no way to resynchronize a
/// length-prefixed stream with a corrupt header.
class FrameDecoder {
 public:
  void Feed(const char* data, size_t n);

  enum class Next { kMessage, kNeedMore };
  /// kMessage fills *out. kNeedMore means a complete message has not
  /// arrived yet. Error: the stream is unrecoverable.
  Result<Next> TryNext(ServeMessage* out);

  /// Bytes currently buffered (bounded by kMaxServeFrameBytes + header).
  size_t buffered() const { return buf_.size() - consumed_; }

 private:
  std::string buf_;
  size_t consumed_ = 0;    // parsed-and-discarded prefix of buf_
  bool saw_magic_ = false; // magic precedes every message
};

/// Blocking client-side helpers for a blocking or nonblocking fd (see
/// src/util/io_util.h): kDeadlineExceeded when `timeout_s` passes first,
/// kUnavailable on peer disconnect. ReadServeMessage decodes through the
/// connection's own `decoder`, which keeps any bytes that arrived past the
/// returned message for the next call; after an error the connection (and
/// its decoder) must be discarded.
Status WriteServeMessage(int fd, const std::string& type,
                         const std::string& bytes, double timeout_s);
Result<ServeMessage> ReadServeMessage(int fd, FrameDecoder* decoder,
                                      double timeout_s);

}  // namespace fairem

#endif  // FAIREM_SERVE_PROTOCOL_H_
