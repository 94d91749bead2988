#ifndef FAIREM_OBS_TRACE_H_
#define FAIREM_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/profiler.h"
#include "src/util/json.h"
#include "src/util/result.h"

namespace fairem {

/// Identity of one distributed query trace (DESIGN.md §16): a 128-bit trace
/// id shared by every hop (client, router, daemon, worker) plus the span id
/// of the sender's enclosing span, so the receiver parents its own spans
/// under the caller's. Carried as optional JSON fields on QREQ; a zero
/// trace id means "untraced" and every hop behaves exactly as before.
struct TraceContext {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t parent_span_id = 0;
  bool sampled = true;

  bool valid() const { return (trace_hi | trace_lo) != 0; }
  /// 32 lowercase hex chars, the wire and log form of the trace id.
  std::string TraceIdHex() const;
};

/// Fresh nonzero 128-bit trace id (clock + pid + sequence, hashed), root
/// context: parent_span_id 0, sampled.
TraceContext NewTraceContext();

/// Parses a 32-hex-char trace id into hi/lo. Returns false — leaving the
/// outputs zero, i.e. "untraced" — on any malformed input; a corrupt trace
/// field must degrade, never error a query.
bool ParseTraceIdHex(const std::string& hex, uint64_t* hi, uint64_t* lo);

/// Process-unique nonzero span id for cross-process spans. Unlike the
/// Tracer's small sequential ids these are hashed with the pid, so ids
/// minted independently by client, router, daemon, and worker supervisors
/// never collide within one trace.
uint64_t NewSpanId();

/// Wall-clock microseconds since the Unix epoch — the shared timebase of
/// cross-process spans (every fleet process is on one machine/clock).
int64_t UnixMicrosNow();

/// One completed span of a distributed trace, in wire form: absolute
/// wall-clock times and globally unique ids (NewSpanId), so spans recorded
/// by different processes merge into a single timeline with no epoch or id
/// translation. Shipped back to the client piggybacked on QRSP.
struct WireSpan {
  std::string name;     // taxonomy: "router.call", "daemon.queue", ...
  std::string process;  // "client" | "router" | "daemon" | "worker"
  int64_t pid = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;  // 0 = trace root
  int64_t start_unix_us = 0;
  int64_t duration_us = 0;
  std::vector<std::pair<std::string, std::string>> annotations;
};

/// A completed span recorded by this process — the one builder behind every
/// hand-made WireSpan: pid is getpid(), and the duration is end - start
/// clamped at 0 (the wall clock can step backwards).
WireSpan MakeWireSpan(std::string name, std::string process,
                      uint64_t span_id, uint64_t parent_span_id,
                      int64_t start_unix_us, int64_t end_unix_us);

/// JSON array of span objects (the QRSP "spans" field and the slow-query
/// log "spans" field share this shape).
std::string SerializeWireSpans(const std::vector<WireSpan>& spans);

/// Tolerant inverse: entries that are not objects, lack a name, or lack a
/// nonzero span_id are dropped (and counted in
/// fairem.trace.malformed_spans); a malformed annotation is dropped from
/// its span. A trace is advisory — a bad span must never fail the query
/// that carried it.
std::vector<WireSpan> ParseWireSpans(const JsonValue& array);

/// One completed span. Ids are unique per process; parent_id is 0 for root
/// spans. Times are nanoseconds on the monotonic clock, relative to the
/// tracer's epoch (its construction).
struct TraceEvent {
  uint64_t id = 0;
  uint64_t parent_id = 0;
  int depth = 0;  // 0 = root
  std::string name;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  uint64_t thread_id = 0;
  /// Display track for multi-process traces: 0 means "this process" and
  /// renders as Chrome pid 1; spans imported from a worker carry the worker
  /// pid so chrome://tracing shows one track per worker.
  uint64_t track_id = 0;
  /// Span arguments, shown in the chrome://tracing detail pane.
  std::vector<std::pair<std::string, std::string>> args;
};

/// Collects spans when enabled. Disabled (the default) the Span constructor
/// is a single relaxed atomic load — no clock reads, no allocation — so
/// instrumentation can stay in hot paths permanently.
///
/// Nesting is tracked per thread: a span started while another is open on
/// the same thread records it as its parent, which is what makes the
/// exported trace show datagen → blocking → … as a tree.
class Tracer {
 public:
  static Tracer& Global();

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drops every recorded event (enabled state is unchanged).
  void Clear();

  /// Copy of all completed events, in completion order (children before
  /// their parents).
  std::vector<TraceEvent> Events() const;

  /// Number of completed events so far (a cheap watermark for EventsSince).
  size_t EventCount() const;

  /// Events recorded at or after watermark `start` (an earlier EventCount()
  /// value). Workers use this to ship only the spans completed during one
  /// task, not the whole inherited history.
  std::vector<TraceEvent> EventsSince(size_t start) const;

  /// Appends an externally produced span (e.g. one shipped from a worker
  /// process) verbatim — id, times, and track_id are preserved, not
  /// reassigned, since worker clocks share the parent's epoch across fork.
  /// Recorded even when the tracer is disabled: the worker already paid for
  /// the span, so the parent keeps it.
  void RecordImported(TraceEvent event);

  /// Imports a distributed trace's wire spans: each becomes a TraceEvent on
  /// the track of its originating pid (labelled "fairem <process> <pid>"),
  /// with wall-clock times mapped onto this tracer's epoch so they line up
  /// with locally recorded spans in the Chrome export.
  void RecordWireSpans(const std::vector<WireSpan>& spans);

  /// Names a display track in the Chrome export (defaults: track 1 is
  /// "fairem", any other is "fairem worker <track>").
  void SetTrackLabel(uint64_t track, std::string label);

  /// Wall-clock Unix microseconds corresponding to start_ns == 0.
  int64_t EpochUnixMicros() const { return epoch_unix_us_; }

  /// Chrome trace_event JSON ("ph":"X" complete events); load the file via
  /// chrome://tracing or https://ui.perfetto.dev.
  std::string ChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;

  /// Per-span-name aggregate — name, call count, total/mean wall seconds —
  /// as an aligned text table, for end-of-run stderr summaries.
  std::string FlatSummary() const;

 private:
  friend class Span;

  void Record(TraceEvent event);

  std::chrono::steady_clock::time_point epoch_;
  int64_t epoch_unix_us_ = 0;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::map<uint64_t, std::string> track_labels_;
};

/// RAII span: records one TraceEvent on the global tracer from construction
/// to destruction. Also usable purely as a monotonic timer: pass
/// `elapsed_seconds_out` and the measured duration is written there on
/// destruction whether or not tracing is enabled — harness timings and
/// trace timings then come from the same clock read and can never disagree.
///
/// While the sampling profiler is active (DESIGN.md §13) the span also
/// pushes its name onto the thread's stage stack — every profiler sample
/// taken inside attributes to this span — and snapshots /proc resource
/// usage at both boundaries to export per-span RSS/io deltas.
class Span {
 public:
  explicit Span(std::string name, double* elapsed_seconds_out = nullptr);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a key/value argument (no-op when tracing is disabled).
  void AddArg(const std::string& key, std::string value);

  /// Seconds elapsed since construction (monotonic clock).
  double ElapsedSeconds() const;

 private:
  bool recording_ = false;
  bool timing_ = false;
  bool profiling_ = false;
  double* elapsed_out_ = nullptr;
  std::chrono::steady_clock::time_point start_;
  TraceEvent event_;
  ProfSpanResources prof_start_;
};

/// Monotonic-clock scope timer: writes elapsed seconds to `*out` on
/// destruction. The non-tracing sibling of Span for call sites that only
/// need a number.
class ScopedTimer {
 public:
  explicit ScopedTimer(double* out) : out_(out) {
    start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() { *out_ = ElapsedSeconds(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  double* out_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace fairem

#endif  // FAIREM_OBS_TRACE_H_
