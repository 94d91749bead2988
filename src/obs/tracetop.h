#ifndef FAIREM_OBS_TRACETOP_H_
#define FAIREM_OBS_TRACETOP_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace fairem {

// Analysis behind `fairem tracetop` (DESIGN.md §16): aggregate the span
// breakdowns carried by a slow-query log into per-hop share tables and a
// per-query critical path, and gate two logs against each other on hop
// share drift — the trace-level analogue of `fairem proftop --compare`.

/// Per-span-name aggregate across every event in one slow-query log.
struct HopStats {
  uint64_t count = 0;
  int64_t total_us = 0;
};

struct TraceTopSummary {
  uint64_t events = 0;         // parseable wide-event lines
  uint64_t skipped_lines = 0;  // unparseable lines (torn writes, other
                               // formats) — skipped, never fatal
  uint64_t spans = 0;
  std::map<std::string, HopStats> hops;
  /// Denominator for shares: summed duration of every span, so a hop's
  /// share is the fraction of recorded (not wall-clock) time it owns.
  int64_t total_span_us = 0;
  /// The slowest event's spans, kept for the critical-path rendering.
  std::vector<WireSpan> slowest_spans;
  double slowest_total_ms = 0.0;
  std::string slowest_trace_id;
};

/// Parses a slow-query log (one wide-event JSON line per query).
TraceTopSummary SummarizeSlowLog(const std::string& text);

/// Per-hop table: name, calls, total ms, share of recorded span time,
/// sorted by share descending.
std::string RenderHopShares(const TraceTopSummary& summary);

/// The critical path through one query's span tree: starting from the
/// root (the span whose parent is not in the set), repeatedly descend
/// into the longest child. One line per level with duration and the share
/// of the root's duration.
std::string RenderCriticalPath(const std::vector<WireSpan>& spans);

/// CompareShares (src/obs/profiler.h) over the per-hop shares of two logs.
std::vector<std::string> CompareHopShares(const TraceTopSummary& before,
                                          const TraceTopSummary& after,
                                          double tolerance,
                                          double min_share);

}  // namespace fairem

#endif  // FAIREM_OBS_TRACETOP_H_
