#include "src/obs/tracetop.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "src/obs/slowlog.h"
#include "src/report/table_printer.h"
#include "src/util/string_util.h"

namespace fairem {
namespace {

double ShareOf(const TraceTopSummary& summary, const std::string& hop) {
  if (summary.total_span_us <= 0) return 0.0;
  auto it = summary.hops.find(hop);
  if (it == summary.hops.end()) return 0.0;
  return static_cast<double>(it->second.total_us) /
         static_cast<double>(summary.total_span_us);
}

}  // namespace

TraceTopSummary SummarizeSlowLog(const std::string& text) {
  TraceTopSummary summary;
  for (const std::string& line : Split(text, '\n')) {
    if (TrimAscii(line).empty()) continue;
    Result<SlowQueryEvent> event = ParseSlowQueryEvent(line);
    if (!event.ok()) {
      // Torn final line of a live log, or a foreign line: skip, count,
      // keep reading — a renderer must not die on its own input format's
      // failure modes.
      ++summary.skipped_lines;
      continue;
    }
    ++summary.events;
    for (const WireSpan& span : event->spans) {
      ++summary.spans;
      HopStats& hop = summary.hops[span.name];
      ++hop.count;
      hop.total_us += span.duration_us;
      summary.total_span_us += span.duration_us;
    }
    if (event->total_ms >= summary.slowest_total_ms) {
      summary.slowest_total_ms = event->total_ms;
      summary.slowest_spans = event->spans;
      summary.slowest_trace_id = event->trace_id;
    }
  }
  return summary;
}

std::string RenderHopShares(const TraceTopSummary& summary) {
  std::vector<std::pair<std::string, HopStats>> sorted(summary.hops.begin(),
                                                       summary.hops.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.total_us > b.second.total_us;
  });
  TablePrinter table({"hop", "calls", "total ms", "share"});
  for (const auto& [name, hop] : sorted) {
    table.AddRow({name, std::to_string(hop.count),
                  FormatDouble(static_cast<double>(hop.total_us) / 1000.0, 2),
                  FormatDouble(ShareOf(summary, name), 3)});
  }
  std::ostringstream os;
  os << summary.events << " slow quer" << (summary.events == 1 ? "y" : "ies")
     << ", " << summary.spans << " spans";
  if (summary.skipped_lines > 0) {
    os << " (" << summary.skipped_lines << " unparseable lines skipped)";
  }
  os << "\n" << table.ToString();
  return os.str();
}

std::string RenderCriticalPath(const std::vector<WireSpan>& spans) {
  if (spans.empty()) return "(no spans)\n";
  std::set<uint64_t> ids;
  for (const WireSpan& span : spans) ids.insert(span.span_id);
  // Root: the longest span whose parent is outside the recorded set (the
  // client's attempt span is usually that parent when the log was written
  // by a router or daemon).
  const WireSpan* root = nullptr;
  for (const WireSpan& span : spans) {
    if (ids.count(span.parent_span_id) != 0) continue;
    if (root == nullptr || span.duration_us > root->duration_us) {
      root = &span;
    }
  }
  if (root == nullptr) root = &spans.front();  // cycle: still render
  std::ostringstream os;
  const double root_us = static_cast<double>(
      root->duration_us > 0 ? root->duration_us : 1);
  const WireSpan* current = root;
  std::set<uint64_t> visited;
  int depth = 0;
  while (current != nullptr && visited.insert(current->span_id).second) {
    for (int i = 0; i < depth; ++i) os << "  ";
    os << current->process << "/" << current->name << "  "
       << FormatDouble(static_cast<double>(current->duration_us) / 1000.0, 2)
       << " ms  ("
       << FormatDouble(static_cast<double>(current->duration_us) / root_us,
                       3)
       << " of root)\n";
    const WireSpan* next = nullptr;
    for (const WireSpan& span : spans) {
      if (span.parent_span_id != current->span_id) continue;
      if (next == nullptr || span.duration_us > next->duration_us) {
        next = &span;
      }
    }
    current = next;
    ++depth;
  }
  return os.str();
}

std::vector<std::string> CompareHopShares(const TraceTopSummary& before,
                                          const TraceTopSummary& after,
                                          double tolerance,
                                          double min_share) {
  auto shares = [](const TraceTopSummary& summary) {
    std::map<std::string, double> out;
    for (const auto& [name, hop] : summary.hops) {
      out[name] = ShareOf(summary, name);
    }
    return out;
  };
  return CompareShares(shares(before), shares(after), tolerance, min_share);
}

}  // namespace fairem
