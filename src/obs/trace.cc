#include "src/obs/trace.h"

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "src/obs/metrics.h"
#include "src/util/durable_file.h"
#include "src/util/string_util.h"

namespace fairem {
namespace {

/// splitmix64 finisher: a cheap, well-mixed 64-bit hash for id generation.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t IdSeed() {
  const uint64_t now = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  return SplitMix64(now ^ (static_cast<uint64_t>(::getpid()) << 32));
}

/// Small sequential thread ids (chrome://tracing renders one row per tid).
uint64_t CurrentThreadId() {
  static std::atomic<uint64_t> next{1};
  thread_local uint64_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// Per-thread stack of open span ids; the top is the parent of the next
/// span started on this thread.
std::vector<uint64_t>& ThreadSpanStack() {
  thread_local std::vector<uint64_t> stack;
  return stack;
}

}  // namespace

std::string TraceContext::TraceIdHex() const {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(trace_hi),
                static_cast<unsigned long long>(trace_lo));
  return std::string(buf, 32);
}

TraceContext NewTraceContext() {
  static std::atomic<uint64_t> sequence{0};
  static const uint64_t seed = IdSeed();
  TraceContext ctx;
  const uint64_t n = sequence.fetch_add(1, std::memory_order_relaxed);
  ctx.trace_hi = SplitMix64(seed ^ n);
  ctx.trace_lo = SplitMix64(ctx.trace_hi + n);
  if ((ctx.trace_hi | ctx.trace_lo) == 0) ctx.trace_lo = 1;
  return ctx;
}

bool ParseTraceIdHex(const std::string& hex, uint64_t* hi, uint64_t* lo) {
  *hi = 0;
  *lo = 0;
  if (hex.size() != 32) return false;
  uint64_t parts[2] = {0, 0};
  for (size_t i = 0; i < 32; ++i) {
    char c = hex[i];
    uint64_t nibble;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      nibble = static_cast<uint64_t>(c - 'A' + 10);
    } else {
      return false;
    }
    parts[i / 16] = (parts[i / 16] << 4) | nibble;
  }
  if ((parts[0] | parts[1]) == 0) return false;  // all-zero = untraced
  *hi = parts[0];
  *lo = parts[1];
  return true;
}

uint64_t NewSpanId() {
  static std::atomic<uint64_t> sequence{0};
  static const uint64_t seed = IdSeed();
  // Re-mix the pid on every call, not just in the seed: the id stream must
  // diverge from the parent's after fork (the daemon forks a worker per
  // query, and both sides keep minting ids).
  uint64_t id =
      SplitMix64(seed ^ (static_cast<uint64_t>(::getpid()) << 20) ^
                 sequence.fetch_add(1, std::memory_order_relaxed));
  return id == 0 ? 1 : id;
}

int64_t UnixMicrosNow() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

WireSpan MakeWireSpan(std::string name, std::string process,
                      uint64_t span_id, uint64_t parent_span_id,
                      int64_t start_unix_us, int64_t end_unix_us) {
  WireSpan span;
  span.name = std::move(name);
  span.process = std::move(process);
  span.pid = static_cast<int64_t>(::getpid());
  span.span_id = span_id;
  span.parent_span_id = parent_span_id;
  span.start_unix_us = start_unix_us;
  span.duration_us = std::max<int64_t>(0, end_unix_us - start_unix_us);
  return span;
}

std::string SerializeWireSpans(const std::vector<WireSpan>& spans) {
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const WireSpan& s : spans) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":";
    AppendJsonString(&os, s.name);
    os << ",\"process\":";
    AppendJsonString(&os, s.process);
    os << ",\"pid\":" << s.pid << ",\"span_id\":" << s.span_id
       << ",\"parent_span_id\":" << s.parent_span_id
       << ",\"start_unix_us\":" << s.start_unix_us
       << ",\"duration_us\":" << s.duration_us << ",\"args\":[";
    for (size_t i = 0; i < s.annotations.size(); ++i) {
      if (i > 0) os << ",";
      os << "[";
      AppendJsonString(&os, s.annotations[i].first);
      os << ",";
      AppendJsonString(&os, s.annotations[i].second);
      os << "]";
    }
    os << "]}";
  }
  os << "]";
  return os.str();
}

std::vector<WireSpan> ParseWireSpans(const JsonValue& array) {
  static Counter* malformed = MetricsRegistry::Global().GetCounter(
      "fairem.trace.malformed_spans");
  std::vector<WireSpan> out;
  if (array.kind != JsonValue::kArray) {
    malformed->Increment();
    return out;
  }
  for (const JsonValue& item : array.items) {
    WireSpan s;
    const JsonValue* name =
        item.kind == JsonValue::kObject ? JsonFind(item, "name") : nullptr;
    const JsonValue* span_id =
        item.kind == JsonValue::kObject ? JsonFind(item, "span_id") : nullptr;
    Result<std::string> parsed_name =
        name != nullptr ? JsonAsString(*name, "name")
                        : Result<std::string>(
                              Status::InvalidArgument("span: missing name"));
    Result<uint64_t> parsed_id =
        span_id != nullptr
            ? JsonAsU64(*span_id, "span_id")
            : Result<uint64_t>(Status::InvalidArgument("span: missing id"));
    if (!parsed_name.ok() || !parsed_id.ok() || *parsed_id == 0) {
      malformed->Increment();
      continue;
    }
    s.name = std::move(*parsed_name);
    s.span_id = *parsed_id;
    if (const JsonValue* v = JsonFind(item, "process")) {
      if (Result<std::string> p = JsonAsString(*v, "process"); p.ok()) {
        s.process = std::move(*p);
      }
    }
    if (const JsonValue* v = JsonFind(item, "pid")) {
      if (Result<int64_t> p = JsonAsI64(*v, "pid"); p.ok()) s.pid = *p;
    }
    if (const JsonValue* v = JsonFind(item, "parent_span_id")) {
      if (Result<uint64_t> p = JsonAsU64(*v, "parent_span_id"); p.ok()) {
        s.parent_span_id = *p;
      }
    }
    if (const JsonValue* v = JsonFind(item, "start_unix_us")) {
      if (Result<int64_t> p = JsonAsI64(*v, "start_unix_us"); p.ok()) {
        s.start_unix_us = *p;
      }
    }
    if (const JsonValue* v = JsonFind(item, "duration_us")) {
      if (Result<int64_t> p = JsonAsI64(*v, "duration_us"); p.ok()) {
        s.duration_us = *p;
      }
    }
    if (const JsonValue* v = JsonFind(item, "args")) {
      for (const JsonValue& pair : v->items) {
        if (pair.items.size() != 2) continue;
        s.annotations.emplace_back(pair.items[0].scalar,
                                   pair.items[1].scalar);
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer;
  return *tracer;
}

Tracer::Tracer()
    : epoch_(std::chrono::steady_clock::now()),
      epoch_unix_us_(UnixMicrosNow()) {}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

std::vector<TraceEvent> Tracer::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

size_t Tracer::EventCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> Tracer::EventsSince(size_t start) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (start >= events_.size()) return {};
  return std::vector<TraceEvent>(events_.begin() +
                                     static_cast<ptrdiff_t>(start),
                                 events_.end());
}

void Tracer::Record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

void Tracer::RecordImported(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

void Tracer::SetTrackLabel(uint64_t track, std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  track_labels_[track] = std::move(label);
}

void Tracer::RecordWireSpans(const std::vector<WireSpan>& spans) {
  for (const WireSpan& s : spans) {
    TraceEvent e;
    e.id = s.span_id;
    e.parent_id = s.parent_span_id;
    e.name = s.name;
    e.thread_id = 1;
    e.track_id = s.pid > 0 ? static_cast<uint64_t>(s.pid) : 1;
    // Wall clock → tracer-epoch ns. A span that started before this
    // process's tracer existed (it can: the client creates its tracer
    // lazily) clamps to 0 rather than wrapping the unsigned field.
    int64_t rel_us = s.start_unix_us - epoch_unix_us_;
    if (rel_us < 0) rel_us = 0;
    e.start_ns = static_cast<uint64_t>(rel_us) * 1000;
    e.duration_ns =
        s.duration_us > 0 ? static_cast<uint64_t>(s.duration_us) * 1000 : 0;
    e.args = s.annotations;
    if (s.pid > 0 && !s.process.empty()) {
      SetTrackLabel(e.track_id,
                    "fairem " + s.process + " " + std::to_string(s.pid));
    }
    RecordImported(std::move(e));
  }
}

std::string Tracer::ChromeTraceJson() const {
  std::vector<TraceEvent> events;
  std::map<uint64_t, std::string> labels;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events = events_;
    labels = track_labels_;
  }
  std::ostringstream os;
  os << "{\"traceEvents\": [";
  bool first = true;
  // One process_name metadata event per track, so the per-worker tracks
  // read "worker <pid>" instead of a bare number in the trace viewer.
  // Imported distributed spans label their tracks "fairem <process> <pid>".
  std::set<uint64_t> tracks;
  for (const TraceEvent& e : events) {
    tracks.insert(e.track_id == 0 ? 1 : e.track_id);
  }
  for (uint64_t track : tracks) {
    os << (first ? "\n" : ",\n");
    first = false;
    auto label = labels.find(track);
    os << "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << track
       << ", \"args\": {\"name\": ";
    AppendJsonString(&os, label != labels.end()
                              ? label->second
                              : (track == 1 ? std::string("fairem")
                                            : "fairem worker " +
                                                  std::to_string(track)));
    os << "}}";
  }
  for (const TraceEvent& e : events) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "  {\"name\": ";
    AppendJsonString(&os, e.name);
    // Complete ("X") events; timestamps/durations are microseconds. The
    // Chrome "pid" field is our track id: 1 for this process, a worker's
    // real pid for imported spans.
    os << ", \"cat\": \"fairem\", \"ph\": \"X\", \"ts\": "
       << static_cast<double>(e.start_ns) / 1000.0
       << ", \"dur\": " << static_cast<double>(e.duration_ns) / 1000.0
       << ", \"pid\": " << (e.track_id == 0 ? 1 : e.track_id)
       << ", \"tid\": " << e.thread_id << ", \"args\": {";
    os << "\"span_id\": " << e.id << ", \"parent_id\": " << e.parent_id
       << ", \"depth\": " << e.depth;
    for (const auto& [key, value] : e.args) {
      os << ", ";
      AppendJsonString(&os, key);
      os << ": ";
      AppendJsonString(&os, value);
    }
    os << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  // Durable like every other observability artifact: parents are created,
  // and a crash mid-write leaves the previous file, not a truncated one.
  return WriteFileDurable(path, ChromeTraceJson());
}

std::string Tracer::FlatSummary() const {
  struct Agg {
    uint64_t total_ns = 0;
    std::vector<uint64_t> durations_ns;
  };
  std::map<std::string, Agg> by_name;
  for (const TraceEvent& e : Events()) {
    Agg& agg = by_name[e.name];
    agg.total_ns += e.duration_ns;
    agg.durations_ns.push_back(e.duration_ns);
  }
  // Nearest-rank quantile over the exact per-span durations (unlike
  // histogram quantiles there is no bucketing error here).
  auto quantile_s = [](const std::vector<uint64_t>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    double rank = q * static_cast<double>(sorted.size() - 1);
    size_t idx = static_cast<size_t>(rank);
    double frac = rank - static_cast<double>(idx);
    double lo = static_cast<double>(sorted[idx]);
    double hi = static_cast<double>(sorted[std::min(idx + 1, sorted.size() - 1)]);
    return (lo + (hi - lo) * frac) / 1e9;
  };
  size_t width = 4;
  for (const auto& [name, agg] : by_name) {
    width = std::max(width, name.size());
  }
  std::ostringstream os;
  os << "span";
  os << std::string(width - 4 + 2, ' ')
     << "count  total_s   mean_s    p50_s    p95_s    p99_s\n";
  for (auto& [name, agg] : by_name) {
    std::sort(agg.durations_ns.begin(), agg.durations_ns.end());
    uint64_t count = agg.durations_ns.size();
    double total_s = static_cast<double>(agg.total_ns) / 1e9;
    double mean_s = count > 0 ? total_s / static_cast<double>(count) : 0.0;
    os << name << std::string(width - name.size() + 2, ' ');
    std::string count_str = std::to_string(count);
    os << std::string(count_str.size() < 5 ? 5 - count_str.size() : 0, ' ')
       << count_str << "  " << FormatDouble(total_s, 4) << "  "
       << FormatDouble(mean_s, 4) << "  " << FormatDouble(quantile_s(agg.durations_ns, 0.50), 4)
       << "  " << FormatDouble(quantile_s(agg.durations_ns, 0.95), 4) << "  "
       << FormatDouble(quantile_s(agg.durations_ns, 0.99), 4) << "\n";
  }
  return os.str();
}

Span::Span(std::string name, double* elapsed_seconds_out)
    : elapsed_out_(elapsed_seconds_out) {
  Tracer& tracer = Tracer::Global();
  recording_ = tracer.enabled();
  profiling_ = ProfilerStageTrackingEnabled();
  if (profiling_) prof_start_ = ProfilerSpanBegin(name.data(), name.size());
  timing_ = recording_ || elapsed_out_ != nullptr;
  if (!timing_) return;
  start_ = std::chrono::steady_clock::now();
  if (!recording_) return;
  event_.name = std::move(name);
  event_.id = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
  std::vector<uint64_t>& stack = ThreadSpanStack();
  event_.parent_id = stack.empty() ? 0 : stack.back();
  event_.depth = static_cast<int>(stack.size());
  event_.thread_id = CurrentThreadId();
  event_.start_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(start_ -
                                                           tracer.epoch_)
          .count());
  stack.push_back(event_.id);
}

Span::~Span() {
  // Pop the profiler stage first: the pop is balanced against the ctor's
  // push even if the profiler stopped mid-span, and any samples taken while
  // the trace event below is recorded belong to the parent span.
  if (profiling_) ProfilerSpanEnd(prof_start_);
  if (!timing_) return;
  double elapsed = ElapsedSeconds();
  if (elapsed_out_ != nullptr) *elapsed_out_ = elapsed;
  if (!recording_) return;
  ThreadSpanStack().pop_back();
  event_.duration_ns = static_cast<uint64_t>(elapsed * 1e9);
  Tracer::Global().Record(std::move(event_));
}

void Span::AddArg(const std::string& key, std::string value) {
  if (!recording_) return;
  event_.args.emplace_back(key, std::move(value));
}

double Span::ElapsedSeconds() const {
  if (!timing_) return 0.0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

}  // namespace fairem
