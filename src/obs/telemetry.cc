#include "src/obs/telemetry.h"

#include <cstdio>
#include <sstream>

#include "src/util/durable_file.h"
#include "src/util/io_util.h"
#include "src/util/json.h"
#include "src/util/string_util.h"

namespace fairem {
namespace {

Result<MetricsSnapshot> SnapshotFromJsonValue(const JsonValue& root) {
  if (root.kind != JsonValue::kObject) {
    return Status::InvalidArgument("telemetry JSON: snapshot is not an object");
  }
  MetricsSnapshot snap;
  if (const JsonValue* counters = JsonFind(root, "counters")) {
    for (const auto& [name, v] : counters->members) {
      FAIREM_ASSIGN_OR_RETURN(snap.counters[name],
                              JsonAsU64(v, "counter " + name));
    }
  }
  if (const JsonValue* gauges = JsonFind(root, "gauges")) {
    for (const auto& [name, v] : gauges->members) {
      FAIREM_ASSIGN_OR_RETURN(snap.gauges[name],
                              JsonAsDouble(v, "gauge " + name));
    }
  }
  if (const JsonValue* histograms = JsonFind(root, "histograms")) {
    for (const auto& [name, v] : histograms->members) {
      if (v.kind != JsonValue::kObject) {
        return Status::InvalidArgument("telemetry JSON: histogram " + name +
                                       " is not an object");
      }
      const JsonValue* bounds = JsonFind(v, "bounds");
      const JsonValue* buckets = JsonFind(v, "bucket_counts");
      const JsonValue* count = JsonFind(v, "count");
      const JsonValue* sum = JsonFind(v, "sum");
      if (bounds == nullptr || buckets == nullptr || count == nullptr ||
          sum == nullptr) {
        return Status::InvalidArgument("telemetry JSON: histogram " + name +
                                       " missing a required field");
      }
      MetricsSnapshot::HistogramData h;
      for (const JsonValue& b : bounds->items) {
        double bound = 0.0;
        FAIREM_ASSIGN_OR_RETURN(bound, JsonAsDouble(b, name + ".bounds"));
        h.bounds.push_back(bound);
      }
      for (const JsonValue& b : buckets->items) {
        uint64_t n = 0;
        FAIREM_ASSIGN_OR_RETURN(n, JsonAsU64(b, name + ".bucket_counts"));
        h.bucket_counts.push_back(n);
      }
      FAIREM_ASSIGN_OR_RETURN(h.count, JsonAsU64(*count, name + ".count"));
      FAIREM_ASSIGN_OR_RETURN(h.sum, JsonAsDouble(*sum, name + ".sum"));
      // Optional exemplars ({"bucket","value","trace_id"} entries); parsed
      // tolerantly — a malformed entry is dropped, never an error, since
      // exemplars are advisory debugging links.
      if (const JsonValue* exemplars = JsonFind(v, "exemplars")) {
        for (const JsonValue& e : exemplars->items) {
          if (e.kind != JsonValue::kObject) continue;
          const JsonValue* bucket = JsonFind(e, "bucket");
          const JsonValue* value = JsonFind(e, "value");
          const JsonValue* trace_id = JsonFind(e, "trace_id");
          if (bucket == nullptr || value == nullptr || trace_id == nullptr) {
            continue;
          }
          Result<uint64_t> b = JsonAsU64(*bucket, "exemplar bucket");
          Result<double> val = JsonAsDouble(*value, "exemplar value");
          if (!b.ok() || !val.ok() || trace_id->kind != JsonValue::kString ||
              trace_id->scalar.empty() || *b >= h.bucket_counts.size()) {
            continue;
          }
          if (h.exemplars.empty()) h.exemplars.resize(h.bucket_counts.size());
          h.exemplars[*b].value = *val;
          h.exemplars[*b].trace_id = trace_id->scalar;
        }
      }
      // Derived keys ("mean", "p50", …) are recomputed, never parsed.
      snap.histograms[name] = std::move(h);
    }
  }
  return snap;
}

}  // namespace

// ------------------------------------------------------------ snapshot ops --

MetricsSnapshot DiffSnapshots(const MetricsSnapshot& baseline,
                              const MetricsSnapshot& current) {
  MetricsSnapshot delta;
  for (const auto& [name, value] : current.counters) {
    auto it = baseline.counters.find(name);
    if (it == baseline.counters.end()) {
      // Registered during the task: ship even at zero, so the parent's
      // snapshot lists the same counters a sequential run would.
      delta.counters[name] = value;
    } else if (value > it->second) {
      delta.counters[name] = value - it->second;
    }
  }
  for (const auto& [name, value] : current.gauges) {
    auto it = baseline.gauges.find(name);
    if (it == baseline.gauges.end() || it->second != value) {
      delta.gauges[name] = value;
    }
  }
  for (const auto& [name, h] : current.histograms) {
    auto it = baseline.histograms.find(name);
    if (it == baseline.histograms.end()) {
      delta.histograms[name] = h;  // new registration: ship even when empty
      continue;
    }
    if (it->second.bounds != h.bounds ||
        it->second.bucket_counts.size() != h.bucket_counts.size()) {
      if (h.count > 0) delta.histograms[name] = h;
      continue;
    }
    const MetricsSnapshot::HistogramData& base = it->second;
    MetricsSnapshot::HistogramData d;
    d.bounds = h.bounds;
    d.bucket_counts.resize(h.bucket_counts.size(), 0);
    bool any = false;
    for (size_t i = 0; i < h.bucket_counts.size(); ++i) {
      uint64_t b = i < base.bucket_counts.size() ? base.bucket_counts[i] : 0;
      d.bucket_counts[i] = h.bucket_counts[i] > b ? h.bucket_counts[i] - b : 0;
      any = any || d.bucket_counts[i] > 0;
    }
    d.count = h.count > base.count ? h.count - base.count : 0;
    d.sum = h.sum - base.sum;
    if (any || d.count > 0) delta.histograms[name] = std::move(d);
  }
  return delta;
}

Result<MetricsSnapshot> MetricsSnapshotFromJson(const std::string& json) {
  FAIREM_ASSIGN_OR_RETURN(JsonValue root, JsonParse(json));
  return SnapshotFromJsonValue(root);
}

// ------------------------------------------------------- worker telemetry --

std::string SerializeWorkerTelemetry(const WorkerTelemetry& telemetry) {
  std::ostringstream os;
  os << "{\"version\": " << telemetry.version << ", \"task_key\": ";
  AppendJsonString(&os, telemetry.task_key);
  os << ", \"attempt\": " << telemetry.attempt
     << ", \"pid\": " << telemetry.pid << ",\n\"metrics\": "
     << MetricsSnapshotToJson(telemetry.metrics) << ",\n\"spans\": [";
  bool first = true;
  for (const TraceEvent& e : telemetry.spans) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "  {\"id\": " << e.id << ", \"parent_id\": " << e.parent_id
       << ", \"depth\": " << e.depth << ", \"name\": ";
    AppendJsonString(&os, e.name);
    os << ", \"start_ns\": " << e.start_ns
       << ", \"duration_ns\": " << e.duration_ns
       << ", \"thread_id\": " << e.thread_id
       << ", \"track_id\": " << e.track_id << ", \"args\": [";
    for (size_t i = 0; i < e.args.size(); ++i) {
      if (i > 0) os << ", ";
      os << "[";
      AppendJsonString(&os, e.args[i].first);
      os << ", ";
      AppendJsonString(&os, e.args[i].second);
      os << "]";
    }
    os << "]}";
  }
  os << (first ? "]}" : "\n]}");
  os << "\n";
  return os.str();
}

Result<WorkerTelemetry> ParseWorkerTelemetry(const std::string& json) {
  FAIREM_ASSIGN_OR_RETURN(JsonValue root, JsonParse(json));
  if (root.kind != JsonValue::kObject) {
    return Status::InvalidArgument(
        "telemetry JSON: telemetry is not an object");
  }
  WorkerTelemetry t;
  if (const JsonValue* version = JsonFind(root, "version")) {
    int64_t v = 0;
    FAIREM_ASSIGN_OR_RETURN(v, JsonAsI64(*version, "version"));
    t.version = static_cast<int>(v);
  }
  if (t.version != 1) {
    return Status::InvalidArgument("telemetry JSON: unsupported version " +
                                   std::to_string(t.version));
  }
  if (const JsonValue* key = JsonFind(root, "task_key")) {
    t.task_key = key->scalar;
  }
  if (const JsonValue* attempt = JsonFind(root, "attempt")) {
    int64_t v = 0;
    FAIREM_ASSIGN_OR_RETURN(v, JsonAsI64(*attempt, "attempt"));
    t.attempt = static_cast<int>(v);
  }
  if (const JsonValue* pid = JsonFind(root, "pid")) {
    FAIREM_ASSIGN_OR_RETURN(t.pid, JsonAsI64(*pid, "pid"));
  }
  const JsonValue* metrics = JsonFind(root, "metrics");
  if (metrics == nullptr) {
    return Status::InvalidArgument("telemetry JSON: missing metrics");
  }
  FAIREM_ASSIGN_OR_RETURN(t.metrics, SnapshotFromJsonValue(*metrics));
  if (const JsonValue* spans = JsonFind(root, "spans")) {
    for (const JsonValue& s : spans->items) {
      if (s.kind != JsonValue::kObject) {
        return Status::InvalidArgument("telemetry JSON: span not an object");
      }
      TraceEvent e;
      if (const JsonValue* v = JsonFind(s, "id")) {
        FAIREM_ASSIGN_OR_RETURN(e.id, JsonAsU64(*v, "span id"));
      }
      if (const JsonValue* v = JsonFind(s, "parent_id")) {
        FAIREM_ASSIGN_OR_RETURN(e.parent_id, JsonAsU64(*v, "span parent_id"));
      }
      if (const JsonValue* v = JsonFind(s, "depth")) {
        int64_t depth = 0;
        FAIREM_ASSIGN_OR_RETURN(depth, JsonAsI64(*v, "span depth"));
        e.depth = static_cast<int>(depth);
      }
      if (const JsonValue* v = JsonFind(s, "name")) e.name = v->scalar;
      if (const JsonValue* v = JsonFind(s, "start_ns")) {
        FAIREM_ASSIGN_OR_RETURN(e.start_ns, JsonAsU64(*v, "span start_ns"));
      }
      if (const JsonValue* v = JsonFind(s, "duration_ns")) {
        FAIREM_ASSIGN_OR_RETURN(e.duration_ns,
                                JsonAsU64(*v, "span duration_ns"));
      }
      if (const JsonValue* v = JsonFind(s, "thread_id")) {
        FAIREM_ASSIGN_OR_RETURN(e.thread_id, JsonAsU64(*v, "span thread_id"));
      }
      if (const JsonValue* v = JsonFind(s, "track_id")) {
        FAIREM_ASSIGN_OR_RETURN(e.track_id, JsonAsU64(*v, "span track_id"));
      }
      if (const JsonValue* v = JsonFind(s, "args")) {
        for (const JsonValue& pair : v->items) {
          if (pair.items.size() != 2) {
            return Status::InvalidArgument("telemetry JSON: span arg shape");
          }
          e.args.emplace_back(pair.items[0].scalar, pair.items[1].scalar);
        }
      }
      t.spans.push_back(std::move(e));
    }
  }
  return t;
}

// ---------------------------------------------------------------- framing --

void AppendFrame(std::string* wire, const std::string& type,
                 const std::string& bytes) {
  char length[32];
  std::snprintf(length, sizeof(length), "%016zx", bytes.size());
  for (size_t i = 0; i < 4; ++i) {
    wire->push_back(i < type.size() ? type[i] : '_');
  }
  wire->append(length, 16);
  wire->push_back('\n');
  wire->append(bytes);
}

Status ParseFrameHeader(const char* header, std::string* type,
                        uint64_t* length) {
  for (size_t i = 0; i < 4; ++i) {
    if (header[i] < 0x21 || header[i] > 0x7e) {
      return Status::InvalidArgument("frame header: type is not printable");
    }
  }
  uint64_t out = 0;
  for (size_t i = 4; i < 4 + 16; ++i) {
    const char c = header[i];
    out <<= 4;
    if (c >= '0' && c <= '9') {
      out |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      out |= static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return Status::InvalidArgument("frame header: bad length digit");
    }
  }
  if (header[kFrameHeaderLen - 1] != '\n') {
    return Status::InvalidArgument("frame header: missing terminator");
  }
  type->assign(header, 4);
  *length = out;
  return Status::OK();
}

Counter* UnknownFramesCounter() {
  static Counter* counter = MetricsRegistry::Global().GetCounter(
      "fairem.telemetry.unknown_frames");
  return counter;
}

std::string EncodeTelemetryWire(const std::vector<TelemetryFrame>& frames,
                                const std::string& payload) {
  size_t reserve = kTelemetryMagicLen +
                   (frames.size() + 1) * kFrameHeaderLen + payload.size();
  for (const TelemetryFrame& f : frames) reserve += f.bytes.size();
  std::string wire;
  wire.reserve(reserve);
  wire.append(kTelemetryMagic, kTelemetryMagicLen);
  for (const TelemetryFrame& f : frames) AppendFrame(&wire, f.type, f.bytes);
  AppendFrame(&wire, kFramePayload, payload);
  return wire;
}

TelemetryWireParse ParseTelemetryWire(const std::string& wire) {
  Counter* unknown_frames = UnknownFramesCounter();
  TelemetryWireParse out;
  if (wire.compare(0, kTelemetryMagicLen, kTelemetryMagic) != 0) {
    out.payload = wire;
    return out;
  }
  size_t pos = kTelemetryMagicLen;
  std::vector<TelemetryFrame> frames;
  std::string payload;
  bool saw_payload = false;
  bool truncated = false;
  while (pos < wire.size()) {
    std::string type;
    uint64_t length = 0;
    if (wire.size() - pos < kFrameHeaderLen ||
        !ParseFrameHeader(wire.data() + pos, &type, &length).ok()) {
      // Malformed header. Before any complete frame this means "not our
      // framing at all" and the wire passes through whole; after one it is
      // mid-wire corruption/truncation — keep what already parsed.
      if (frames.empty() && !saw_payload) {
        out.payload = wire;
        return out;
      }
      truncated = true;
      break;
    }
    pos += kFrameHeaderLen;
    const size_t available = wire.size() - pos;
    if (type == kFramePayload) {
      // The payload frame is last by construction; a short one means the
      // worker died mid-write — take the bytes that made it.
      saw_payload = true;
      truncated = truncated || length > available || length < available;
      payload = wire.substr(pos, std::min<uint64_t>(length, available));
      pos = wire.size();
      break;
    }
    if (length > available) {  // truncated mid-frame
      truncated = true;
      break;
    }
    if (type != kFrameTelemetry && type != kFrameProfile) {
      unknown_frames->Increment();
    }
    frames.push_back({type, wire.substr(pos, length)});
    pos += length;
  }
  out.framed = true;
  out.truncated = truncated || (!saw_payload && pos >= wire.size());
  // A complete frame never parsed -> degrade to the unframed path (matches
  // the pre-typed-frame behaviour for a wire cut inside the first frame).
  if (frames.empty() && !saw_payload) {
    out.framed = false;
    out.frames.clear();
    out.payload = wire;
    return out;
  }
  out.frames = std::move(frames);
  out.payload = std::move(payload);
  return out;
}

// ---------------------------------------------------------------- sidecars --

std::string TelemetrySidecarPath(const std::string& dir,
                                 const std::string& task_key, int attempt) {
  return dir + "/" + SanitizeForFilename(task_key) + ".attempt" +
         std::to_string(attempt) + ".telemetry.json";
}

Status WriteTelemetrySidecar(const std::string& dir,
                             const WorkerTelemetry& telemetry) {
  return WriteFileDurable(
      TelemetrySidecarPath(dir, telemetry.task_key, telemetry.attempt),
      SerializeWorkerTelemetry(telemetry));
}

Result<WorkerTelemetry> LoadTelemetrySidecarFile(const std::string& path) {
  FAIREM_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return ParseWorkerTelemetry(text);
}

std::string ProfileSidecarPath(const std::string& dir,
                               const std::string& task_key, int attempt) {
  return dir + "/" + SanitizeForFilename(task_key) + ".attempt" +
         std::to_string(attempt) + ".profile.folded";
}

Status WriteProfileSidecar(const std::string& dir, const std::string& task_key,
                           int attempt, const std::string& folded_text) {
  return WriteFileDurable(ProfileSidecarPath(dir, task_key, attempt),
                          folded_text);
}

Result<std::string> LoadProfileSidecarFile(const std::string& path) {
  return ReadFileToString(path);
}

// ------------------------------------------------------------------ absorb --

void AbsorbWorkerTelemetry(const WorkerTelemetry& telemetry) {
  static Counter* deltas_merged = MetricsRegistry::Global().GetCounter(
      "fairem.telemetry.deltas_merged");
  static Counter* spans_imported = MetricsRegistry::Global().GetCounter(
      "fairem.telemetry.spans_imported");
  MetricsRegistry::Global().Merge(telemetry.metrics);
  deltas_merged->Increment();
  Tracer& tracer = Tracer::Global();
  for (TraceEvent e : telemetry.spans) {
    if (e.track_id == 0 && telemetry.pid > 0) {
      e.track_id = static_cast<uint64_t>(telemetry.pid);
    }
    tracer.RecordImported(std::move(e));
    spans_imported->Increment();
  }
}

// ---------------------------------------------------------------- progress --

ProgressReporter::ProgressReporter(size_t total_cells, int jobs,
                                   double min_interval_seconds,
                                   bool emit_stderr)
    : jobs_(jobs > 0 ? jobs : 1),
      min_interval_seconds_(min_interval_seconds),
      emit_stderr_(emit_stderr),
      cell_seconds_(MetricsRegistry::Global().GetHistogram(
          "fairem.progress.cell_seconds")),
      last_emit_(std::chrono::steady_clock::now()) {
  MetricsRegistry::Global()
      .GetGauge("fairem.progress.cells_total")
      ->Set(static_cast<double>(total_cells));
}

double ProgressReporter::EtaSeconds(const ProgressSnapshot& snap) const {
  uint64_t count = cell_seconds_->count();
  if (count == 0 || snap.total <= snap.done) {
    return snap.total <= snap.done ? 0.0 : -1.0;
  }
  double mean = cell_seconds_->sum() / static_cast<double>(count);
  double remaining = static_cast<double>(snap.total - snap.done);
  return mean * remaining / static_cast<double>(jobs_);
}

std::string ProgressReporter::FormatLine(const ProgressSnapshot& snap,
                                         double eta_seconds) {
  std::ostringstream os;
  os << "grid " << snap.done << "/" << snap.total << " done, " << snap.running
     << " running, " << snap.retrying << " retrying, " << snap.failed
     << " failed, eta ";
  if (eta_seconds < 0) {
    os << "?";
  } else {
    os << FormatDouble(eta_seconds, 1) << "s";
  }
  return os.str();
}

void ProgressReporter::Update(const ProgressSnapshot& snap, bool force) {
  if (snap.last_cell_seconds >= 0) {
    cell_seconds_->Observe(snap.last_cell_seconds);
  }
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetGauge("fairem.progress.cells_total")
      ->Set(static_cast<double>(snap.total));
  reg.GetGauge("fairem.progress.cells_done")
      ->Set(static_cast<double>(snap.done));
  reg.GetGauge("fairem.progress.cells_running")
      ->Set(static_cast<double>(snap.running));
  reg.GetGauge("fairem.progress.cells_retrying")
      ->Set(static_cast<double>(snap.retrying));
  reg.GetGauge("fairem.progress.cells_failed")
      ->Set(static_cast<double>(snap.failed));
  double eta = EtaSeconds(snap);
  reg.GetGauge("fairem.progress.eta_seconds")->Set(eta);
  if (!emit_stderr_) return;
  auto now = std::chrono::steady_clock::now();
  double since_last =
      std::chrono::duration<double>(now - last_emit_).count();
  if (!force && emitted_any_ && since_last < min_interval_seconds_) return;
  emitted_any_ = true;
  last_emit_ = now;
  std::string line = FormatLine(snap, eta);
  std::fprintf(stderr, "[fairem] %s\n", line.c_str());
  std::fflush(stderr);
}

}  // namespace fairem
