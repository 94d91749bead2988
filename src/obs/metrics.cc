#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "src/obs/log.h"
#include "src/util/durable_file.h"
#include "src/util/json.h"
#include "src/util/logging.h"

namespace fairem {
namespace {

/// Doubles must stay valid JSON: non-finite values serialise as 0.
void AppendJsonDouble(std::ostringstream* os, double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::ostringstream tmp;
  tmp.precision(17);
  tmp << v;
  *os << tmp.str();
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  FAIREM_CHECK(!bounds_.empty(), "histogram needs at least one bound");
  for (size_t i = 1; i < bounds_.size(); ++i) {
    FAIREM_CHECK(bounds_[i - 1] < bounds_[i],
                 "histogram bounds must be strictly increasing");
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double v) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  ++counts_[i];
  ++count_;
  sum_ += v;
}

void Histogram::ObserveWithExemplar(double v, const std::string& trace_id) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  ++counts_[i];
  ++count_;
  sum_ += v;
  if (trace_id.empty()) return;
  if (exemplars_.empty()) exemplars_.resize(counts_.size());
  HistogramExemplar& slot = exemplars_[i];
  if (slot.trace_id.empty() || v >= slot.value) {
    slot.value = v;
    slot.trace_id = trace_id;
  }
}

std::vector<HistogramExemplar> Histogram::exemplars() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (exemplars_.empty()) {
    return std::vector<HistogramExemplar>(counts_.size());
  }
  return exemplars_;
}

void Histogram::MergeExemplar(size_t bucket, double value,
                              const std::string& trace_id) {
  if (trace_id.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (bucket >= counts_.size()) return;
  if (exemplars_.empty()) exemplars_.resize(counts_.size());
  HistogramExemplar& slot = exemplars_[bucket];
  if (slot.trace_id.empty() || value >= slot.value) {
    slot.value = value;
    slot.trace_id = trace_id;
  }
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

void Histogram::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counts_.assign(bounds_.size() + 1, 0);
  exemplars_.clear();
  count_ = 0;
  sum_ = 0.0;
}

bool Histogram::MergeCounts(const std::vector<uint64_t>& bucket_counts,
                            uint64_t count, double sum) {
  std::lock_guard<std::mutex> lock(mu_);
  if (bucket_counts.size() != counts_.size()) return false;
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += bucket_counts[i];
  count_ += count;
  sum_ += sum;
  return true;
}

double Histogram::Quantile(double q) const {
  MetricsSnapshot::HistogramData data;
  data.bounds = bounds_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    data.bucket_counts = counts_;
    data.count = count_;
    data.sum = sum_;
  }
  return data.Quantile(q);
}

double MetricsSnapshot::HistogramData::Mean() const {
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

HistogramExemplar MetricsSnapshot::HistogramData::TopExemplar() const {
  HistogramExemplar top;
  for (const HistogramExemplar& e : exemplars) {
    if (e.trace_id.empty()) continue;
    if (top.trace_id.empty() || e.value > top.value) top = e;
  }
  return top;
}

double MetricsSnapshot::HistogramData::Quantile(double q) const {
  if (count == 0 || bounds.empty() ||
      bucket_counts.size() != bounds.size() + 1) {
    return 0.0;
  }
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(count);
  double cumulative = 0.0;
  for (size_t i = 0; i < bucket_counts.size(); ++i) {
    const double in_bucket = static_cast<double>(bucket_counts[i]);
    if (cumulative + in_bucket < rank || in_bucket == 0.0) {
      cumulative += in_bucket;
      continue;
    }
    // The overflow bucket has no upper edge; clamp to the last bound (the
    // estimate cannot exceed what the buckets can resolve).
    if (i == bounds.size()) return bounds.back();
    const double hi = bounds[i];
    // The first bucket interpolates from 0 for all-positive bounds (the
    // latency case); with non-positive bounds there is no usable lower
    // edge, so it degrades to the bucket's upper bound.
    const double lo = i == 0 ? (bounds[0] > 0.0 ? 0.0 : bounds[0])
                             : bounds[i - 1];
    return lo + (hi - lo) * ((rank - cumulative) / in_bucket);
  }
  return bounds.back();
}

std::vector<double> DefaultLatencyBounds() {
  return {0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0};
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    if (bounds.empty()) bounds = DefaultLatencyBounds();
    slot = std::make_unique<Histogram>(std::move(bounds));
  }
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.bounds = h->bounds();
    data.bucket_counts = h->bucket_counts();
    data.count = h->count();
    data.sum = h->sum();
    // Exemplars ride along only when some were recorded, so snapshots of
    // untraced runs stay byte-identical to pre-exemplar ones.
    std::vector<HistogramExemplar> exemplars = h->exemplars();
    for (const HistogramExemplar& e : exemplars) {
      if (!e.trace_id.empty()) {
        data.exemplars = std::move(exemplars);
        break;
      }
    }
    snap.histograms[name] = std::move(data);
  }
  return snap;
}

void MetricsRegistry::Merge(const MetricsSnapshot& delta) {
  static Counter* bounds_mismatches = MetricsRegistry::Global().GetCounter(
      "fairem.telemetry.merge_bounds_mismatches");
  for (const auto& [name, value] : delta.counters) {
    GetCounter(name)->Increment(value);
  }
  for (const auto& [name, value] : delta.gauges) {
    GetGauge(name)->Set(value);
  }
  for (const auto& [name, h] : delta.histograms) {
    if (h.bucket_counts.size() != h.bounds.size() + 1) {
      bounds_mismatches->Increment();
      FAIREM_LOG(WARN) << "telemetry merge: malformed histogram delta"
                       << LogKv("histogram", name);
      continue;
    }
    Histogram* target = GetHistogram(name, h.bounds);
    if (target->bounds() == h.bounds) {
      for (size_t i = 0; i < h.exemplars.size(); ++i) {
        target->MergeExemplar(i, h.exemplars[i].value,
                              h.exemplars[i].trace_id);
      }
    }
    if (target->bounds() != h.bounds ||
        !target->MergeCounts(h.bucket_counts, h.count, h.sum)) {
      // Bounds disagreement means two processes registered the histogram
      // differently; dropping the delta (loudly) beats corrupting buckets.
      bounds_mismatches->Increment();
      FAIREM_LOG(WARN) << "telemetry merge: histogram bounds mismatch, "
                          "dropping delta"
                       << LogKv("histogram", name)
                       << LogKv("delta_bounds", h.bounds.size())
                       << LogKv("registered_bounds", target->bounds().size());
    }
  }
}

std::string MetricsSnapshotToJson(const MetricsSnapshot& snap) {
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    os << (first ? "\n    " : ",\n    ");
    AppendJsonString(&os, name);
    os << ": " << value;
    first = false;
  }
  os << (first ? "},\n" : "\n  },\n");
  os << "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    os << (first ? "\n    " : ",\n    ");
    AppendJsonString(&os, name);
    os << ": ";
    AppendJsonDouble(&os, value);
    first = false;
  }
  os << (first ? "},\n" : "\n  },\n");
  os << "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    os << (first ? "\n    " : ",\n    ");
    AppendJsonString(&os, name);
    os << ": {\"bounds\": [";
    for (size_t i = 0; i < h.bounds.size(); ++i) {
      if (i > 0) os << ", ";
      AppendJsonDouble(&os, h.bounds[i]);
    }
    os << "], \"bucket_counts\": [";
    for (size_t i = 0; i < h.bucket_counts.size(); ++i) {
      if (i > 0) os << ", ";
      os << h.bucket_counts[i];
    }
    os << "], \"count\": " << h.count << ", \"sum\": ";
    AppendJsonDouble(&os, h.sum);
    // Derived stats, recomputed (not parsed back) on load: humans and
    // benchdiff get quantiles without re-deriving them from buckets.
    os << ", \"mean\": ";
    AppendJsonDouble(&os, h.Mean());
    os << ", \"p50\": ";
    AppendJsonDouble(&os, h.Quantile(0.50));
    os << ", \"p95\": ";
    AppendJsonDouble(&os, h.Quantile(0.95));
    os << ", \"p99\": ";
    AppendJsonDouble(&os, h.Quantile(0.99));
    // Optional per-bucket exemplars (only buckets that have one). Readers
    // that predate exemplars ignore the key.
    bool any_exemplar = false;
    for (const HistogramExemplar& e : h.exemplars) {
      any_exemplar = any_exemplar || !e.trace_id.empty();
    }
    if (any_exemplar) {
      os << ", \"exemplars\": [";
      bool first_ex = true;
      for (size_t i = 0; i < h.exemplars.size(); ++i) {
        if (h.exemplars[i].trace_id.empty()) continue;
        if (!first_ex) os << ", ";
        first_ex = false;
        os << "{\"bucket\": " << i << ", \"value\": ";
        AppendJsonDouble(&os, h.exemplars[i].value);
        os << ", \"trace_id\": ";
        AppendJsonString(&os, h.exemplars[i].trace_id);
        os << "}";
      }
      os << "]";
    }
    os << "}";
    first = false;
  }
  os << (first ? "}\n" : "\n  }\n");
  os << "}\n";
  return os.str();
}

std::string PrometheusName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(keep ? c : '_');
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, 1, '_');
  return out;
}

namespace {

/// Prometheus floats: plain shortest-round-trip decimal, NaN/Inf excluded
/// upstream by the snapshot (AppendJsonDouble parity).
std::string PromDouble(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

std::string MetricsSnapshotToPrometheus(const MetricsSnapshot& snap) {
  std::ostringstream os;
  for (const auto& [name, value] : snap.counters) {
    const std::string prom = PrometheusName(name);
    os << "# TYPE " << prom << " counter\n";
    os << prom << " " << value << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string prom = PrometheusName(name);
    os << "# TYPE " << prom << " gauge\n";
    os << prom << " " << PromDouble(value) << "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string prom = PrometheusName(name);
    os << "# TYPE " << prom << " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < h.bounds.size(); ++i) {
      if (i < h.bucket_counts.size()) cumulative += h.bucket_counts[i];
      os << prom << "_bucket{le=\"" << PromDouble(h.bounds[i]) << "\"} "
         << cumulative << "\n";
    }
    os << prom << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    os << prom << "_sum " << PromDouble(h.sum) << "\n";
    os << prom << "_count " << h.count << "\n";
  }
  return os.str();
}

Status MetricsRegistry::WriteJsonFile(const std::string& path) const {
  return WriteFile(path, MetricsFormat::kJson);
}

Status MetricsRegistry::WriteFile(const std::string& path,
                                  MetricsFormat format) const {
  MetricsSnapshot snap = Snapshot();
  const std::string body = format == MetricsFormat::kProm
                               ? MetricsSnapshotToPrometheus(snap)
                               : MetricsSnapshotToJson(snap);
  // Durable like checkpoint Save: a metrics snapshot is read back by
  // benchdiff and CI; a SIGKILL mid-write must not leave a torn file.
  return WriteFileDurable(path, body);
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

}  // namespace fairem
