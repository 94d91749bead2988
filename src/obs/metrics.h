#ifndef FAIREM_OBS_METRICS_H_
#define FAIREM_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/result.h"

namespace fairem {

/// Monotonically increasing event count. Lock-free; safe from any thread.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins scalar (e.g. a rate or a size observed this run).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// One bucket's exemplar: the largest observation that landed in the
/// bucket since the last Reset, and the trace id that produced it. Links a
/// regressed latency bucket to a concrete slow trace (DESIGN.md §16).
struct HistogramExemplar {
  double value = 0.0;
  std::string trace_id;  // 32-hex trace id; empty = no exemplar recorded
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i], with
/// one implicit overflow bucket. Also tracks sum and count so means survive
/// the bucketing.
class Histogram {
 public:
  /// `bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  /// Observe, additionally keeping `trace_id` as the bucket's exemplar when
  /// this observation is the largest the bucket has seen. An empty trace_id
  /// degrades to plain Observe.
  void ObserveWithExemplar(double v, const std::string& trace_id);

  /// bounds().size() + 1 entries, aligned with bucket_counts(); entries
  /// with an empty trace_id carry no exemplar.
  std::vector<HistogramExemplar> exemplars() const;

  /// Keep-max merge of one bucket's exemplar (the cross-process merge
  /// path); out-of-range buckets and empty trace ids are ignored.
  void MergeExemplar(size_t bucket, double value, const std::string& trace_id);

  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; last is the overflow bucket.
  std::vector<uint64_t> bucket_counts() const;
  uint64_t count() const;
  double sum() const;
  void Reset();

  /// Adds another histogram's data bucket-wise (the cross-process merge
  /// primitive). `bucket_counts` must have bounds().size() + 1 entries —
  /// callers check bounds equality first; a size mismatch returns false and
  /// leaves the histogram untouched.
  bool MergeCounts(const std::vector<uint64_t>& bucket_counts, uint64_t count,
                   double sum);

  /// Live quantile estimate over the current buckets — the same
  /// interpolation as MetricsSnapshot::HistogramData::Quantile. Used by
  /// adaptive policies (the router's hedge delay tracks this histogram's
  /// p95); takes the mutex once, so fine at event-loop rates but not in a
  /// per-observation hot path.
  double Quantile(double q) const;

 private:
  std::vector<double> bounds_;
  mutable std::mutex mu_;
  std::vector<uint64_t> counts_;
  std::vector<HistogramExemplar> exemplars_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Latency-style default bounds (seconds): 1ms … 30s, roughly x3 apart.
std::vector<double> DefaultLatencyBounds();

/// A point-in-time copy of every metric, convenient for tests and export.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  struct HistogramData {
    std::vector<double> bounds;
    std::vector<uint64_t> bucket_counts;
    /// Empty (no exemplars recorded) or bucket_counts.size() entries.
    std::vector<HistogramExemplar> exemplars;
    uint64_t count = 0;
    double sum = 0.0;

    /// The highest-value exemplar across buckets, or one with an empty
    /// trace_id when none were recorded.
    HistogramExemplar TopExemplar() const;

    /// sum / count, or 0 when empty.
    double Mean() const;

    /// The q-quantile (q in [0, 1]) estimated by linear interpolation
    /// within buckets, Prometheus histogram_quantile style: the first
    /// bucket interpolates from 0 (or from bounds[0] when it is <= 0), and
    /// ranks landing in the overflow bucket clamp to the last bound. 0 when
    /// empty.
    double Quantile(double q) const;
  };
  std::map<std::string, HistogramData> histograms;
};

/// Snapshot serialization, shared by MetricsRegistry::WriteJsonFile and the
/// cross-process telemetry wire format. Histograms carry derived "mean",
/// "p50", "p95", "p99" keys alongside the raw buckets so humans and
/// `fairem benchdiff` get latency quantiles without recomputing.
std::string MetricsSnapshotToJson(const MetricsSnapshot& snap);

/// Prometheus text exposition of a snapshot: names sanitized ('.' and any
/// other non-[a-zA-Z0-9_:] byte become '_'), a `# TYPE` line per metric,
/// and histograms expanded to cumulative `_bucket{le="..."}` series (with
/// the `+Inf` bucket) plus `_sum` and `_count`.
std::string MetricsSnapshotToPrometheus(const MetricsSnapshot& snap);

/// Prometheus metric-name sanitization: '.' -> '_', anything outside
/// [a-zA-Z0-9_:] -> '_', and a leading digit gets a '_' prefix.
std::string PrometheusName(const std::string& name);

/// Snapshot file formats accepted by --metrics_format.
enum class MetricsFormat { kJson, kProm };

/// Process-wide registry of named metrics. Naming convention:
/// `fairem.<subsystem>.<metric>`, e.g. "fairem.audit.cells_evaluated".
///
/// Get* registers on first use and returns a stable pointer — hot paths
/// should look a metric up once (function-local static) and increment the
/// pointer thereafter. Metrics are never unregistered; Reset() zeroes values
/// but keeps every pointer valid.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` is used only on first registration; empty means
  /// DefaultLatencyBounds().
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds = {});

  MetricsSnapshot Snapshot() const;

  /// Folds a snapshot (typically a worker's delta shipped over the
  /// telemetry pipe) into this registry: counters add, gauges last-write,
  /// histograms add bucket-wise. Unknown metrics register on the fly; a
  /// histogram whose bounds disagree with the registered ones is skipped
  /// with a WARN (and counted in fairem.telemetry.merge_bounds_mismatches
  /// on the global registry) rather than crashing the merge.
  void Merge(const MetricsSnapshot& delta);

  /// Writes MetricsSnapshotToJson(Snapshot()) to `path` atomically and
  /// durably (temp + fsync + rename, like checkpoint Save): a SIGKILLed run
  /// never leaves a truncated BENCH_*.json behind. Keys are in stable order
  /// (std::map), so diffs of successive BENCH_*.json files are clean.
  Status WriteJsonFile(const std::string& path) const;

  /// WriteJsonFile generalized over --metrics_format.
  Status WriteFile(const std::string& path, MetricsFormat format) const;

  /// Zeroes every metric's value; registered names/pointers survive.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace fairem

#endif  // FAIREM_OBS_METRICS_H_
