#ifndef FAIREM_BENCHMARK_BENCH_STATS_H_
#define FAIREM_BENCHMARK_BENCH_STATS_H_

// The benchmark's own statistics: percentiles under the sample-count rule,
// run-to-run quartiles computed exactly as Python's
// statistics.quantiles(values, n=4) does, the seeded open-loop arrival
// schedule, the rate-ladder pass rule, and the bound checks that turn a
// BENCHMARK.json bound into a pass/fail verdict or a `fairem benchdiff
// --fail_on` rule. Everything here but the clock is pure so bench_stats_test
// can pin it.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fairem::bench {

/// Seconds on the steady clock since an arbitrary process-wide epoch.
double NowS();

/// A percentile is reported only when at least this many samples lie
/// strictly beyond its rank; below that it is noise, not a tail.
constexpr size_t kMinSamplesBeyond = 10;

/// Samples that lie beyond the nearest-rank p-quantile of `n` samples.
size_t SamplesBeyond(size_t n, double p);

/// True when `n` samples support the p-quantile (see kMinSamplesBeyond).
bool PercentileSupported(size_t n, double p);

/// Nearest-rank p-quantile (p in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

/// Middle value (mean of the two middle values for an even count); 0 for an
/// empty sample.
double Median(std::vector<double> samples);

/// First quartile, median and third quartile of a set of run results, the
/// quartiles by the "exclusive" method of Python's statistics.quantiles
/// (the method the spread rule in BENCHMARK.json is judged by).
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  /// (q3 - q1) / median; 0 when the median is 0.
  double Spread() const;
};
Quartiles ComputeQuartiles(std::vector<double> values);

/// One request of an open-loop stream: when it is due (seconds after the
/// stream starts), which connection sends it, and which item it asks for.
struct Arrival {
  double due_s = 0.0;
  int conn = 0;
  size_t item = 0;
};

/// Poisson arrivals at `rate_per_s` in total, split evenly over `conns`
/// connections (each its own Poisson stream), over `duration_s` seconds;
/// items are drawn uniformly from [0, num_items). The same seed always gives
/// the same schedule. Sorted by due time.
std::vector<Arrival> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     double duration_s, int conns,
                                     size_t num_items);

/// Seeded permutation of [0, n) (the order misses are issued in).
std::vector<size_t> SeededOrder(uint64_t seed, size_t n);

/// Open-loop latency: from when the request was due to when its answer
/// arrived, so a stall that makes later requests wait is charged to them.
inline double LatencyFromDue(double due_s, double done_s) {
  return done_s - due_s;
}

/// How late the generator itself sent a request: past its due time, or past
/// the previous answer on the same connection when that arrived later (a
/// blocking connection cannot send earlier; that wait is the system's and
/// already shows in LatencyFromDue).
inline double GeneratorLateness(double due_s, double prev_done_s,
                                double sent_s) {
  const double ready = due_s > prev_done_s ? due_s : prev_done_s;
  return sent_s > ready ? sent_s - ready : 0.0;
}

/// One request of an open-loop stream as measured.
struct HitSample {
  double due_s = 0.0;       // seconds after the stream started
  double latency_ms = 0.0;  // LatencyFromDue
  double late_ms = 0.0;     // GeneratorLateness
};

/// Requests per window of the windowed hit percentiles: the fewest whose
/// p90 has kMinSamplesBeyond samples beyond it.
constexpr size_t kHitWindow = 100;

/// Warm rounds per window of a batch workload's windowed replay p50: the
/// fewest whose p50 has kMinSamplesBeyond rounds beyond it.
constexpr int kWarmWindow = 20;

/// Splits `hits`, in due order, into consecutive windows of kHitWindow (a
/// shorter tail is dropped) and keeps each window whose generator ran on
/// time: its lateness p99 within `late_limit_ms`; a late generator measured
/// the host, not the system. Returns the p-quantile latency of every kept
/// window.
std::vector<double> OnTimeWindowPercentiles(const std::vector<HitSample>& hits,
                                            double p, double late_limit_ms);

/// The latencies (ms) of `hits`, in order.
std::vector<double> Latencies(const std::vector<HitSample>& hits);

/// One rung of the hit-rate ladder passes when every request sent got a
/// correct answer and the p-quantile of its latencies stays within
/// `limit_ms`. A failed request misses any limit, so one failure fails the
/// rung.
bool RungPasses(const std::vector<double>& latencies_ms, size_t sent,
                size_t failed, double p, double limit_ms);

/// The highest rate whose rung passed, with every lower rung passing too;
/// 0 when the first rung fails. `rates` ascending, `passed` aligned.
double LadderMaxRate(const std::vector<double>& rates,
                     const std::vector<bool>& passed);

/// A BENCHMARK.json end-to-end metric with its regression bound.
struct MetricBound {
  std::string name;
  bool lower_is_better = true;
  double bound = 0.0;  // allowed worsening, as a share of the old median
};

/// True when `new_median` is worse than `old_median` by more than the bound.
bool Regressed(const MetricBound& metric, double old_median,
               double new_median);

/// True when a metric's run-to-run spread (IQR / median) is within its bound.
bool SpreadWithinBound(const MetricBound& metric, const Quartiles& q);

/// The `fairem benchdiff --fail_on` clause that trips exactly when
/// Regressed() does, for a gauge named `gauge`: "g>1.1x" for lower-is-better,
/// "g<0.9x" for higher-is-better.
std::string FailOnRule(const MetricBound& metric, const std::string& gauge);

/// 64-bit FNV-1a of `bytes` (golden digests of serve payloads).
uint64_t Fnv1a(std::string_view bytes);

/// Fnv1a as 16 lowercase hex digits.
std::string Fnv1aHex(std::string_view bytes);

}  // namespace fairem::bench

#endif  // FAIREM_BENCHMARK_BENCH_STATS_H_
