#include "bench_stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "src/util/rng.h"

namespace fairem::bench {
namespace {

/// 1-based nearest rank of the p-quantile among n samples.
size_t NearestRank(size_t n, double p) {
  if (n == 0) return 0;
  const double raw = std::ceil(p * static_cast<double>(n) - 1e-9);
  const size_t rank = raw < 1.0 ? 1 : static_cast<size_t>(raw);
  return std::min(rank, n);
}

std::string FormatFactor(double factor) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", factor);
  return buf;
}

}  // namespace

double NowS() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

size_t SamplesBeyond(size_t n, double p) { return n - NearestRank(n, p); }

bool PercentileSupported(size_t n, double p) {
  return n > 0 && SamplesBeyond(n, p) >= kMinSamplesBeyond;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

double Quartiles::Spread() const {
  return median != 0.0 ? (q3 - q1) / median : 0.0;
}

Quartiles ComputeQuartiles(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  q.median = Median(values);
  const long ld = static_cast<long>(values.size());
  if (ld == 1) {
    q.q1 = q.q3 = values[0];
    return q;
  }
  // statistics.quantiles(values, n=4), method="exclusive".
  const long m = ld + 1;
  double cut[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    cut[i - 1] = (values[static_cast<size_t>(j - 1)] * (4 - delta) +
                  values[static_cast<size_t>(j)] * delta) /
                 4.0;
  }
  q.q1 = cut[0];
  q.q3 = cut[2];
  return q;
}

std::vector<Arrival> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     double duration_s, int conns,
                                     size_t num_items) {
  std::vector<Arrival> out;
  if (rate_per_s <= 0.0 || conns <= 0 || num_items == 0) return out;
  const double per_conn = rate_per_s / conns;
  for (int c = 0; c < conns; ++c) {
    Rng rng(seed ^ (static_cast<uint64_t>(c) + 1) * 0x9e3779b97f4a7c15ULL);
    double t = 0.0;
    while (true) {
      t += -std::log(1.0 - rng.NextDouble()) / per_conn;
      if (t >= duration_s) break;
      out.push_back({t, c, static_cast<size_t>(rng.NextBounded(num_items))});
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.due_s < b.due_s;
                   });
  return out;
}

std::vector<size_t> SeededOrder(uint64_t seed, size_t n) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  Rng rng(seed ^ 0x5eed0fdeadbeefULL);
  rng.Shuffle(&order);
  return order;
}

std::vector<double> OnTimeWindowPercentiles(const std::vector<HitSample>& hits,
                                            double p, double late_limit_ms) {
  std::vector<double> out;
  for (size_t begin = 0; begin + kHitWindow <= hits.size();
       begin += kHitWindow) {
    std::vector<double> latency, late;
    for (size_t i = begin; i < begin + kHitWindow; ++i) {
      latency.push_back(hits[i].latency_ms);
      late.push_back(hits[i].late_ms);
    }
    if (Percentile(late, 0.99) <= late_limit_ms) {
      out.push_back(Percentile(latency, p));
    }
  }
  return out;
}

std::vector<double> Latencies(const std::vector<HitSample>& hits) {
  std::vector<double> out;
  out.reserve(hits.size());
  for (const HitSample& h : hits) out.push_back(h.latency_ms);
  return out;
}

bool RungPasses(const std::vector<double>& latencies_ms, size_t sent,
                size_t failed, double p, double limit_ms) {
  if (sent == 0 || failed > 0 || latencies_ms.size() != sent) return false;
  return Percentile(latencies_ms, p) <= limit_ms;
}

double LadderMaxRate(const std::vector<double>& rates,
                     const std::vector<bool>& passed) {
  double best = 0.0;
  for (size_t i = 0; i < rates.size() && i < passed.size(); ++i) {
    if (!passed[i]) break;
    best = rates[i];
  }
  return best;
}

bool Regressed(const MetricBound& metric, double old_median,
               double new_median) {
  return metric.lower_is_better
             ? new_median > old_median * (1.0 + metric.bound)
             : new_median < old_median * (1.0 - metric.bound);
}

bool SpreadWithinBound(const MetricBound& metric, const Quartiles& q) {
  return q.Spread() <= metric.bound;
}

std::string FailOnRule(const MetricBound& metric, const std::string& gauge) {
  return metric.lower_is_better
             ? gauge + ">" + FormatFactor(1.0 + metric.bound) + "x"
             : gauge + "<" + FormatFactor(1.0 - metric.bound) + "x";
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Fnv1aHex(std::string_view bytes) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(Fnv1a(bytes)));
  return buf;
}

}  // namespace fairem::bench
