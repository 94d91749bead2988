#include "bench_stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/obs/benchdiff.h"

namespace fairem::bench {
namespace {

TEST(PercentileTest, SampleCountRule) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_TRUE(PercentileSupported(1000, 0.99));
  EXPECT_FALSE(PercentileSupported(999, 0.99));
  EXPECT_TRUE(PercentileSupported(50, 0.80));
  EXPECT_FALSE(PercentileSupported(49, 0.80));
  EXPECT_TRUE(PercentileSupported(20, 0.50));
  EXPECT_FALSE(PercentileSupported(19, 0.50));
  EXPECT_FALSE(PercentileSupported(0, 0.50));
  // Every windowed percentile the benchmark reports meets the rule.
  EXPECT_TRUE(PercentileSupported(kHitWindow, 0.50));
  EXPECT_TRUE(PercentileSupported(kHitWindow, 0.90));
  EXPECT_TRUE(PercentileSupported(kWarmWindow, 0.50));
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 0.50), 50.0);
  EXPECT_EQ(Percentile(v, 0.99), 99.0);
  EXPECT_EQ(Percentile(v, 1.00), 100.0);
  EXPECT_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
}

TEST(QuartilesTest, MatchesPythonStatisticsQuantiles) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  Quartiles q = ComputeQuartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  EXPECT_DOUBLE_EQ(q.Spread(), 1.0);
  // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
  q = ComputeQuartiles({1, 2, 3});
  EXPECT_DOUBLE_EQ(q.q1, 1.0);
  EXPECT_DOUBLE_EQ(q.q3, 3.0);
  // statistics.quantiles([1.0, 1.1, 1.05, 0.98, 1.02], n=4)
  //   == [0.99, 1.02, 1.075]
  q = ComputeQuartiles({1.0, 1.1, 1.05, 0.98, 1.02});
  EXPECT_NEAR(q.q1, 0.99, 1e-12);
  EXPECT_NEAR(q.median, 1.02, 1e-12);
  EXPECT_NEAR(q.q3, 1.075, 1e-12);
  q = ComputeQuartiles({7});
  EXPECT_EQ(q.q1, 7);
  EXPECT_EQ(q.Spread(), 0.0);
}

TEST(ScheduleTest, SameSeedSameSchedule) {
  const auto a = PoissonSchedule(7, 200, 10, 2, 13);
  const auto b = PoissonSchedule(7, 200, 10, 2, 13);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].conn, b[i].conn);
    EXPECT_EQ(a[i].item, b[i].item);
  }
  const auto c = PoissonSchedule(8, 200, 10, 2, 13);
  EXPECT_FALSE(c.size() == a.size() && c.front().due_s == a.front().due_s);
  EXPECT_EQ(SeededOrder(3, 65), SeededOrder(3, 65));
  EXPECT_NE(SeededOrder(3, 65), SeededOrder(4, 65));
}

TEST(ScheduleTest, ShapeOfTheStream) {
  const auto s = PoissonSchedule(11, 200, 20, 2, 13);
  // 4000 arrivals expected; Poisson sd is ~63.
  EXPECT_NEAR(static_cast<double>(s.size()), 4000.0, 300.0);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end(),
                             [](const Arrival& a, const Arrival& b) {
                               return a.due_s < b.due_s;
                             }));
  size_t conn0 = 0;
  std::set<size_t> items;
  for (const Arrival& a : s) {
    EXPECT_GE(a.due_s, 0.0);
    EXPECT_LT(a.due_s, 20.0);
    EXPECT_LT(a.item, 13u);
    conn0 += a.conn == 0 ? 1 : 0;
    items.insert(a.item);
  }
  EXPECT_NEAR(static_cast<double>(conn0) / s.size(), 0.5, 0.05);
  EXPECT_EQ(items.size(), 13u);
  std::vector<size_t> order = SeededOrder(5, 65);
  std::sort(order.begin(), order.end());
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(LatencyTest, MeasuredFromDueTime) {
  // A blocking connection: a request cannot go out before the previous
  // answer. Due at 0, 10, 20 ms; the first answer stalls for 25 ms.
  const double due[] = {0.000, 0.010, 0.020};
  const double service[] = {0.025, 0.001, 0.001};
  const double wakeup = 0.0002;  // the generator's own scheduling delay
  double prev_done = 0.0;
  std::vector<double> latency, late;
  for (int i = 0; i < 3; ++i) {
    const double sent = std::max(due[i], prev_done) + wakeup;
    const double done = sent + service[i];
    latency.push_back(LatencyFromDue(due[i], done));
    late.push_back(GeneratorLateness(due[i], prev_done, sent));
    prev_done = done;
  }
  // The stall is charged to the requests that waited behind it...
  EXPECT_NEAR(latency[0], 0.0252, 1e-9);
  EXPECT_NEAR(latency[1], 0.0254 - 0.010 + 0.001, 1e-9);
  EXPECT_NEAR(latency[2], 0.0266 - 0.020 + 0.001, 1e-9);
  // ...while the generator is late only by its own wake-up delay.
  for (double l : late) EXPECT_NEAR(l, wakeup, 1e-12);
}

TEST(LatencyTest, OnTimeWindows) {
  // Three full windows and a short tail. The second window's generator ran
  // late on two hits (its p99), so that window measured the host.
  std::vector<HitSample> hits;
  for (size_t i = 0; i < 3 * kHitWindow + 40; ++i) {
    const size_t window = i / kHitWindow;
    const size_t rank = i % kHitWindow;  // 0..99 within the window
    HitSample h;
    h.due_s = 0.01 * static_cast<double>(i);
    h.latency_ms = static_cast<double>(window + 1) * (rank + 1) / 100.0;
    h.late_ms = (window == 1 && rank < 2) ? 5.0 : 0.1;
    hits.push_back(h);
  }
  const std::vector<double> p90 = OnTimeWindowPercentiles(hits, 0.9, 1.0);
  ASSERT_EQ(p90.size(), 2u);
  EXPECT_DOUBLE_EQ(p90[0], 0.9);  // first window: latencies 0.01..1.00
  EXPECT_DOUBLE_EQ(p90[1], 2.7);  // third window: 0.03..3.00
  // One late hit in a window is its worst 1%, within p99.
  hits[kHitWindow].late_ms = 0.1;
  EXPECT_EQ(OnTimeWindowPercentiles(hits, 0.5, 1.0).size(), 3u);
  EXPECT_EQ(Latencies(hits).size(), hits.size());
  EXPECT_TRUE(OnTimeWindowPercentiles({}, 0.5, 1.0).empty());
}

TEST(LadderTest, PassFailRule) {
  std::vector<double> fast(200, 0.3);
  EXPECT_TRUE(RungPasses(fast, 200, 0, 0.99, 2.0));
  // One failed request misses any limit.
  EXPECT_FALSE(RungPasses(fast, 200, 1, 0.99, 2.0));
  // Latencies of fewer requests than were sent: something went unanswered.
  EXPECT_FALSE(RungPasses(fast, 201, 0, 0.99, 2.0));
  EXPECT_FALSE(RungPasses({}, 0, 0, 0.99, 2.0));
  std::vector<double> tail = fast;
  for (int i = 0; i < 3; ++i) tail[i] = 5.0;  // 1.5% over the limit
  EXPECT_FALSE(RungPasses(tail, 200, 0, 0.99, 2.0));
  tail[0] = tail[1] = 0.3;  // 0.5%: p99 is back under
  EXPECT_TRUE(RungPasses(tail, 200, 0, 0.99, 2.0));

  const std::vector<double> rates = {1000, 2000, 4000, 8000};
  EXPECT_EQ(LadderMaxRate(rates, {true, true, false, false}), 2000);
  // A rung passing above a failed one does not count.
  EXPECT_EQ(LadderMaxRate(rates, {true, false, true, true}), 1000);
  EXPECT_EQ(LadderMaxRate(rates, {false, true, true, true}), 0);
  EXPECT_EQ(LadderMaxRate(rates, {true, true, true, true}), 8000);
}

TEST(BoundTest, RegressionAndSpread) {
  const MetricBound lower{"wall_s", true, 0.10};
  EXPECT_FALSE(Regressed(lower, 10.0, 11.0));
  EXPECT_TRUE(Regressed(lower, 10.0, 11.01));
  EXPECT_FALSE(Regressed(lower, 10.0, 5.0));
  const MetricBound higher{"qps", false, 0.10};
  EXPECT_FALSE(Regressed(higher, 100.0, 90.0));
  EXPECT_TRUE(Regressed(higher, 100.0, 89.9));
  EXPECT_FALSE(Regressed(higher, 100.0, 150.0));

  EXPECT_TRUE(SpreadWithinBound(lower, ComputeQuartiles({1.0, 1.02, 1.05})));
  EXPECT_FALSE(SpreadWithinBound(lower, ComputeQuartiles({1.0, 1.1, 1.3})));
}

TEST(BoundTest, FailOnRuleAgreesWithBenchdiff) {
  const MetricBound lower{"wall_s", true, 0.10};
  const MetricBound higher{"qps", false, 0.25};
  EXPECT_EQ(FailOnRule(lower, "bench.x.wall_s"), "bench.x.wall_s>1.1x");
  EXPECT_EQ(FailOnRule(higher, "bench.x.qps"), "bench.x.qps<0.75x");
  for (const MetricBound& m : {lower, higher}) {
    Result<FailOnSpec> spec = ParseFailOnSpec(FailOnRule(m, "g"));
    ASSERT_TRUE(spec.ok()) << spec.status();
    for (double ratio : {0.5, 0.74, 0.76, 0.9, 1.0, 1.09, 1.11, 2.0}) {
      Result<std::vector<std::string>> violations =
          CheckFailOnSpecs({{"g", 100.0}}, {{"g", 100.0 * ratio}}, {*spec});
      ASSERT_TRUE(violations.ok());
      EXPECT_EQ(!violations->empty(), Regressed(m, 100.0, 100.0 * ratio))
          << m.name << " at ratio " << ratio;
    }
  }
}

TEST(DigestTest, Fnv1aKnownVectors) {
  EXPECT_EQ(Fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1aHex("a"), "af63dc4c8601ec8c");
}

}  // namespace
}  // namespace fairem::bench
