// Unit tests for the tracing observability pieces around the wire
// (DESIGN.md §16): histogram exemplars (slowest trace id per bucket and
// their snapshot JSON), the slow-query log (wide-event round trip, the
// threshold + token-bucket write policy), the `fairem tracetop`
// aggregation (hop shares, critical path, share-drift gate), and control
// bytes in the Chrome trace export. The wire format itself is covered by
// telemetry_frame_corpus_test; the cross-process assembly by
// trace_e2e_test.

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/slowlog.h"
#include "src/obs/trace.h"
#include "src/obs/tracetop.h"
#include "src/util/io_util.h"

namespace fairem {
namespace {

constexpr char kTraceA[] = "0123456789abcdeffedcba9876543210";
constexpr char kTraceB[] = "00000000000000010000000000000002";

std::string TempPath(const std::string& leaf) {
  return "/tmp/fairem_" + leaf + "." + std::to_string(::getpid()) + ".jsonl";
}

// --- Histogram exemplars ---------------------------------------------------

TEST(ExemplarTest, KeepsMaxObservationPerBucketWithItsTraceId) {
  Histogram h({0.1, 1.0});
  h.ObserveWithExemplar(0.05, kTraceA);
  h.ObserveWithExemplar(0.08, kTraceB);  // same bucket, larger: wins
  h.ObserveWithExemplar(0.5, kTraceA);   // second bucket
  std::vector<HistogramExemplar> exemplars = h.exemplars();
  ASSERT_EQ(exemplars.size(), 3u);
  EXPECT_EQ(exemplars[0].trace_id, kTraceB);
  EXPECT_DOUBLE_EQ(exemplars[0].value, 0.08);
  EXPECT_EQ(exemplars[1].trace_id, kTraceA);
  EXPECT_TRUE(exemplars[2].trace_id.empty());  // overflow bucket untouched
  // A smaller later observation does not displace the kept one.
  h.ObserveWithExemplar(0.01, kTraceA);
  EXPECT_EQ(h.exemplars()[0].trace_id, kTraceB);
}

TEST(ExemplarTest, EmptyTraceIdDegradesToPlainObserve) {
  Histogram h({0.1, 1.0});
  h.ObserveWithExemplar(0.05, "");
  EXPECT_EQ(h.count(), 1u);
  for (const HistogramExemplar& e : h.exemplars()) {
    EXPECT_TRUE(e.trace_id.empty());
  }
}

TEST(ExemplarTest, TopExemplarPicksHighestValueAcrossBuckets) {
  MetricsSnapshot::HistogramData data;
  data.bounds = {0.1, 1.0};
  data.bucket_counts = {2, 1, 0};
  data.exemplars = {{0.08, kTraceB}, {0.5, kTraceA}, {0.0, ""}};
  HistogramExemplar top = data.TopExemplar();
  EXPECT_EQ(top.trace_id, kTraceA);
  EXPECT_DOUBLE_EQ(top.value, 0.5);
  EXPECT_TRUE(MetricsSnapshot::HistogramData{}.TopExemplar().trace_id.empty());
}

TEST(ExemplarTest, SnapshotJsonCarriesExemplarsOnlyWhenRecorded) {
  // Untraced snapshots must serialize byte-identically to pre-exemplar
  // ones — no "exemplars" key at all.
  MetricsSnapshot snap;
  MetricsSnapshot::HistogramData plain;
  plain.bounds = {0.1};
  plain.bucket_counts = {1, 0};
  plain.count = 1;
  plain.sum = 0.05;
  snap.histograms["fairem.test.latency"] = plain;
  EXPECT_EQ(MetricsSnapshotToJson(snap).find("exemplars"),
            std::string::npos);

  snap.histograms["fairem.test.latency"].exemplars = {{0.05, kTraceA},
                                                      {0.0, ""}};
  const std::string json = MetricsSnapshotToJson(snap);
  EXPECT_NE(json.find("\"exemplars\""), std::string::npos);
  EXPECT_NE(json.find(kTraceA), std::string::npos);
}

// --- Slow-query log --------------------------------------------------------

SlowQueryEvent SampleEvent(const std::string& trace_id, double total_ms) {
  SlowQueryEvent event;
  event.process = "daemon";
  event.trace_id = trace_id;
  event.id = 7;
  event.op = "cell";
  event.key = "Cricket.single.DTMatcher";
  event.status = "OK";
  event.total_ms = total_ms;
  WireSpan span;
  span.name = "daemon.request";
  span.process = "daemon";
  span.pid = 42;
  span.span_id = 5;
  span.start_unix_us = 1000;
  span.duration_us = static_cast<int64_t>(total_ms * 1000.0);
  event.spans.push_back(span);
  return event;
}

TEST(SlowlogTest, EventRoundTripsThroughOneJsonLine) {
  SlowQueryEvent event = SampleEvent(kTraceA, 120.5);
  const std::string line = SerializeSlowQueryEvent(event, 50.0, 987654321);
  int64_t ts = 0;
  double slow_ms = 0.0;
  Result<SlowQueryEvent> parsed = ParseSlowQueryEvent(line, &ts, &slow_ms);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(ts, 987654321);
  EXPECT_DOUBLE_EQ(slow_ms, 50.0);
  EXPECT_EQ(parsed->process, "daemon");
  EXPECT_EQ(parsed->trace_id, kTraceA);
  EXPECT_EQ(parsed->key, "Cricket.single.DTMatcher");
  EXPECT_DOUBLE_EQ(parsed->total_ms, 120.5);
  ASSERT_EQ(parsed->spans.size(), 1u);
  EXPECT_EQ(parsed->spans[0].name, "daemon.request");
}

TEST(SlowlogTest, ParseIsTolerantFieldByField) {
  // Fields from another version, or mistyped ones, keep their defaults; a
  // non-object line is the only hard error (callers skip it).
  Result<SlowQueryEvent> sparse = ParseSlowQueryEvent(
      "{\"process\":\"router\",\"total_ms\":9.5,\"future_field\":[1,2]}");
  ASSERT_TRUE(sparse.ok()) << sparse.status();
  EXPECT_EQ(sparse->process, "router");
  EXPECT_DOUBLE_EQ(sparse->total_ms, 9.5);
  EXPECT_TRUE(sparse->trace_id.empty());
  EXPECT_TRUE(sparse->spans.empty());

  Result<SlowQueryEvent> mistyped =
      ParseSlowQueryEvent("{\"total_ms\":\"slow\",\"id\":true}");
  ASSERT_TRUE(mistyped.ok());
  EXPECT_DOUBLE_EQ(mistyped->total_ms, 0.0);

  EXPECT_FALSE(ParseSlowQueryEvent("[]").ok());
  EXPECT_FALSE(ParseSlowQueryEvent("torn{line").ok());
}

TEST(SlowlogTest, LoggerHonorsThresholdAndEnablement) {
  const std::string path = TempPath("slowlog_threshold");
  ::unlink(path.c_str());
  {
    SlowQueryLogger logger(path, 100.0);
    ASSERT_TRUE(logger.enabled());
    logger.MaybeLog(SampleEvent(kTraceA, 50.0), 0.0);   // under threshold
    logger.MaybeLog(SampleEvent(kTraceB, 150.0), 0.0);  // over
  }
  Result<std::string> text = ReadFileToString(path);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_EQ(text->find(kTraceA), std::string::npos);
  EXPECT_NE(text->find(kTraceB), std::string::npos);
  ::unlink(path.c_str());

  // Disabled configurations never create the file.
  SlowQueryLogger no_path("", 100.0);
  EXPECT_FALSE(no_path.enabled());
  SlowQueryLogger no_threshold(path, 0.0);
  EXPECT_FALSE(no_threshold.enabled());
  no_threshold.MaybeLog(SampleEvent(kTraceA, 1e6), 0.0);
  EXPECT_FALSE(ReadFileToString(path).ok());
}

TEST(SlowlogTest, TokenBucketBoundsTheWriteRate) {
  const std::string path = TempPath("slowlog_bucket");
  ::unlink(path.c_str());
  Counter* suppressed =
      MetricsRegistry::Global().GetCounter("fairem.slowlog.suppressed");
  const uint64_t before = suppressed->value();
  {
    // 2 lines/s, burst capacity 4: a 10-event incident at t=0 writes 4;
    // one second later the bucket has refilled 2 more.
    SlowQueryLogger logger(path, 1.0, /*max_per_s=*/2.0);
    for (int i = 0; i < 10; ++i) {
      logger.MaybeLog(SampleEvent(kTraceA, 10.0), 0.0);
    }
    logger.MaybeLog(SampleEvent(kTraceB, 10.0), 1.0);
    logger.MaybeLog(SampleEvent(kTraceB, 10.0), 1.0);
    logger.MaybeLog(SampleEvent(kTraceB, 10.0), 1.0);
  }
  Result<std::string> text = ReadFileToString(path);
  ASSERT_TRUE(text.ok()) << text.status();
  int lines = 0;
  for (char c : *text) lines += (c == '\n') ? 1 : 0;
  EXPECT_EQ(lines, 6);  // 4 burst + 2 refilled
  EXPECT_EQ(suppressed->value() - before, 7u);
  ::unlink(path.c_str());
}

// --- tracetop --------------------------------------------------------------

std::string TwoEventLog() {
  SlowQueryEvent slow = SampleEvent(kTraceA, 200.0);
  WireSpan compute;
  compute.name = "worker.compute";
  compute.process = "worker";
  compute.pid = 43;
  compute.span_id = 6;
  compute.parent_span_id = 5;
  compute.start_unix_us = 1100;
  compute.duration_us = 150000;
  slow.spans.push_back(compute);
  SlowQueryEvent fast = SampleEvent(kTraceB, 50.0);
  return SerializeSlowQueryEvent(slow, 10.0, 1) + "\n" +
         SerializeSlowQueryEvent(fast, 10.0, 2) + "\n" +
         "torn trailing line without structure\n";
}

TEST(TraceTopTest, SummarizeAggregatesHopsAndSkipsTornLines) {
  TraceTopSummary summary = SummarizeSlowLog(TwoEventLog());
  EXPECT_EQ(summary.events, 2u);
  EXPECT_EQ(summary.skipped_lines, 1u);
  EXPECT_EQ(summary.spans, 3u);
  ASSERT_EQ(summary.hops.count("daemon.request"), 1u);
  EXPECT_EQ(summary.hops.at("daemon.request").count, 2u);
  EXPECT_EQ(summary.hops.at("worker.compute").total_us, 150000);
  EXPECT_EQ(summary.slowest_trace_id, kTraceA);
  EXPECT_DOUBLE_EQ(summary.slowest_total_ms, 200.0);

  const std::string table = RenderHopShares(summary);
  EXPECT_NE(table.find("2 slow queries"), std::string::npos);
  EXPECT_NE(table.find("1 unparseable"), std::string::npos);
  EXPECT_NE(table.find("worker.compute"), std::string::npos);
}

TEST(TraceTopTest, CriticalPathDescendsIntoLongestChild) {
  std::vector<WireSpan> spans;
  WireSpan root;
  root.name = "router.request";
  root.process = "router";
  root.span_id = 1;
  root.parent_span_id = 99;  // parent outside the set: this is the root
  root.duration_us = 300000;
  WireSpan short_call;
  short_call.name = "router.call";
  short_call.process = "router";
  short_call.span_id = 2;
  short_call.parent_span_id = 1;
  short_call.duration_us = 20000;
  WireSpan long_call = short_call;
  long_call.span_id = 3;
  long_call.duration_us = 250000;
  WireSpan compute;
  compute.name = "worker.compute";
  compute.process = "worker";
  compute.span_id = 4;
  compute.parent_span_id = 3;
  compute.duration_us = 240000;
  spans = {short_call, compute, root, long_call};
  const std::string rendered = RenderCriticalPath(spans);
  // Path: root -> the longer of the two calls -> its compute; the short
  // call is off the critical path and must not appear.
  const size_t at_root = rendered.find("router/router.request");
  const size_t at_call = rendered.find("router/router.call");
  const size_t at_compute = rendered.find("worker/worker.compute");
  ASSERT_NE(at_root, std::string::npos) << rendered;
  ASSERT_NE(at_call, std::string::npos) << rendered;
  ASSERT_NE(at_compute, std::string::npos) << rendered;
  EXPECT_LT(at_root, at_call);
  EXPECT_LT(at_call, at_compute);
  EXPECT_NE(rendered.find("250.00 ms"), std::string::npos) << rendered;
  EXPECT_EQ(rendered.find("20.00 ms"), std::string::npos) << rendered;
  EXPECT_EQ(RenderCriticalPath({}), "(no spans)\n");
}

TEST(TraceTopTest, CriticalPathSurvivesCycles) {
  // A corrupt log could link spans into a loop; the renderer must
  // terminate anyway.
  WireSpan a;
  a.name = "a";
  a.span_id = 1;
  a.parent_span_id = 2;
  a.duration_us = 10;
  WireSpan b;
  b.name = "b";
  b.span_id = 2;
  b.parent_span_id = 1;
  b.duration_us = 20;
  const std::string rendered = RenderCriticalPath({a, b});
  EXPECT_FALSE(rendered.empty());
}

TEST(TraceTopTest, CompareHopSharesFlagsOnlyRealDrift) {
  auto make = [](int64_t request_us, int64_t compute_us) {
    TraceTopSummary s;
    s.hops["daemon.request"].count = 1;
    s.hops["daemon.request"].total_us = request_us;
    s.hops["worker.compute"].count = 1;
    s.hops["worker.compute"].total_us = compute_us;
    s.total_span_us = request_us + compute_us;
    s.events = 1;
    return s;
  };
  // 50/50 -> 50/50: no drift.
  EXPECT_TRUE(CompareHopShares(make(100, 100), make(200, 200), 0.10, 0.01)
                  .empty());
  // 50/50 -> 20/80: both hops moved by 0.30.
  std::vector<std::string> drift =
      CompareHopShares(make(100, 100), make(20, 80), 0.10, 0.01);
  ASSERT_EQ(drift.size(), 2u);
  EXPECT_NE(drift[0].find("daemon.request"), std::string::npos);
  // Hops below min_share in both logs are ignored even when their own
  // shares moved past the tolerance (the totals match, so the big hops'
  // shares are untouched).
  TraceTopSummary before = make(1000000, 1000000);
  before.hops["tiny_a"].total_us = 1000;
  before.total_span_us += 1000;
  TraceTopSummary after = make(1000000, 1000000);
  after.hops["tiny_b"].total_us = 1000;
  after.total_span_us += 1000;
  EXPECT_TRUE(CompareHopShares(before, after, 0.0004, 0.01).empty());
  // With min_share lowered beneath them, the same movement is drift.
  EXPECT_EQ(CompareHopShares(before, after, 0.0004, 0.0).size(), 2u);
}

// --- Chrome trace export -------------------------------------------------

TEST(ChromeTraceTest, ControlBytesInNamesAndArgsRoundTrip) {
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  tracer.set_enabled(true);
  const std::string raw = "a\tb\x01";
  {
    Span span("span" + raw);
    span.AddArg("key" + raw, raw);
  }
  tracer.set_enabled(false);
  Result<JsonValue> root = JsonParse(tracer.ChromeTraceJson());
  tracer.Clear();
  ASSERT_TRUE(root.ok()) << root.status();
  const JsonValue& events = root->members.at("traceEvents");
  ASSERT_EQ(events.items.size(), 2u);  // process_name metadata, the span
  const JsonValue& span = events.items[1];
  EXPECT_EQ(span.members.at("name").scalar, "span" + raw);
  EXPECT_EQ(span.members.at("args").members.at("key" + raw).scalar, raw);
}

}  // namespace
}  // namespace fairem
