#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/datagen/benchmark_suite.h"
#include "src/harness/experiment.h"
#include "src/obs/benchdiff.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace.h"
#include "src/robust/failpoint.h"
#include "src/robust/retry.h"
#include "src/robust/supervisor.h"
#include "src/util/durable_file.h"

namespace fairem {
namespace {

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

/// Disarms failpoints and restores the real retry sleep when a test exits,
/// even on assertion failure — both are process-global.
class RobustGuard {
 public:
  RobustGuard() { FailpointRegistry::Global().Clear(); }
  ~RobustGuard() {
    FailpointRegistry::Global().Clear();
    SetRetrySleepFnForTest(nullptr);
  }
};

std::string FreshTempDir(const std::string& leaf) {
  std::string dir = ::testing::TempDir() + leaf;
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Derived histogram stats.

MetricsSnapshot::HistogramData MakeHist(std::vector<double> bounds,
                                        std::vector<uint64_t> bucket_counts,
                                        double sum) {
  MetricsSnapshot::HistogramData h;
  h.bounds = std::move(bounds);
  h.bucket_counts = std::move(bucket_counts);
  for (uint64_t c : h.bucket_counts) h.count += c;
  h.sum = sum;
  return h;
}

TEST(HistogramQuantileTest, InterpolatesWithinBuckets) {
  // 10 observations all in (0, 10]: the estimate interpolates linearly from
  // the implicit 0 lower edge.
  MetricsSnapshot::HistogramData h = MakeHist({10.0}, {10, 0}, 50.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 5.0);

  // 2 in (0,1], 2 in (1,2]: the 0.75 rank lands halfway into the second
  // bucket.
  MetricsSnapshot::HistogramData two = MakeHist({1.0, 2.0}, {2, 2, 0}, 3.0);
  EXPECT_DOUBLE_EQ(two.Quantile(0.75), 1.5);
}

TEST(HistogramQuantileTest, OverflowClampsToLastBound) {
  MetricsSnapshot::HistogramData h = MakeHist({10.0}, {0, 5}, 500.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 10.0);
}

TEST(HistogramQuantileTest, EmptyOrMalformedReturnsZero) {
  MetricsSnapshot::HistogramData empty;
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.Mean(), 0.0);

  MetricsSnapshot::HistogramData malformed = MakeHist({1.0}, {3}, 1.0);
  // bucket_counts must be bounds+1 entries; a short vector is a no-answer,
  // not a crash.
  EXPECT_DOUBLE_EQ(malformed.Quantile(0.5), 0.0);
}

// ---------------------------------------------------------------------------
// Registry merge: the cross-process primitive.

TEST(MergeTest, CountersAddGaugesLastWriteHistogramsBucketwise) {
  MetricsRegistry reg;
  reg.GetCounter("c")->Increment(5);
  reg.GetGauge("g")->Set(1.0);
  Histogram* h = reg.GetHistogram("h", {1.0, 2.0});
  h->Observe(0.5);

  MetricsSnapshot delta;
  delta.counters["c"] = 3;
  delta.counters["c2"] = 7;  // unknown metrics register on the fly
  delta.gauges["g"] = 2.5;
  delta.histograms["h"] = MakeHist({1.0, 2.0}, {1, 0, 2}, 9.0);
  reg.Merge(delta);

  MetricsSnapshot merged = reg.Snapshot();
  EXPECT_EQ(merged.counters["c"], 8u);
  EXPECT_EQ(merged.counters["c2"], 7u);
  EXPECT_DOUBLE_EQ(merged.gauges["g"], 2.5);
  EXPECT_EQ(merged.histograms["h"].bucket_counts,
            (std::vector<uint64_t>{2, 0, 2}));
  EXPECT_EQ(merged.histograms["h"].count, 4u);
  EXPECT_DOUBLE_EQ(merged.histograms["h"].sum, 9.5);
}

TEST(MergeTest, MergeIsOrderIndependent) {
  MetricsSnapshot a;
  a.counters["c"] = 3;
  a.histograms["h"] = MakeHist({1.0}, {2, 1}, 4.0);
  MetricsSnapshot b;
  b.counters["c"] = 5;
  b.counters["only_b"] = 1;
  b.histograms["h"] = MakeHist({1.0}, {0, 4}, 40.0);

  MetricsRegistry ab;
  ab.Merge(a);
  ab.Merge(b);
  MetricsRegistry ba;
  ba.Merge(b);
  ba.Merge(a);
  // Counters add and histograms add bucket-wise, so arrival order — which
  // the parallel supervisor cannot control — must not matter.
  EXPECT_EQ(ab.ToJson(), ba.ToJson());
}

TEST(MergeTest, BoundsMismatchWarnsAndSkipsInsteadOfCrashing) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("h", {1.0, 2.0});
  h->Observe(0.5);
  uint64_t mismatches_before =
      CounterValue("fairem.telemetry.merge_bounds_mismatches");

  MetricsSnapshot delta;
  delta.histograms["h"] = MakeHist({5.0}, {1, 1}, 6.0);
  reg.Merge(delta);

  EXPECT_EQ(CounterValue("fairem.telemetry.merge_bounds_mismatches") -
                mismatches_before,
            1u);
  // The registered histogram is untouched.
  EXPECT_EQ(reg.Snapshot().histograms["h"].count, 1u);
}

TEST(MergeTest, MalformedBucketCountsAreSkipped) {
  MetricsRegistry reg;
  reg.GetHistogram("h", {1.0, 2.0});
  uint64_t mismatches_before =
      CounterValue("fairem.telemetry.merge_bounds_mismatches");

  MetricsSnapshot delta;
  MetricsSnapshot::HistogramData bad;
  bad.bounds = {1.0, 2.0};
  bad.bucket_counts = {1};  // should be bounds+1 entries
  bad.count = 1;
  delta.histograms["h"] = bad;
  reg.Merge(delta);

  EXPECT_EQ(CounterValue("fairem.telemetry.merge_bounds_mismatches") -
                mismatches_before,
            1u);
  EXPECT_EQ(reg.Snapshot().histograms["h"].count, 0u);
}

// ---------------------------------------------------------------------------
// Snapshot JSON: serialize, parse back, derived keys.

TEST(SnapshotJsonTest, RoundTripPreservesEverything) {
  MetricsRegistry reg;
  reg.GetCounter("fairem.test.count")->Increment(42);
  reg.GetGauge("fairem.test.gauge")->Set(2.5);
  Histogram* h = reg.GetHistogram("fairem.test.hist", {1.0, 2.0});
  h->Observe(0.5);
  h->Observe(5.0);
  MetricsSnapshot snap = reg.Snapshot();

  MetricsSnapshot parsed =
      std::move(MetricsSnapshotFromJson(MetricsSnapshotToJson(snap))).value();
  EXPECT_EQ(parsed.counters, snap.counters);
  EXPECT_EQ(parsed.gauges, snap.gauges);
  ASSERT_EQ(parsed.histograms.count("fairem.test.hist"), 1u);
  const auto& ph = parsed.histograms["fairem.test.hist"];
  EXPECT_EQ(ph.bounds, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(ph.bucket_counts, (std::vector<uint64_t>{1, 0, 1}));
  EXPECT_EQ(ph.count, 2u);
  EXPECT_DOUBLE_EQ(ph.sum, 5.5);
}

TEST(SnapshotJsonTest, JsonCarriesDerivedQuantileKeys) {
  MetricsSnapshot snap;
  snap.histograms["h"] = MakeHist({1.0}, {4, 0}, 2.0);
  std::string json = MetricsSnapshotToJson(snap);
  EXPECT_NE(json.find("\"mean\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(SnapshotJsonTest, ParseRejectsGarbage) {
  EXPECT_FALSE(MetricsSnapshotFromJson("not json").ok());
  EXPECT_FALSE(MetricsSnapshotFromJson("[1,2,3]").ok());
}

// ---------------------------------------------------------------------------
// Prometheus exposition.

TEST(PrometheusTest, NameSanitization) {
  EXPECT_EQ(PrometheusName("fairem.audit.cells"), "fairem_audit_cells");
  EXPECT_EQ(PrometheusName("a-b/c"), "a_b_c");
  EXPECT_EQ(PrometheusName("9lives"), "_9lives");
  EXPECT_EQ(PrometheusName("keep:colons_and_0k"), "keep:colons_and_0k");
}

TEST(PrometheusTest, ExpositionHasTypesBucketsSumAndCount) {
  MetricsSnapshot snap;
  snap.counters["fairem.test.count"] = 3;
  snap.gauges["fairem.test.gauge"] = 1.5;
  snap.histograms["fairem.test.hist"] = MakeHist({1.0, 2.0}, {1, 2, 1}, 6.0);
  std::string text = MetricsSnapshotToPrometheus(snap);
  EXPECT_NE(text.find("# TYPE fairem_test_count counter"), std::string::npos);
  EXPECT_NE(text.find("fairem_test_count 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fairem_test_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fairem_test_hist histogram"), std::string::npos);
  // Buckets are cumulative and end with the +Inf catch-all.
  EXPECT_NE(text.find("fairem_test_hist_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("fairem_test_hist_bucket{le=\"2\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("fairem_test_hist_bucket{le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("fairem_test_hist_sum 6"), std::string::npos);
  EXPECT_NE(text.find("fairem_test_hist_count 4"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Worker telemetry wire format.

WorkerTelemetry MakeTelemetry() {
  WorkerTelemetry t;
  t.task_key = "grid/DT:single";
  t.attempt = 2;
  t.pid = 4242;
  t.metrics.counters["fairem.test.count"] = 5;
  t.metrics.gauges["fairem.test.gauge"] = 0.25;
  t.metrics.histograms["fairem.test.hist"] = MakeHist({1.0}, {1, 1}, 3.0);
  TraceEvent span;
  span.id = 9;
  span.parent_id = 3;
  span.depth = 1;
  span.name = "fairem.matcher.fit";
  span.start_ns = 1000;
  span.duration_ns = 2000;
  span.thread_id = 7;
  span.args = {{"matcher", "DT"}};
  t.spans.push_back(span);
  return t;
}

TEST(WireFormatTest, TelemetrySerializeParseRoundTrip) {
  WorkerTelemetry t = MakeTelemetry();
  WorkerTelemetry parsed =
      std::move(ParseWorkerTelemetry(SerializeWorkerTelemetry(t))).value();
  EXPECT_EQ(parsed.task_key, t.task_key);
  EXPECT_EQ(parsed.attempt, t.attempt);
  EXPECT_EQ(parsed.pid, t.pid);
  EXPECT_EQ(parsed.metrics.counters, t.metrics.counters);
  EXPECT_EQ(parsed.metrics.gauges, t.metrics.gauges);
  ASSERT_EQ(parsed.spans.size(), 1u);
  EXPECT_EQ(parsed.spans[0].id, 9u);
  EXPECT_EQ(parsed.spans[0].parent_id, 3u);
  EXPECT_EQ(parsed.spans[0].name, "fairem.matcher.fit");
  EXPECT_EQ(parsed.spans[0].start_ns, 1000u);
  EXPECT_EQ(parsed.spans[0].duration_ns, 2000u);
  ASSERT_EQ(parsed.spans[0].args.size(), 1u);
  EXPECT_EQ(parsed.spans[0].args[0].first, "matcher");
  EXPECT_EQ(parsed.spans[0].args[0].second, "DT");
}

TEST(WireFormatTest, ParseRejectsWrongVersionAndGarbage) {
  EXPECT_FALSE(ParseWorkerTelemetry("{\"version\": 2, \"metrics\": {}}").ok());
  EXPECT_FALSE(ParseWorkerTelemetry("garbage").ok());
}

TEST(WireFormatTest, WrapAndSplitRoundTrip) {
  const std::string telemetry_json = "{\"version\": 1}";
  const std::string payload = std::string("grid cell payload\n\0tail", 23);
  std::string wire =
      EncodeTelemetryWire({{kFrameTelemetry, telemetry_json}}, payload);
  ASSERT_EQ(wire.compare(0, 8, kTelemetryMagic), 0);
  TelemetryWireParse split = ParseTelemetryWire(wire);
  ASSERT_EQ(split.frames.size(), 1u);
  EXPECT_EQ(split.frames[0].type, kFrameTelemetry);
  EXPECT_EQ(split.frames[0].bytes, telemetry_json);
  EXPECT_EQ(split.payload, payload);
}

TEST(WireFormatTest, UnframedOrCorruptWireDegradesToWholePayload) {
  // A PR-3 worker (or one that crashed before shipping) sends an unframed
  // payload; it must pass through untouched, never error.
  TelemetryWireParse plain = ParseTelemetryWire("plain payload");
  EXPECT_TRUE(plain.frames.empty());
  EXPECT_EQ(plain.payload, "plain payload");

  // A wire truncated mid-telemetry (worker killed mid-write) degrades the
  // same way.
  std::string wire =
      EncodeTelemetryWire({{kFrameTelemetry, "{\"version\": 1}"}}, "payload");
  std::string truncated = wire.substr(0, wire.size() / 2);
  TelemetryWireParse cut = ParseTelemetryWire(truncated);
  EXPECT_TRUE(cut.frames.empty());
  EXPECT_EQ(cut.payload, truncated);

  // Magic with a corrupt length field.
  std::string corrupt = std::string(kTelemetryMagic) + "zzzz\npayload";
  TelemetryWireParse bad = ParseTelemetryWire(corrupt);
  EXPECT_TRUE(bad.frames.empty());
  EXPECT_EQ(bad.payload, corrupt);
}

TEST(WireFormatTest, MultiFrameEncodeParseRoundTrip) {
  const std::string folded = "process:worker_7;span:fit;Fit 12\n";
  std::string wire = EncodeTelemetryWire(
      {{kFrameTelemetry, "{\"version\": 1}"}, {kFrameProfile, folded}},
      "grid payload");
  TelemetryWireParse parsed = ParseTelemetryWire(wire);
  EXPECT_TRUE(parsed.framed);
  EXPECT_FALSE(parsed.truncated);
  ASSERT_EQ(parsed.frames.size(), 2u);
  EXPECT_EQ(parsed.frames[0].type, kFrameTelemetry);
  EXPECT_EQ(parsed.frames[0].bytes, "{\"version\": 1}");
  EXPECT_EQ(parsed.frames[1].type, kFrameProfile);
  EXPECT_EQ(parsed.frames[1].bytes, folded);
  EXPECT_EQ(parsed.payload, "grid payload");
}

TEST(WireFormatTest, UnknownFrameTypeIsSkippedNotCorrupt) {
  // A newer worker ships a frame type this build has never heard of. The
  // length field still delimits it, so the receiver steps over the frame,
  // counts it, and keeps everything else.
  uint64_t unknown_before = CounterValue("fairem.telemetry.unknown_frames");
  std::string wire = EncodeTelemetryWire(
      {{"XFUT", std::string("opaque future \0 bytes", 21)},
       {kFrameTelemetry, "{\"version\": 1}"}},
      "payload");
  TelemetryWireParse parsed = ParseTelemetryWire(wire);
  EXPECT_TRUE(parsed.framed);
  EXPECT_FALSE(parsed.truncated);
  EXPECT_EQ(CounterValue("fairem.telemetry.unknown_frames") - unknown_before,
            1u);
  ASSERT_EQ(parsed.frames.size(), 2u);
  EXPECT_EQ(parsed.frames[0].type, "XFUT");
  EXPECT_EQ(parsed.frames[1].type, kFrameTelemetry);
  EXPECT_EQ(parsed.payload, "payload");

  // The telemetry frame is still there, past the unknown frame.
  EXPECT_EQ(parsed.frames[1].bytes, "{\"version\": 1}");
}

TEST(WireFormatTest, TruncatedProfileFrameKeepsParsedTelemetry) {
  // Worker killed mid-ship: TELE landed whole, PROF was cut. The parsed
  // frames survive; the missing payload marks the wire truncated.
  std::string folded(200, 'x');
  std::string wire = EncodeTelemetryWire(
      {{kFrameTelemetry, "{\"version\": 1}"}, {kFrameProfile, folded}},
      "payload");
  size_t prof_start = wire.find("PROF");
  ASSERT_NE(prof_start, std::string::npos);
  TelemetryWireParse cut = ParseTelemetryWire(wire.substr(0, prof_start + 60));
  EXPECT_TRUE(cut.framed);
  EXPECT_TRUE(cut.truncated);
  ASSERT_EQ(cut.frames.size(), 1u);
  EXPECT_EQ(cut.frames[0].type, kFrameTelemetry);
  EXPECT_EQ(cut.frames[0].bytes, "{\"version\": 1}");
  EXPECT_TRUE(cut.payload.empty());
}

TEST(WireFormatTest, ProfileSidecarRoundTrip) {
  std::string dir = FreshTempDir("fairem_profile_sidecar");
  const std::string folded = "process:worker_1;span:fit;Fit 3\n";
  ASSERT_TRUE(WriteProfileSidecar(dir, "grid/DT:single", 2, folded).ok());
  std::string path = ProfileSidecarPath(dir, "grid/DT:single", 2);
  std::string leaf = std::filesystem::path(path).filename().string();
  EXPECT_EQ(leaf.find('/'), std::string::npos);
  EXPECT_NE(leaf.find(".attempt2.profile.folded"), std::string::npos);
  EXPECT_EQ(std::move(LoadProfileSidecarFile(path)).value(), folded);
  EXPECT_FALSE(LoadProfileSidecarFile(dir + "/absent.folded").ok());
}

// ---------------------------------------------------------------------------
// Delta computation: what a worker ships.

TEST(DiffSnapshotsTest, ShipsOnlyTheTaskContribution) {
  MetricsSnapshot base;
  base.counters["inherited"] = 10;
  base.counters["bumped"] = 4;
  base.gauges["stale"] = 1.0;
  base.gauges["touched"] = 1.0;
  base.histograms["h"] = MakeHist({1.0}, {3, 0}, 1.5);

  MetricsSnapshot now = base;
  now.counters["bumped"] = 9;
  now.counters["fresh"] = 2;
  now.counters["registered_at_zero"] = 0;
  now.gauges["touched"] = 7.0;
  now.histograms["h"] = MakeHist({1.0}, {5, 1}, 4.5);

  MetricsSnapshot delta = DiffSnapshots(base, now);
  // Inherited fork-time values must not ship: the parent already has them.
  EXPECT_EQ(delta.counters.count("inherited"), 0u);
  EXPECT_EQ(delta.counters.at("bumped"), 5u);
  EXPECT_EQ(delta.counters.at("fresh"), 2u);
  // Registered during the task: ships even at zero so the merged parent
  // snapshot lists the same counter names a sequential run would.
  EXPECT_EQ(delta.counters.at("registered_at_zero"), 0u);
  EXPECT_EQ(delta.gauges.count("stale"), 0u);
  EXPECT_DOUBLE_EQ(delta.gauges.at("touched"), 7.0);
  EXPECT_EQ(delta.histograms.at("h").bucket_counts,
            (std::vector<uint64_t>{2, 1}));
  EXPECT_EQ(delta.histograms.at("h").count, 3u);
  EXPECT_DOUBLE_EQ(delta.histograms.at("h").sum, 3.0);
}

// ---------------------------------------------------------------------------
// Sidecar files.

TEST(SidecarTest, WriteLoadRoundTripAndKeySanitization) {
  std::string dir = FreshTempDir("fairem_telemetry_sidecar");
  WorkerTelemetry t = MakeTelemetry();  // key "grid/DT:single" needs escaping
  ASSERT_TRUE(WriteTelemetrySidecar(dir, t).ok());
  std::string path = TelemetrySidecarPath(dir, t.task_key, t.attempt);
  // The task key's '/' must not fragment the filename into subdirectories.
  std::string leaf = std::filesystem::path(path).filename().string();
  EXPECT_EQ(leaf.find('/'), std::string::npos);
  EXPECT_NE(leaf.find(".attempt2.telemetry.json"), std::string::npos);
  ASSERT_TRUE(std::filesystem::exists(path));
  WorkerTelemetry loaded = std::move(LoadTelemetrySidecarFile(path)).value();
  EXPECT_EQ(loaded.task_key, t.task_key);
  EXPECT_EQ(loaded.attempt, t.attempt);
  EXPECT_EQ(loaded.metrics.counters, t.metrics.counters);
  EXPECT_FALSE(LoadTelemetrySidecarFile(dir + "/absent.json").ok());
}

// ---------------------------------------------------------------------------
// Absorb: merge into the global registry, re-emit spans on worker tracks.

TEST(AbsorbTest, MergesMetricsAndImportsSpansOnWorkerTrack) {
  Tracer::Global().Clear();
  uint64_t count_before = CounterValue("fairem.test.absorb_probe");
  uint64_t merged_before = CounterValue("fairem.telemetry.deltas_merged");
  uint64_t imported_before = CounterValue("fairem.telemetry.spans_imported");

  WorkerTelemetry t;
  t.task_key = "absorb";
  t.attempt = 1;
  t.pid = 31337;
  t.metrics.counters["fairem.test.absorb_probe"] = 6;
  TraceEvent span;
  span.id = 1;
  span.name = "fairem.test.absorbed_span";
  span.duration_ns = 500;
  t.spans.push_back(span);
  AbsorbWorkerTelemetry(t);

  EXPECT_EQ(CounterValue("fairem.test.absorb_probe") - count_before, 6u);
  EXPECT_EQ(CounterValue("fairem.telemetry.deltas_merged") - merged_before,
            1u);
  EXPECT_EQ(CounterValue("fairem.telemetry.spans_imported") - imported_before,
            1u);
  // Imported even though the tracer is disabled, tagged with the worker pid.
  std::vector<TraceEvent> events = Tracer::Global().Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "fairem.test.absorbed_span");
  EXPECT_EQ(events[0].track_id, 31337u);
  Tracer::Global().Clear();
}

// ---------------------------------------------------------------------------
// Durable writes.

TEST(DurableFileTest, CreatesParentsWritesContentLeavesNoTemp) {
  std::string root = FreshTempDir("fairem_durable");
  std::string path = root + "/nested/deeper/out.json";
  ASSERT_TRUE(WriteFileDurable(path, "v1").ok());
  ASSERT_TRUE(WriteFileDurable(path, "version-two").ok());
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "version-two");
  // No temp file is left behind: the directory holds only the published
  // file.
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(root + "/nested/deeper")) {
    files.push_back(entry.path().filename());
  }
  EXPECT_EQ(files, std::vector<std::string>{"out.json"});
}

// Two writers of one path must not share a temp inode: when they did (a
// fixed `<path>.tmp`), a second writer still holding the temp file open
// wrote into the file the first had just published.
TEST(DurableFileTest, HeldTempFileCannotTearThePublishedFile) {
  std::string root = FreshTempDir("fairem_durable_torn");
  std::filesystem::create_directories(root);
  std::string path = root + "/cell.json";
  int held = ::open((path + ".tmp").c_str(),
                    O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  ASSERT_GE(held, 0);
  ASSERT_TRUE(WriteFileDurable(path, "AAAA").ok());
  ASSERT_EQ(::pwrite(held, "ZZ", 2, 0), 2);
  ::close(held);
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "AAAA");
}

TEST(DurableFileTest, MetricsWriteFileHonoursFormat) {
  std::string root = FreshTempDir("fairem_metrics_fmt");
  MetricsRegistry reg;
  reg.GetCounter("fairem.test.fmt")->Increment(2);
  ASSERT_TRUE(reg.WriteFile(root + "/m.json", MetricsFormat::kJson).ok());
  ASSERT_TRUE(reg.WriteFile(root + "/m.prom", MetricsFormat::kProm).ok());
  std::ifstream json_in(root + "/m.json");
  std::string json((std::istreambuf_iterator<char>(json_in)),
                   std::istreambuf_iterator<char>());
  std::ifstream prom_in(root + "/m.prom");
  std::string prom((std::istreambuf_iterator<char>(prom_in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"fairem.test.fmt\": 2"), std::string::npos);
  EXPECT_NE(prom.find("fairem_test_fmt 2"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Progress reporting.

TEST(ProgressReporterTest, FormatLine) {
  ProgressSnapshot snap;
  snap.total = 40;
  snap.done = 12;
  snap.running = 4;
  snap.retrying = 1;
  snap.failed = 0;
  EXPECT_EQ(ProgressReporter::FormatLine(snap, 38.25),
            "grid 12/40 done, 4 running, 1 retrying, 0 failed, eta 38.2s");
  EXPECT_EQ(ProgressReporter::FormatLine(snap, -1.0),
            "grid 12/40 done, 4 running, 1 retrying, 0 failed, eta ?");
}

TEST(ProgressReporterTest, EtaFromCellHistogramAndGauges) {
  // The ETA feeds off the process-global fairem.progress.cell_seconds
  // histogram; zero it so earlier tests' grid runs don't skew the mean.
  MetricsRegistry::Global().Reset();
  ProgressReporter reporter(/*total_cells=*/10, /*jobs=*/2,
                            /*min_interval_seconds=*/0.0,
                            /*emit_stderr=*/false);
  ProgressSnapshot snap;
  snap.total = 10;
  snap.done = 0;
  EXPECT_DOUBLE_EQ(reporter.EtaSeconds(snap), -1.0);  // no cells yet

  snap.done = 4;
  snap.running = 2;
  snap.last_cell_seconds = 2.0;
  reporter.Update(snap);
  // mean 2s × 6 remaining ÷ 2 jobs.
  EXPECT_DOUBLE_EQ(reporter.EtaSeconds(snap), 6.0);
  MetricsRegistry& reg = MetricsRegistry::Global();
  EXPECT_DOUBLE_EQ(reg.GetGauge("fairem.progress.cells_total")->value(), 10.0);
  EXPECT_DOUBLE_EQ(reg.GetGauge("fairem.progress.cells_done")->value(), 4.0);
  EXPECT_DOUBLE_EQ(reg.GetGauge("fairem.progress.cells_running")->value(),
                   2.0);
  EXPECT_DOUBLE_EQ(reg.GetGauge("fairem.progress.eta_seconds")->value(), 6.0);

  snap.done = 10;
  EXPECT_DOUBLE_EQ(reporter.EtaSeconds(snap), 0.0);  // nothing remaining
}

// ---------------------------------------------------------------------------
// benchdiff: spec grammar, flattening, gate.

TEST(BenchDiffTest, ParseFailOnSpec) {
  FailOnSpec ratio = std::move(ParseFailOnSpec(
                                   "fairem.matcher.predict_seconds.mean>1.10x"))
                         .value();
  EXPECT_EQ(ratio.metric, "fairem.matcher.predict_seconds.mean");
  EXPECT_EQ(ratio.op, '>');
  EXPECT_DOUBLE_EQ(ratio.threshold, 1.10);
  EXPECT_TRUE(ratio.ratio);

  FailOnSpec delta = std::move(ParseFailOnSpec("fairem.audit.failed < -2"))
                         .value();
  EXPECT_EQ(delta.metric, "fairem.audit.failed");
  EXPECT_EQ(delta.op, '<');
  EXPECT_DOUBLE_EQ(delta.threshold, -2.0);
  EXPECT_FALSE(delta.ratio);

  EXPECT_FALSE(ParseFailOnSpec("no-operator").ok());
  EXPECT_FALSE(ParseFailOnSpec(">1.0").ok());
  EXPECT_FALSE(ParseFailOnSpec("metric>").ok());
  EXPECT_FALSE(ParseFailOnSpec("metric>abc").ok());
}

TEST(BenchDiffTest, ParseFailOnSpecAbsoluteSuffix) {
  FailOnSpec ceil =
      std::move(ParseFailOnSpec("fairem.proc.peak_rss_mb>512abs")).value();
  EXPECT_EQ(ceil.metric, "fairem.proc.peak_rss_mb");
  EXPECT_EQ(ceil.op, '>');
  EXPECT_DOUBLE_EQ(ceil.threshold, 512.0);
  EXPECT_TRUE(ceil.absolute);
  EXPECT_FALSE(ceil.ratio);

  FailOnSpec floor =
      std::move(ParseFailOnSpec("fairem.profile.samples<100ABS")).value();
  EXPECT_EQ(floor.op, '<');
  EXPECT_DOUBLE_EQ(floor.threshold, 100.0);
  EXPECT_TRUE(floor.absolute);

  // A bare "abs" has no threshold digits; the x suffix still parses as a
  // ratio, never as a mangled absolute.
  EXPECT_FALSE(ParseFailOnSpec("metric>abs").ok());
  FailOnSpec ratio = std::move(ParseFailOnSpec("metric>1.5x")).value();
  EXPECT_TRUE(ratio.ratio);
  EXPECT_FALSE(ratio.absolute);
}

TEST(BenchDiffTest, AbsoluteSpecsGateOnTheNewValueAlone) {
  // Absolute clauses ignore the old snapshot entirely: they are budget
  // ceilings/floors, not regression comparisons.
  std::map<std::string, double> old_flat{{"rss", 900.0}, {"samples", 500.0}};
  std::map<std::string, double> new_flat{{"rss", 400.0}, {"samples", 50.0}};
  auto check = [&](const std::string& raw) {
    return std::move(CheckFailOnSpecs(
                         old_flat, new_flat,
                         {std::move(ParseFailOnSpec(raw)).value()}))
        .value();
  };
  EXPECT_EQ(check("rss>512abs").size(), 0u);       // 400 under the ceiling
  EXPECT_EQ(check("rss>256abs").size(), 1u);       // 400 over it
  EXPECT_EQ(check("samples<100abs").size(), 1u);   // 50 under the floor
  EXPECT_EQ(check("samples<25abs").size(), 0u);
  // Same numbers as a delta clause would trip on the -500 drop; absolute
  // does not care that the old value was 900.
  EXPECT_EQ(check("rss<0").size(), 1u);
}

TEST(BenchDiffTest, FlattenExpandsHistograms) {
  MetricsSnapshot snap;
  snap.counters["c"] = 3;
  snap.gauges["g"] = 0.5;
  snap.histograms["h"] = MakeHist({10.0}, {10, 0}, 50.0);
  std::map<std::string, double> flat = FlattenSnapshot(snap);
  EXPECT_DOUBLE_EQ(flat.at("c"), 3.0);
  EXPECT_DOUBLE_EQ(flat.at("g"), 0.5);
  EXPECT_DOUBLE_EQ(flat.at("h.mean"), 5.0);
  EXPECT_DOUBLE_EQ(flat.at("h.count"), 10.0);
  EXPECT_DOUBLE_EQ(flat.at("h.sum"), 50.0);
  EXPECT_DOUBLE_EQ(flat.at("h.p50"), 5.0);
  EXPECT_EQ(flat.count("h.p95"), 1u);
  EXPECT_EQ(flat.count("h.p99"), 1u);
}

TEST(BenchDiffTest, CheckFailOnSpecsTripsInBothDirections) {
  std::map<std::string, double> old_flat{{"lat", 1.0}, {"count", 100.0}};
  std::map<std::string, double> new_flat{{"lat", 1.3}, {"count", 80.0}};

  auto check = [&](const std::string& raw) {
    return std::move(CheckFailOnSpecs(
                         old_flat, new_flat,
                         {std::move(ParseFailOnSpec(raw)).value()}))
        .value();
  };
  EXPECT_EQ(check("lat>1.5x").size(), 0u);   // 1.3x is under the gate
  EXPECT_EQ(check("lat>1.1x").size(), 1u);   // regression: grew 30%
  EXPECT_EQ(check("count<0.9x").size(), 1u); // regression: shrank to 0.8x
  EXPECT_EQ(check("lat>0.5").size(), 0u);    // delta 0.3 under 0.5
  EXPECT_EQ(check("count<-30").size(), 0u);  // delta -20 above -30

  // A metric the new snapshot lost is an error, never a silent pass.
  Result<std::vector<std::string>> gone = CheckFailOnSpecs(
      old_flat, new_flat, {std::move(ParseFailOnSpec("renamed>0")).value()});
  EXPECT_TRUE(gone.status().IsInvalidArgument());

  // A metric absent from the old snapshot counts from zero: its ratio is
  // +inf, so appear-from-nothing trips '>' ratio gates.
  std::map<std::string, double> with_new = new_flat;
  with_new["fresh"] = 5.0;
  std::vector<std::string> fresh =
      std::move(CheckFailOnSpecs(
                    old_flat, with_new,
                    {std::move(ParseFailOnSpec("fresh>100x")).value()}))
          .value();
  EXPECT_EQ(fresh.size(), 1u);
}

TEST(BenchDiffTest, RenderTableHidesUnchangedAndMarksNewAndGone) {
  MetricsSnapshot old_snap;
  old_snap.counters["same"] = 5;
  old_snap.counters["grew"] = 5;
  old_snap.counters["gone"] = 1;
  MetricsSnapshot new_snap;
  new_snap.counters["same"] = 5;
  new_snap.counters["grew"] = 10;
  new_snap.counters["fresh"] = 2;
  std::vector<BenchDiffRow> rows = DiffSnapshotsForBench(old_snap, new_snap);
  std::string table = RenderBenchDiffTable(rows, /*changed_only=*/true);
  EXPECT_EQ(table.find("same"), std::string::npos);
  EXPECT_NE(table.find("1 unchanged metric hidden"), std::string::npos);
  EXPECT_NE(table.find("grew"), std::string::npos);
  EXPECT_NE(table.find("fresh (new)"), std::string::npos);
  EXPECT_NE(table.find("gone (gone)"), std::string::npos);
  std::string full = RenderBenchDiffTable(rows, /*changed_only=*/false);
  EXPECT_NE(full.find("same"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Supervisor integration: telemetry across the fork boundary.

TEST(SupervisorTelemetryTest, WorkerCountersAndSpansReachTheParent) {
  RobustGuard guard;
  Tracer::Global().Clear();
  Tracer::Global().set_enabled(true);
  uint64_t probe_before = CounterValue("fairem.test.worker_probe");

  Supervisor supervisor({});
  std::vector<Supervisor::Task> tasks{
      {"probe", []() -> Result<std::string> {
         Span span("fairem.test.worker_span");
         MetricsRegistry::Global()
             .GetCounter("fairem.test.worker_probe")
             ->Increment(3);
         return std::string("ok");
       }}};
  std::vector<TaskOutcome> outcomes = std::move(supervisor.Run(tasks)).value();
  Tracer::Global().set_enabled(false);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_EQ(outcomes[0].kind, TaskOutcome::Kind::kOk);
  EXPECT_EQ(outcomes[0].payload, "ok");

  // The increment happened in a forked worker; only telemetry shipping can
  // land it in this process.
  EXPECT_EQ(CounterValue("fairem.test.worker_probe") - probe_before, 3u);
  std::vector<TraceEvent> events = Tracer::Global().Events();
  auto it = std::find_if(events.begin(), events.end(), [](const TraceEvent& e) {
    return e.name == "fairem.test.worker_span";
  });
  ASSERT_NE(it, events.end());
  EXPECT_NE(it->track_id, 0u);  // rendered on the worker-pid track
  Tracer::Global().Clear();
}

TEST(SupervisorTelemetryTest, ShippedThenCrashedIsMergedExactlyOncePerAttempt) {
  RobustGuard guard;
  // The worker writes the sidecar, ships the full wire on the pipe, and
  // then crashes: the parent holds BOTH copies of the same delta plus a
  // crash exit that triggers a respawn — the dedup's worst case.
  ASSERT_TRUE(
      FailpointRegistry::Global().Configure("supervisor_ship=crash(1)").ok());
  uint64_t probe_before = CounterValue("fairem.test.dedup_probe");

  SupervisorOptions opts;
  opts.max_attempts = 2;
  Supervisor supervisor(opts);
  std::vector<Supervisor::Task> tasks{
      {"dedup", []() -> Result<std::string> {
         MetricsRegistry::Global()
             .GetCounter("fairem.test.dedup_probe")
             ->Increment();
         return std::string("ok");
       }}};
  std::vector<TaskOutcome> outcomes = std::move(supervisor.Run(tasks)).value();
  FailpointRegistry::Global().Clear();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].kind, TaskOutcome::Kind::kCrashed);
  EXPECT_EQ(outcomes[0].attempts, 2);
  // One increment per attempt, never doubled by the pipe+sidecar pair.
  EXPECT_EQ(CounterValue("fairem.test.dedup_probe") - probe_before, 2u);
}

TEST(SupervisorTelemetryTest, SidecarIsSweptWhenThePipeCopyNeverLanded) {
  RobustGuard guard;
  std::string dir = FreshTempDir("fairem_telemetry_sweep");
  // Plant the sidecar a crashed attempt would have left, then run a task
  // that dies before shipping anything on the pipe.
  WorkerTelemetry planted;
  planted.task_key = "sweep";
  planted.attempt = 1;
  planted.pid = 999;
  planted.metrics.counters["fairem.test.sweep_probe"] = 7;
  ASSERT_TRUE(WriteTelemetrySidecar(dir, planted).ok());
  uint64_t probe_before = CounterValue("fairem.test.sweep_probe");
  uint64_t swept_before = CounterValue("fairem.telemetry.sidecars_swept");

  SupervisorOptions opts;
  opts.max_attempts = 1;
  opts.telemetry_dir = dir;
  Supervisor supervisor(opts);
  std::vector<Supervisor::Task> tasks{
      {"sweep", []() -> Result<std::string> { std::abort(); }}};
  std::vector<TaskOutcome> outcomes = std::move(supervisor.Run(tasks)).value();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].kind, TaskOutcome::Kind::kCrashed);
  EXPECT_EQ(CounterValue("fairem.test.sweep_probe") - probe_before, 7u);
  EXPECT_EQ(CounterValue("fairem.telemetry.sidecars_swept") - swept_before,
            1u);
  // Settled sidecars are always cleaned up.
  EXPECT_FALSE(
      std::filesystem::exists(TelemetrySidecarPath(dir, "sweep", 1)));
}

// ---------------------------------------------------------------------------
// Grid-level equivalence: --jobs N must count like a sequential sweep.

std::vector<MatcherKind> SkipAllExcept(const std::vector<MatcherKind>& keep) {
  std::vector<MatcherKind> skip;
  for (MatcherKind kind : AllMatcherKinds()) {
    if (std::find(keep.begin(), keep.end(), kind) == keep.end()) {
      skip.push_back(kind);
    }
  }
  return skip;
}

TEST(SupervisorTelemetryTest, ParallelGridCountersMatchSequential) {
  RobustGuard guard;
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kFacultyMatch, 0.3)).value();
  GridRunOptions options;
  options.audit.reference = AuditReference::kComplement;
  options.skip = SkipAllExcept(
      {MatcherKind::kDT, MatcherKind::kNB, MatcherKind::kBooleanRule});

  const std::vector<const char*> kEquivalentCounters{
      "fairem.audit.cells_evaluated",
      "fairem.audit.cells_flagged",
      "fairem.harness.matcher_runs",
  };
  std::map<std::string, uint64_t> seq_delta, par_delta;

  std::map<std::string, uint64_t> before;
  for (const char* name : kEquivalentCounters) before[name] = CounterValue(name);
  std::string sequential =
      std::move(UnfairnessGridReport(ds, false, options)).value();
  for (const char* name : kEquivalentCounters) {
    seq_delta[name] = CounterValue(name) - before[name];
  }

  options.jobs = 4;
  for (const char* name : kEquivalentCounters) before[name] = CounterValue(name);
  std::string parallel =
      std::move(UnfairnessGridReport(ds, false, options)).value();
  for (const char* name : kEquivalentCounters) {
    par_delta[name] = CounterValue(name) - before[name];
  }

  EXPECT_EQ(parallel, sequential);
  // The whole point of worker telemetry: the parallel run's counters are
  // indistinguishable from the sequential run's.
  EXPECT_EQ(par_delta, seq_delta);
  EXPECT_GT(seq_delta["fairem.audit.cells_evaluated"], 0u);
}

}  // namespace
}  // namespace fairem
