#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/audit.h"
#include "src/core/confusion.h"
#include "src/datagen/benchmark_suite.h"
#include "src/harness/experiment.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"
#include "src/util/flags.h"

namespace fairem {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON validator/parser, enough to check that the exported
// metrics and Chrome-trace documents are well-formed and to round-trip the
// counter values. Numbers are kept as raw text.

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  std::string scalar;  // number text / string value / "true"/"false"
  std::vector<JsonValue> items;                 // kArray
  std::map<std::string, JsonValue> members;     // kObject
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    pos_ = 0;
    if (!ParseValue(out)) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(
                                      static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        switch (text_[pos_]) {
          case 'n':
            out->push_back('\n');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'u':
            pos_ += 4;  // \uXXXX — decoded value irrelevant to the tests
            out->push_back('?');
            break;
          default:
            out->push_back(text_[pos_]);
        }
      } else {
        out->push_back(text_[pos_]);
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::kObject;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        std::string key;
        if (!ParseString(&key)) return false;
        if (!Consume(':')) return false;
        JsonValue value;
        if (!ParseValue(&value)) return false;
        out->members[key] = std::move(value);
        if (Consume(',')) continue;
        return Consume('}');
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::kArray;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        JsonValue value;
        if (!ParseValue(&value)) return false;
        out->items.push_back(std::move(value));
        if (Consume(',')) continue;
        return Consume(']');
      }
    }
    if (c == '"') {
      out->kind = JsonValue::kString;
      return ParseString(&out->scalar);
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-') {
      out->kind = JsonValue::kNumber;
      size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '-' || text_[pos_] == '+' ||
              text_[pos_] == '.' || text_[pos_] == 'e' ||
              text_[pos_] == 'E')) {
        ++pos_;
      }
      out->scalar = text_.substr(start, pos_ - start);
      return true;
    }
    for (const char* word : {"true", "false", "null"}) {
      size_t len = std::string(word).size();
      if (text_.compare(pos_, len, word) == 0) {
        out->kind = word[0] == 'n' ? JsonValue::kNull : JsonValue::kBool;
        out->scalar = word;
        pos_ += len;
        return true;
      }
    }
    return false;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

/// Restores log level, sink, tracer state, and counter values around each
/// test so the obs globals don't leak between tests.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_level_ = GlobalLogLevel();
    Tracer::Global().set_enabled(false);
    Tracer::Global().Clear();
    MetricsRegistry::Global().Reset();
  }
  void TearDown() override {
    SetLogSink(nullptr);
    SetGlobalLogLevel(saved_level_);
    Tracer::Global().set_enabled(false);
    Tracer::Global().Clear();
  }

  LogLevel saved_level_ = LogLevel::kInfo;
};

// --------------------------------------------------------------- logging --

TEST_F(ObsTest, LogLevelFiltering) {
  std::vector<std::pair<LogLevel, std::string>> captured;
  SetLogSink([&](LogLevel level, const std::string& line) {
    captured.emplace_back(level, line);
  });
  SetGlobalLogLevel(LogLevel::kWarn);
  FAIREM_LOG(DEBUG) << "dropped debug";
  FAIREM_LOG(INFO) << "dropped info";
  FAIREM_LOG(WARN) << "kept warn";
  FAIREM_LOG(ERROR) << "kept error";
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].first, LogLevel::kWarn);
  EXPECT_NE(captured[0].second.find("kept warn"), std::string::npos);
  EXPECT_EQ(captured[1].first, LogLevel::kError);

  SetGlobalLogLevel(LogLevel::kOff);
  FAIREM_LOG(ERROR) << "silenced";
  EXPECT_EQ(captured.size(), 2u);
}

TEST_F(ObsTest, LogFilteredStatementDoesNotEvaluateOperands) {
  SetGlobalLogLevel(LogLevel::kError);
  int evaluations = 0;
  auto expensive = [&]() {
    ++evaluations;
    return "value";
  };
  FAIREM_LOG(DEBUG) << expensive();
  EXPECT_EQ(evaluations, 0);
  FAIREM_LOG(ERROR) << expensive();
  EXPECT_EQ(evaluations, 1);
}

TEST_F(ObsTest, LogKvFormatsStructuredFields) {
  std::string last;
  SetLogSink([&](LogLevel, const std::string& line) { last = line; });
  SetGlobalLogLevel(LogLevel::kInfo);
  FAIREM_LOG(INFO) << "fitted" << LogKv("matcher", "DTMatcher")
                   << LogKv("pairs", 128) << LogKv("ok", true);
  EXPECT_NE(last.find("fitted"), std::string::npos);
  EXPECT_NE(last.find(" matcher=DTMatcher"), std::string::npos);
  EXPECT_NE(last.find(" pairs=128"), std::string::npos);
  EXPECT_NE(last.find(" ok=true"), std::string::npos);
  EXPECT_NE(last.find("obs_test.cc"), std::string::npos);
}

TEST_F(ObsTest, ParseLogLevelRoundTrips) {
  EXPECT_EQ(*ParseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(*ParseLogLevel("INFO"), LogLevel::kInfo);
  EXPECT_EQ(*ParseLogLevel("Warn"), LogLevel::kWarn);
  EXPECT_EQ(*ParseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(*ParseLogLevel("off"), LogLevel::kOff);
  EXPECT_FALSE(ParseLogLevel("verbose").ok());
}

// --------------------------------------------------------------- metrics --

TEST_F(ObsTest, CounterGaugeHistogramSemantics) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("fairem.test.counter");
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42u);
  EXPECT_EQ(registry.GetCounter("fairem.test.counter"), c)
      << "same name must return the same counter";

  Gauge* g = registry.GetGauge("fairem.test.gauge");
  g->Set(1.5);
  g->Set(0.25);
  EXPECT_DOUBLE_EQ(g->value(), 0.25);

  Histogram* h = registry.GetHistogram("fairem.test.hist", {1.0, 10.0});
  h->Observe(0.5);   // bucket 0 (<= 1)
  h->Observe(1.0);   // bucket 0 (boundary counts down)
  h->Observe(5.0);   // bucket 1 (<= 10)
  h->Observe(100.0); // overflow bucket
  std::vector<uint64_t> counts = h->bucket_counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(h->count(), 4u);
  EXPECT_DOUBLE_EQ(h->sum(), 106.5);

  registry.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  EXPECT_EQ(h->count(), 0u);
}

TEST_F(ObsTest, MetricsJsonParsesAndRoundTrips) {
  MetricsRegistry registry;
  registry.GetCounter("fairem.a.count")->Increment(7);
  registry.GetCounter("fairem.b.count")->Increment(9);
  registry.GetGauge("fairem.a.rate")->Set(0.75);
  Histogram* h = registry.GetHistogram("fairem.a.latency", {0.1, 1.0});
  h->Observe(0.05);
  h->Observe(2.0);

  std::string json = registry.ToJson();
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root)) << json;
  ASSERT_EQ(root.kind, JsonValue::kObject);
  ASSERT_TRUE(root.members.count("counters"));
  ASSERT_TRUE(root.members.count("gauges"));
  ASSERT_TRUE(root.members.count("histograms"));

  // Round-trip: parsed values match the registry snapshot exactly.
  MetricsSnapshot snap = registry.Snapshot();
  const JsonValue& counters = root.members.at("counters");
  ASSERT_EQ(counters.members.size(), snap.counters.size());
  for (const auto& [name, value] : snap.counters) {
    ASSERT_TRUE(counters.members.count(name)) << name;
    EXPECT_EQ(counters.members.at(name).scalar, std::to_string(value));
  }
  const JsonValue& hist = root.members.at("histograms").members.at(
      "fairem.a.latency");
  EXPECT_EQ(hist.members.at("count").scalar, "2");
  ASSERT_EQ(hist.members.at("bucket_counts").items.size(), 3u);
  EXPECT_EQ(hist.members.at("bucket_counts").items[0].scalar, "1");
  EXPECT_EQ(hist.members.at("bucket_counts").items[2].scalar, "1");
}

TEST_F(ObsTest, MetricsWriteJsonFile) {
  MetricsRegistry registry;
  registry.GetCounter("fairem.file.count")->Increment(3);
  std::string path = ::testing::TempDir() + "/obs_metrics_test.json";
  ASSERT_TRUE(registry.WriteJsonFile(path).ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  JsonValue root;
  EXPECT_TRUE(JsonParser(buffer.str()).Parse(&root));
  EXPECT_EQ(root.members.at("counters")
                .members.at("fairem.file.count")
                .scalar,
            "3");
  std::remove(path.c_str());
}

// ----------------------------------------------------------------- spans --

TEST_F(ObsTest, NestedSpanParentChildOrdering) {
  Tracer& tracer = Tracer::Global();
  tracer.set_enabled(true);
  {
    Span a("a");
    {
      Span b("b");
      { Span c("c"); }
    }
  }
  { Span d("d"); }
  std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 4u);
  // Completion order: innermost first.
  EXPECT_EQ(events[0].name, "c");
  EXPECT_EQ(events[1].name, "b");
  EXPECT_EQ(events[2].name, "a");
  EXPECT_EQ(events[3].name, "d");
  // Parent/child links and depths.
  EXPECT_EQ(events[0].parent_id, events[1].id);
  EXPECT_EQ(events[1].parent_id, events[2].id);
  EXPECT_EQ(events[2].parent_id, 0u);
  EXPECT_EQ(events[3].parent_id, 0u);
  EXPECT_EQ(events[0].depth, 2);
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].depth, 0);
  EXPECT_EQ(events[3].depth, 0);
  // Containment: child starts no earlier and ends no later than parent.
  EXPECT_GE(events[0].start_ns, events[1].start_ns);
  EXPECT_LE(events[0].start_ns + events[0].duration_ns,
            events[1].start_ns + events[1].duration_ns);
}

TEST_F(ObsTest, DisabledTracerRecordsNothing) {
  Tracer& tracer = Tracer::Global();
  ASSERT_FALSE(tracer.enabled());
  {
    Span a("not recorded");
    a.AddArg("k", "v");
  }
  EXPECT_TRUE(tracer.Events().empty());
}

TEST_F(ObsTest, SpanWritesElapsedEvenWhenDisabled) {
  double elapsed = -1.0;
  { Span s("timed", &elapsed); }
  EXPECT_GE(elapsed, 0.0);
  EXPECT_TRUE(Tracer::Global().Events().empty());
}

TEST_F(ObsTest, ScopedTimerMeasuresMonotonically) {
  double elapsed = -1.0;
  {
    ScopedTimer t(&elapsed);
    volatile double sink = 0;
    for (int i = 0; i < 1000; ++i) sink += i;
  }
  EXPECT_GE(elapsed, 0.0);
}

TEST_F(ObsTest, ChromeTraceJsonParsesWithArgsAndNesting) {
  Tracer& tracer = Tracer::Global();
  tracer.set_enabled(true);
  {
    Span outer("outer");
    outer.AddArg("dataset", "DBLP-ACM");
    { Span inner("inner \"quoted\""); }
  }
  std::string json = tracer.ChromeTraceJson();
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root)) << json;
  const JsonValue& events = root.members.at("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::kArray);
  // One process_name metadata event for the local track, then the spans in
  // completion order.
  ASSERT_EQ(events.items.size(), 3u);
  const JsonValue& meta = events.items[0];
  EXPECT_EQ(meta.members.at("ph").scalar, "M");
  EXPECT_EQ(meta.members.at("args").members.at("name").scalar, "fairem");
  const JsonValue& inner = events.items[1];
  const JsonValue& outer = events.items[2];
  EXPECT_EQ(outer.members.at("name").scalar, "outer");
  EXPECT_EQ(outer.members.at("ph").scalar, "X");
  EXPECT_EQ(outer.members.at("args").members.at("dataset").scalar,
            "DBLP-ACM");
  EXPECT_EQ(inner.members.at("args").members.at("parent_id").scalar,
            outer.members.at("args").members.at("span_id").scalar);

  // File export round-trips through WriteChromeTrace.
  std::string path = ::testing::TempDir() + "/obs_trace_test.json";
  ASSERT_TRUE(tracer.WriteChromeTrace(path).ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  JsonValue reparsed;
  EXPECT_TRUE(JsonParser(buffer.str()).Parse(&reparsed));
  std::remove(path.c_str());
}

TEST_F(ObsTest, FlatSummaryAggregatesByName) {
  Tracer& tracer = Tracer::Global();
  tracer.set_enabled(true);
  { Span a("fairem.x"); }
  { Span b("fairem.x"); }
  { Span c("fairem.y"); }
  std::string summary = tracer.FlatSummary();
  EXPECT_NE(summary.find("fairem.x"), std::string::npos);
  EXPECT_NE(summary.find("fairem.y"), std::string::npos);
  EXPECT_NE(summary.find("2"), std::string::npos);
}

// --------------------------------------------------- pipeline integration --

TEST_F(ObsTest, RunMatcherPopulatesFitAndPredictSpans) {
  Tracer& tracer = Tracer::Global();
  tracer.set_enabled(true);
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kDblpAcm, 0.35)).value();
  MatcherRun run = std::move(RunMatcher(ds, MatcherKind::kDT)).value();
  ASSERT_TRUE(run.supported);

  const TraceEvent* fit = nullptr;
  const TraceEvent* predict = nullptr;
  const TraceEvent* datagen = nullptr;
  std::vector<TraceEvent> events = tracer.Events();
  for (const TraceEvent& e : events) {
    if (e.name == "fairem.matcher.fit") fit = &e;
    if (e.name == "fairem.matcher.predict") predict = &e;
    if (e.name == "fairem.datagen.generate") datagen = &e;
  }
  ASSERT_NE(fit, nullptr);
  ASSERT_NE(predict, nullptr);
  ASSERT_NE(datagen, nullptr);
  EXPECT_GE(predict->start_ns, fit->start_ns + fit->duration_ns);

  // The harness seconds come from the same clock reads as the span
  // durations, so they agree to the nanosecond.
  EXPECT_NEAR(run.fit_seconds,
              static_cast<double>(fit->duration_ns) / 1e9, 1e-9);
  EXPECT_NEAR(run.predict_seconds,
              static_cast<double>(predict->duration_ns) / 1e9, 1e-9);
  bool has_matcher_arg = false;
  for (const auto& [k, v] : fit->args) {
    if (k == "matcher" && v == "DTMatcher") has_matcher_arg = true;
  }
  EXPECT_TRUE(has_matcher_arg);
}

TEST_F(ObsTest, AuditCountsEvaluatedAndSkippedCells) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kFacultyMatch, 0.35)).value();
  MatcherRun run = std::move(RunMatcher(ds, MatcherKind::kLogReg)).value();
  ASSERT_TRUE(run.supported);

  registry.Reset();
  AuditReport baseline = std::move(AuditRunSingle(ds, run)).value();
  uint64_t evaluated =
      registry.GetCounter("fairem.audit.cells_evaluated")->value();
  EXPECT_GT(evaluated, 0u);
  // The skip counters are registered (visible in snapshots) even when 0.
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_TRUE(snap.counters.count("fairem.audit.cells_skipped"));
  EXPECT_TRUE(snap.counters.count("fairem.audit.cells_skipped_min_pairs"));

  // An absurd min_group_pairs suppresses every over-threshold cell; each
  // suppression is counted.
  registry.Reset();
  AuditOptions strict;
  strict.min_group_pairs = 1 << 30;
  AuditReport strict_report =
      std::move(AuditRunSingle(ds, run, strict)).value();
  EXPECT_TRUE(strict_report.UnfairEntries().empty());
  uint64_t flagged_before = 0;
  for (const auto* e : baseline.UnfairEntries()) {
    (void)e;
    ++flagged_before;
  }
  uint64_t skipped =
      registry.GetCounter("fairem.audit.cells_skipped_min_pairs")->value();
  if (flagged_before > 0) {
    EXPECT_GT(skipped, 0u);
  }
}

TEST_F(ObsTest, ObsOptionsApplyAndFlush) {
  ObsOptions options;
  options.log_level = "debug";
  options.trace_out = ::testing::TempDir() + "/obs_opts_trace.json";
  options.metrics_out = ::testing::TempDir() + "/obs_opts_metrics.json";
  ASSERT_TRUE(ApplyObsOptions(options).ok());
  EXPECT_EQ(GlobalLogLevel(), LogLevel::kDebug);
  EXPECT_TRUE(Tracer::Global().enabled());
  { Span s("flush test span"); }
  MetricsRegistry::Global().GetCounter("fairem.test.flush")->Increment();
  ASSERT_TRUE(FlushObsOutputs(options).ok());
  for (const std::string& path : {options.trace_out, options.metrics_out}) {
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    JsonValue root;
    EXPECT_TRUE(JsonParser(buffer.str()).Parse(&root)) << path;
    std::remove(path.c_str());
  }

  ObsOptions bad;
  bad.log_level = "shouty";
  EXPECT_FALSE(ApplyObsOptions(bad).ok());
}

TEST_F(ObsTest, ObsFlagsParseFormatAndClockSpellings) {
  auto parse = [](const std::vector<std::string>& args, ObsOptions* options,
                  std::optional<std::string>* failpoints) {
    FlagSet flags;
    RegisterObsFlags(&flags, options, failpoints);
    return flags.Parse(args, nullptr);
  };
  std::optional<std::string> failpoints;
  ObsOptions defaults;
  ASSERT_TRUE(parse({}, &defaults, &failpoints).ok());
  EXPECT_EQ(defaults.metrics_format, MetricsFormat::kJson);
  EXPECT_EQ(defaults.profile_mode, ProfileClock::kCpu);
  EXPECT_FALSE(failpoints.has_value());
  // The format ignores case; every spelling switches away and back.
  for (const char* prom : {"prom", "prometheus", "PROM", "Prometheus"}) {
    ObsOptions options;
    ASSERT_TRUE(parse({"--metrics_format", prom, "--profile_mode=wall"},
                      &options, &failpoints)
                    .ok());
    EXPECT_EQ(options.metrics_format, MetricsFormat::kProm) << prom;
    EXPECT_EQ(options.profile_mode, ProfileClock::kWall);
    for (const char* json : {"json", "JSON"}) {
      for (const char* cpu : {"cpu", ""}) {
        ASSERT_TRUE(parse({"--metrics_format", json, "--profile_mode", cpu},
                          &options, &failpoints)
                        .ok());
        EXPECT_EQ(options.metrics_format, MetricsFormat::kJson) << json;
        EXPECT_EQ(options.profile_mode, ProfileClock::kCpu) << cpu;
        options.metrics_format = MetricsFormat::kProm;
        options.profile_mode = ProfileClock::kWall;
      }
    }
  }
  ObsOptions options;
  EXPECT_FALSE(parse({"--metrics_format", "xml"}, &options, &failpoints).ok());
  EXPECT_FALSE(parse({"--profile_mode", "gpu"}, &options, &failpoints).ok());
  EXPECT_FALSE(parse({"--profile_mode", "CPU"}, &options, &failpoints).ok());
  EXPECT_FALSE(parse({"--profile_hz", "0"}, &options, &failpoints).ok());
  // An empty --failpoints is given, not absent: the CLI disarms with it.
  ASSERT_TRUE(parse({"--failpoints="}, &options, &failpoints).ok());
  EXPECT_EQ(failpoints, std::optional<std::string>(""));
}

// Regression: every observability output goes through WriteFileDurable, so a
// path under directories that do not exist yet must succeed (parents are
// created), and the files must be complete after FlushObsOutputs returns.
TEST_F(ObsTest, FlushCreatesMissingParentDirsForAllOutputs) {
  const std::string root = ::testing::TempDir() + "/obs_nested_out";
  ObsOptions options;
  options.trace_out = root + "/traces/deep/run1/trace.json";
  options.metrics_out = root + "/metrics/deep/run1/metrics.json";
  options.profile_out = root + "/profiles/deep/run1/profile.folded";
  options.profile_hz = 200;
  ASSERT_TRUE(ApplyObsOptions(options).ok());
  {
    Span span("fairem.test.nested_flush");
    volatile uint64_t acc = 0;
    std::clock_t start = std::clock();
    // Burn a little CPU so the profiler has samples to fold.
    while (static_cast<double>(std::clock() - start) / CLOCKS_PER_SEC < 0.05) {
      for (int i = 0; i < 10000; ++i) acc = acc + i;
    }
  }
  ASSERT_TRUE(FlushObsOutputs(options).ok());
  for (const std::string& path :
       {options.trace_out, options.metrics_out, options.profile_out}) {
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
  }
  // The folded profile names this process and the span that burned CPU.
  std::ifstream in(options.profile_out);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("process:parent;span:"), std::string::npos);
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
}

}  // namespace
}  // namespace fairem
