#include "src/obs/profiler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/robust/supervisor.h"
#include "src/util/result.h"

namespace fairem {
namespace {

/// Spins until the process has burned `seconds` of CPU time — the same
/// clock ITIMER_PROF ticks on, so the expected sample count is seconds*hz
/// regardless of machine speed or sanitizer slowdown. The malloc per outer
/// iteration matters under TSan: its runtime defers async signals until the
/// next intercepted call, so a loop of pure arithmetic would receive one
/// deferred SIGPROF total instead of one per timer tick.
uint64_t BurnCpu(double seconds) {
  volatile uint64_t acc = 0;
  std::clock_t start = std::clock();
  while (static_cast<double>(std::clock() - start) / CLOCKS_PER_SEC <
         seconds) {
    for (uint32_t i = 0; i < 10000; ++i) {
      acc = acc + static_cast<uint64_t>(i) * 2654435761u;
    }
    char* p = new char[1];
    p[0] = static_cast<char>(acc);
    volatile char sink = p[0];
    acc = acc + static_cast<uint64_t>(sink);
    delete[] p;
  }
  return acc;
}

/// Stops the global profiler even when an assertion fails mid-test; a timer
/// left armed would keep signalling through every later test.
class ProfilerGuard {
 public:
  ~ProfilerGuard() { (void)Profiler::Global().Stop(); }
};

// ---------------------------------------------------------------------------
// Zero overhead while off. Declared first: later tests in this binary start
// the profiler and legitimately register fairem.profile.* metrics in the
// process-global registry.

TEST(ProfilerOffTest, NoProfileMetricsAndNoSpanCost) {
  EXPECT_FALSE(Profiler::Global().active());
  EXPECT_FALSE(ProfilerStageTrackingEnabled());
  {
    Span span("fairem.test.off_span");
    BurnCpu(0.01);
  }
  for (const auto& [name, _] : MetricsRegistry::Global().Snapshot().counters) {
    EXPECT_EQ(name.rfind("fairem.profile.", 0), std::string::npos)
        << "profiler-off run registered " << name;
  }
  for (const auto& [name, _] : MetricsRegistry::Global().Snapshot().gauges) {
    EXPECT_EQ(name.rfind("fairem.profile.", 0), std::string::npos)
        << "profiler-off run registered " << name;
  }
}

// ---------------------------------------------------------------------------
// Folded-text algebra (pure functions, no sampling).

TEST(FoldedProfileTest, TextRoundTripMergesDuplicatesSkipsMalformed) {
  FoldedProfile profile = FoldedProfileFromText(
      "process:parent;span:fit;main;Fit 3\n"
      "process:parent;span:fit;main;Fit 2\n"   // duplicate stack: adds
      "no trailing count\n"
      "trailing;but;not;a;number x\n"
      "negative -4\n"
      "\n"
      "process:parent;span:(untagged);main 5\n");
  EXPECT_EQ(profile.stacks.size(), 2u);
  EXPECT_EQ(profile.stacks.at("process:parent;span:fit;main;Fit"), 5u);
  EXPECT_EQ(profile.TotalSamples(), 10u);

  FoldedProfile reparsed = FoldedProfileFromText(profile.ToText());
  EXPECT_EQ(reparsed.stacks, profile.stacks);

  FoldedProfile other;
  other.stacks["process:worker_9;span:fit;main;Fit"] = 7;
  other.stacks["process:parent;span:fit;main;Fit"] = 1;
  profile.Merge(other);
  EXPECT_EQ(profile.stacks.at("process:parent;span:fit;main;Fit"), 6u);
  EXPECT_EQ(profile.TotalSamples(), 18u);

  std::map<std::string, uint64_t> processes = ProcessSampleCounts(profile);
  EXPECT_EQ(processes.at("parent"), 11u);
  EXPECT_EQ(processes.at("worker_9"), 7u);
}

TEST(FoldedProfileTest, AggregateByFrameSelfTotalAndRecursion) {
  FoldedProfile profile;
  profile.stacks["process:parent;span:fit;main;Fit;Dot"] = 10;
  profile.stacks["process:parent;span:fit;main;Fit"] = 4;
  // Recursive frame: Walk appears twice but must count once per stack.
  profile.stacks["process:parent;span:fit;main;Walk;Walk"] = 2;
  std::vector<ProfTopRow> rows = AggregateByFrame(profile);
  auto find = [&](const std::string& frame) -> const ProfTopRow& {
    auto it = std::find_if(rows.begin(), rows.end(), [&](const ProfTopRow& r) {
      return r.frame == frame;
    });
    EXPECT_NE(it, rows.end()) << frame;
    return *it;
  };
  EXPECT_EQ(find("Dot").self, 10u);
  EXPECT_EQ(find("Dot").total, 10u);
  EXPECT_EQ(find("Fit").self, 4u);
  EXPECT_EQ(find("Fit").total, 14u);
  EXPECT_EQ(find("main").self, 0u);
  EXPECT_EQ(find("main").total, 16u);
  EXPECT_EQ(find("Walk").self, 2u);
  EXPECT_EQ(find("Walk").total, 2u);
  // The pseudo-frames never appear as rows.
  for (const ProfTopRow& row : rows) {
    EXPECT_EQ(row.frame.rfind("process:", 0), std::string::npos);
    EXPECT_EQ(row.frame.rfind("span:", 0), std::string::npos);
  }
  // Sorted by self descending: Dot first.
  EXPECT_EQ(rows.front().frame, "Dot");
}

TEST(FoldedProfileTest, AggregateByStageAndAttribution) {
  FoldedProfile profile;
  profile.stacks["process:parent;span:fit;main;Fit"] = 60;
  profile.stacks["process:worker_1;span:fit;main;Fit"] = 20;
  profile.stacks["process:parent;span:audit;main;Audit"] = 15;
  profile.stacks["process:parent;span:(untagged);main"] = 5;
  StageBreakdown breakdown = AggregateByStage(profile);
  EXPECT_EQ(breakdown.total_samples, 100u);
  EXPECT_EQ(breakdown.attributed_samples, 95u);
  EXPECT_DOUBLE_EQ(breakdown.AttributedFraction(), 0.95);
  ASSERT_GE(breakdown.stages.size(), 3u);
  EXPECT_EQ(breakdown.stages[0].stage, "fit");  // sorted by samples desc
  EXPECT_EQ(breakdown.stages[0].samples, 80u);  // merged across processes
  EXPECT_DOUBLE_EQ(breakdown.stages[0].share, 0.80);
}

TEST(FoldedProfileTest, CompareStageSharesFlagsDriftAboveTolerance) {
  FoldedProfile a;
  a.stacks["process:parent;span:fit;main"] = 80;
  a.stacks["process:parent;span:audit;main"] = 20;
  FoldedProfile b;
  b.stacks["process:parent;span:fit;main"] = 40;
  b.stacks["process:parent;span:audit;main"] = 60;
  EXPECT_TRUE(CompareStageShares(a, a, 0.10, 0.01).empty());
  std::vector<std::string> drift = CompareStageShares(a, b, 0.10, 0.01);
  EXPECT_EQ(drift.size(), 2u);  // both stages moved by 0.40
  // Same profiles under a loose tolerance agree.
  EXPECT_TRUE(CompareStageShares(a, b, 0.50, 0.01).empty());
  // min_share filters noise stages entirely absent from one side.
  FoldedProfile c = a;
  c.stacks["process:parent;span:tiny;main"] = 1;  // < 1% share
  EXPECT_TRUE(CompareStageShares(a, c, 0.10, 0.05).empty());
}

TEST(FoldedProfileTest, RenderersEmitTheGreppableSurfaces) {
  FoldedProfile profile;
  profile.stacks["process:parent;span:fit;main;Fit"] = 9;
  profile.stacks["process:worker_3;span:(untagged);main"] = 1;
  std::string by_stage = RenderProfTopByStage(profile);
  EXPECT_NE(by_stage.find("attributed 9/10 samples (90.0%) to named spans"),
            std::string::npos);
  EXPECT_NE(by_stage.find("parent=9"), std::string::npos);
  EXPECT_NE(by_stage.find("worker_3=1"), std::string::npos);
  std::string by_stack = RenderProfTopByStack(profile, 20);
  EXPECT_NE(by_stack.find("Fit"), std::string::npos);
  EXPECT_NE(by_stack.find("10 samples, 2 unique stacks"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Live sampling.

TEST(ProfilerLiveTest, StartValidatesOptionsAndRejectsDoubleStart) {
  ProfilerGuard guard;
  ProfilerOptions bad_hz;
  bad_hz.hz = 0;
  EXPECT_TRUE(Profiler::Global().Start(bad_hz).IsInvalidArgument());
  bad_hz.hz = 20000;
  EXPECT_TRUE(Profiler::Global().Start(bad_hz).IsInvalidArgument());
  ProfilerOptions bad_capacity;
  bad_capacity.capacity = 0;
  EXPECT_TRUE(Profiler::Global().Start(bad_capacity).IsInvalidArgument());

  ASSERT_TRUE(Profiler::Global().Start({}).ok());
  EXPECT_TRUE(Profiler::Global().active());
  EXPECT_TRUE(ProfilerStageTrackingEnabled());
  EXPECT_FALSE(Profiler::Global().Start({}).ok());  // already running
  ASSERT_TRUE(Profiler::Global().Stop().ok());
  EXPECT_FALSE(Profiler::Global().active());
  EXPECT_FALSE(ProfilerStageTrackingEnabled());
  EXPECT_TRUE(Profiler::Global().Stop().ok());  // idempotent
}

TEST(ProfilerLiveTest, SamplesAttributeToTheInnermostSpan) {
  ProfilerGuard guard;
  ProfilerOptions options;
  options.hz = 250;
  ASSERT_TRUE(Profiler::Global().Start(options).ok());
  {
    Span outer("fairem.test.outer");
    Span busy("fairem.test.busy");
    BurnCpu(0.4);  // ~100 expected samples at 250 Hz
  }
  ASSERT_TRUE(Profiler::Global().Stop().ok());
  EXPECT_GE(Profiler::Global().SampleCount(), 20u);

  FoldedProfile profile = Profiler::Global().Collect();
  EXPECT_GT(profile.TotalSamples(), 0u);
  StageBreakdown breakdown = AggregateByStage(profile);
  uint64_t busy_samples = 0;
  for (const StageShare& share : breakdown.stages) {
    if (share.stage == "fairem.test.busy") busy_samples = share.samples;
    // The innermost span wins: nothing should sit on the outer stage while
    // the busy span is open.
    EXPECT_NE(share.stage, "fairem.test.outer");
  }
  // The burn dominates this test body; most samples must land on its span.
  EXPECT_GT(busy_samples, breakdown.total_samples / 2);

  // Every stack carries the process/span prefix and at least one real frame.
  for (const auto& [stack, _] : profile.stacks) {
    EXPECT_EQ(stack.rfind("process:parent;span:", 0), 0u) << stack;
  }

  // ExportMetrics lands the same counts on delta counters, exactly once.
  MetricsRegistry& reg = MetricsRegistry::Global();
  uint64_t samples_before = reg.GetCounter("fairem.profile.samples")->value();
  Profiler::Global().ExportMetrics();
  uint64_t exported =
      reg.GetCounter("fairem.profile.samples")->value() - samples_before;
  EXPECT_EQ(exported, profile.TotalSamples());
  Profiler::Global().ExportMetrics();  // second export: nothing new
  EXPECT_EQ(reg.GetCounter("fairem.profile.samples")->value(),
            samples_before + exported);
  EXPECT_GT(
      reg.GetCounter("fairem.profile.stage.fairem.test.busy.samples")->value(),
      0u);
  Profiler::Global().ExportStageCpuGauges();
  EXPECT_GT(reg.GetGauge("fairem.profile.stage.fairem.test.busy.cpu_seconds")
                ->value(),
            0.0);
}

TEST(ProfilerLiveTest, RingOverflowDropsAndCountsInsteadOfGrowing) {
  ProfilerGuard guard;
  ProfilerOptions options;
  options.hz = 997;
  options.capacity = 8;
  ASSERT_TRUE(Profiler::Global().Start(options).ok());
  BurnCpu(0.2);  // ~200 ticks into 8 slots
  ASSERT_TRUE(Profiler::Global().Stop().ok());
  EXPECT_EQ(Profiler::Global().SampleCount(), 8u);
  EXPECT_GT(Profiler::Global().DroppedCount(), 0u);
  EXPECT_LE(Profiler::Global().Collect().TotalSamples(), 8u);
}

TEST(ProfilerLiveTest, WallClockModeSamplesSleepingTime) {
  ProfilerGuard guard;
  ProfilerOptions options;
  options.hz = 250;
  options.clock = ProfileClock::kWall;
  ASSERT_TRUE(Profiler::Global().Start(options).ok());
  // Sleeping burns no CPU; only the wall clock can sample it.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_TRUE(Profiler::Global().Stop().ok());
  EXPECT_GT(Profiler::Global().SampleCount(), 0u);
}

TEST(ProfilerLiveTest, SpanResourceAttributionEmitsDeltas) {
  ProfilerGuard guard;
  ASSERT_TRUE(Profiler::Global().Start({}).ok());
  {
    Span span("fairem.test.resources");
    // Touch memory so the span has a real footprint; value irrelevant.
    std::vector<char> block(1 << 20, 1);
    volatile char sink = block[4096];
    (void)sink;
  }
  ASSERT_TRUE(Profiler::Global().Stop().ok());
  // /proc/self/statm exists on every Linux this suite runs on, so the span
  // must have recorded an RSS delta gauge (any value, including zero).
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(
      snap.gauges.count("fairem.profile.span.fairem.test.resources.rss_delta_kb"),
      1u);
}

TEST(ProfilerLiveTest, AbsorbFoldedMergesIntoMergedProfile) {
  // No sampling needed: absorb is pure bookkeeping over folded text.
  uint64_t before =
      Profiler::Global().MergedProfile().TotalSamples();
  Profiler::Global().AbsorbFolded(
      "process:worker_42;span:fit;main;Fit 11\n");
  FoldedProfile merged = Profiler::Global().MergedProfile();
  EXPECT_EQ(merged.TotalSamples() - before, 11u);
  EXPECT_EQ(ProcessSampleCounts(merged).at("worker_42"), 11u);
}

TEST(ProcResourceGaugesTest, EmitsRusageFootprint) {
  EmitProcessResourceGauges();
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_GT(snap.gauges.at("fairem.proc.peak_rss_mb"), 0.0);
  EXPECT_GE(snap.gauges.at("fairem.proc.user_cpu_s"), 0.0);
  EXPECT_GE(snap.gauges.at("fairem.proc.sys_cpu_s"), 0.0);
  EXPECT_GE(snap.gauges.at("fairem.proc.vol_ctx_switches"), 0.0);
  EXPECT_GE(snap.gauges.at("fairem.proc.invol_ctx_switches"), 0.0);
}

// ---------------------------------------------------------------------------
// Cross-process merge through the supervisor.

TEST(ProfilerSupervisorTest, WorkersShipProfilesTaggedWithTheirProcess) {
  ProfilerGuard guard;
  ProfilerOptions options;
  options.hz = 250;
  ASSERT_TRUE(Profiler::Global().Start(options).ok());

  SupervisorOptions sup_options;
  sup_options.jobs = 2;
  Supervisor supervisor(sup_options);
  auto busy_task = []() -> Result<std::string> {
    Span span("fairem.test.cell");
    BurnCpu(0.4);
    return std::string("ok");
  };
  std::vector<Supervisor::Task> tasks{{"cell_a", busy_task},
                                      {"cell_b", busy_task}};
  std::vector<TaskOutcome> outcomes = supervisor.Run(tasks).value();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].kind, TaskOutcome::Kind::kOk);
  EXPECT_EQ(outcomes[1].kind, TaskOutcome::Kind::kOk);
  ASSERT_TRUE(Profiler::Global().Stop().ok());

  // The merged profile must hold frames from more than one process: the
  // parent plus at least one forked worker (two distinct pids, but both
  // workers can reuse a pid across the two sequential-looking labels only
  // if the kernel recycles it — so assert >= 2 labels, >= 1 worker).
  FoldedProfile merged = Profiler::Global().MergedProfile();
  std::map<std::string, uint64_t> processes = ProcessSampleCounts(merged);
  size_t workers = 0;
  uint64_t worker_samples = 0;
  for (const auto& [label, count] : processes) {
    if (label.rfind("worker_", 0) == 0) {
      ++workers;
      worker_samples += count;
    }
  }
  EXPECT_GE(workers, 1u);
  EXPECT_GE(processes.size(), 2u);
  EXPECT_GT(worker_samples, 0u);
  // Worker samples carry their span tags through the merge.
  StageBreakdown breakdown = AggregateByStage(merged);
  bool saw_cell = false;
  for (const StageShare& share : breakdown.stages) {
    saw_cell = saw_cell || share.stage == "fairem.test.cell";
  }
  EXPECT_TRUE(saw_cell);
  // The shipped per-stage counters merged additively into this registry.
  EXPECT_GT(MetricsRegistry::Global()
                .GetCounter("fairem.profile.stage.fairem.test.cell.samples")
                ->value(),
            0u);
  EXPECT_GT(MetricsRegistry::Global()
                .GetCounter("fairem.profile.profiles_merged")
                ->value(),
            0u);
}

}  // namespace
}  // namespace fairem
