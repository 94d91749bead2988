#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/datagen/benchmark_suite.h"
#include "src/harness/experiment.h"
#include "src/obs/metrics.h"
#include "src/robust/checkpoint.h"
#include "src/robust/failpoint.h"
#include "src/robust/retry.h"
#include "src/util/string_util.h"

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
// Failpoint spec parsing

TEST(FailpointSpecTest, ParsesEntries) {
  std::vector<FailpointSpec> specs =
      std::move(ParseFailpointSpecs("csv_read=error(0.05);grid_cell=crash(1,5)"))
          .value();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].site, "csv_read");
  EXPECT_EQ(specs[0].action, FailpointAction::kError);
  EXPECT_DOUBLE_EQ(specs[0].probability, 0.05);
  EXPECT_EQ(specs[0].skip, 0u);
  EXPECT_EQ(specs[1].site, "grid_cell");
  EXPECT_EQ(specs[1].action, FailpointAction::kCrash);
  EXPECT_DOUBLE_EQ(specs[1].probability, 1.0);
  EXPECT_EQ(specs[1].skip, 5u);
}

TEST(FailpointSpecTest, TolerantOfWhitespaceAndEmptyEntries) {
  std::vector<FailpointSpec> specs =
      std::move(ParseFailpointSpecs(" a = error( 0.5 , 2 ) ; ; ")).value();
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].site, "a");
  EXPECT_DOUBLE_EQ(specs[0].probability, 0.5);
  EXPECT_EQ(specs[0].skip, 2u);
}

TEST(FailpointSpecTest, RejectsMalformedSpecs) {
  EXPECT_TRUE(ParseFailpointSpecs("no_equals").status().IsInvalidArgument());
  EXPECT_TRUE(ParseFailpointSpecs("=error(1)").status().IsInvalidArgument());
  EXPECT_TRUE(ParseFailpointSpecs("x=explode(1)").status().IsInvalidArgument());
  EXPECT_TRUE(ParseFailpointSpecs("x=error(1.5)").status().IsInvalidArgument());
  EXPECT_TRUE(ParseFailpointSpecs("x=error(-1)").status().IsInvalidArgument());
  EXPECT_TRUE(ParseFailpointSpecs("x=error(1,-3)").status().IsInvalidArgument());
  EXPECT_TRUE(ParseFailpointSpecs("x=error(1").status().IsInvalidArgument());
  EXPECT_TRUE(ParseFailpointSpecs("x=error").status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Failpoint registry

TEST(FailpointRegistryTest, DisarmedIsFreeAndAlwaysOk) {
  RobustGuard guard;
  EXPECT_FALSE(FailpointRegistry::Global().armed());
  EXPECT_TRUE(FailpointRegistry::Global().Hit("anything").ok());
  EXPECT_TRUE(CheckFailpoint("anything").ok());
}

TEST(FailpointRegistryTest, CertainErrorFiresEveryHit) {
  RobustGuard guard;
  ASSERT_TRUE(FailpointRegistry::Global().Configure("boom=error(1)").ok());
  EXPECT_TRUE(FailpointRegistry::Global().armed());
  for (int i = 0; i < 3; ++i) {
    Status st = FailpointRegistry::Global().Hit("boom");
    EXPECT_EQ(st.code(), StatusCode::kInternal);
    EXPECT_NE(st.ToString().find("injected failure at boom"),
              std::string::npos);
  }
  EXPECT_TRUE(FailpointRegistry::Global().Hit("other_site").ok());
  EXPECT_EQ(FailpointRegistry::Global().HitCount("boom"), 3u);
}

TEST(FailpointRegistryTest, SkipLetsEarlyHitsPass) {
  RobustGuard guard;
  ASSERT_TRUE(FailpointRegistry::Global().Configure("boom=error(1,3)").ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(FailpointRegistry::Global().Hit("boom").ok()) << i;
  }
  EXPECT_FALSE(FailpointRegistry::Global().Hit("boom").ok());
  EXPECT_FALSE(FailpointRegistry::Global().Hit("boom").ok());
}

TEST(FailpointRegistryTest, ZeroProbabilityNeverFires) {
  RobustGuard guard;
  ASSERT_TRUE(FailpointRegistry::Global().Configure("boom=error(0)").ok());
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(FailpointRegistry::Global().Hit("boom").ok());
  }
}

TEST(FailpointRegistryTest, FirePatternIsDeterministicInSeed) {
  RobustGuard guard;
  auto pattern = [](uint64_t seed) {
    EXPECT_TRUE(
        FailpointRegistry::Global().Configure("flaky=error(0.5)", seed).ok());
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(!FailpointRegistry::Global().Hit("flaky").ok());
    }
    return fired;
  };
  std::vector<bool> first = pattern(7);
  std::vector<bool> again = pattern(7);
  EXPECT_EQ(first, again);
  // A 0.5 coin over 64 hits fires somewhere but not everywhere.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 64);
}

TEST(FailpointRegistryTest, ClearDisarms) {
  RobustGuard guard;
  ASSERT_TRUE(FailpointRegistry::Global().Configure("boom=error(1)").ok());
  FailpointRegistry::Global().Clear();
  EXPECT_FALSE(FailpointRegistry::Global().armed());
  EXPECT_TRUE(FailpointRegistry::Global().Hit("boom").ok());
}

Status FunctionWithInjectionSite() {
  FAIREM_FAILPOINT("macro_site");
  return Status::OK();
}

TEST(FailpointRegistryTest, MacroReturnsInjectedErrorFromEnclosingFunction) {
  RobustGuard guard;
  EXPECT_TRUE(FunctionWithInjectionSite().ok());
  ASSERT_TRUE(
      FailpointRegistry::Global().Configure("macro_site=error(1)").ok());
  Status st = FunctionWithInjectionSite();
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(FailpointDeathTest, CrashActionExitsWithCrashCode) {
  RobustGuard guard;
  EXPECT_EXIT(
      {
        Status ignored =
            FailpointRegistry::Global().Configure("die=crash(1)");
        ignored = CheckFailpoint("die");
      },
      ::testing::ExitedWithCode(kCrashExitCode), "injected failure at die");
}

// ---------------------------------------------------------------------------
// Retry policy

TEST(RetryTest, RetryableCodes) {
  EXPECT_TRUE(IsRetryableStatus(Status::Internal("x")));
  EXPECT_TRUE(IsRetryableStatus(Status::IOError("x")));
  EXPECT_FALSE(IsRetryableStatus(Status::InvalidArgument("x")));
  EXPECT_FALSE(IsRetryableStatus(Status::NotFound("x")));
}

TEST(RetryTest, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 0.05;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 0.3;
  policy.jitter_fraction = 0.0;
  Rng rng(1);
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 1, &rng), 0.05);
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 2, &rng), 0.1);
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 3, &rng), 0.2);
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 4, &rng), 0.3);  // capped
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 10, &rng), 0.3);
}

TEST(RetryTest, JitterStaysWithinFraction) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 1.0;
  policy.max_backoff_seconds = 1.0;
  policy.jitter_fraction = 0.5;
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    double b = BackoffSeconds(policy, 1, &rng);
    EXPECT_GE(b, 0.5);
    EXPECT_LE(b, 1.5);
  }
}

TEST(RetryTest, RetriesTransientFailureUntilSuccess) {
  RobustGuard guard;
  std::vector<double> sleeps;
  SetRetrySleepFnForTest([&](double s) { sleeps.push_back(s); });
  uint64_t retries_before = CounterValue("fairem.robust.retries");
  uint64_t successes_before = CounterValue("fairem.robust.retry_successes");
  int calls = 0;
  RetryPolicy policy;
  policy.max_attempts = 5;
  Status st = RetryCall(policy, [&]() {
    ++calls;
    return calls < 3 ? Status::Internal("transient") : Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(sleeps.size(), 2u);
  EXPECT_EQ(CounterValue("fairem.robust.retries") - retries_before, 2u);
  EXPECT_EQ(CounterValue("fairem.robust.retry_successes") - successes_before,
            1u);
}

TEST(RetryTest, ResultOverloadRetriesAndReturnsValue) {
  RobustGuard guard;
  SetRetrySleepFnForTest([](double) {});
  int calls = 0;
  RetryPolicy policy;
  Result<int> r = RetryCall(policy, [&]() -> Result<int> {
    ++calls;
    if (calls < 2) return Status::IOError("flaky disk");
    return 42;
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(calls, 2);
}

TEST(RetryTest, NonRetryableFailsImmediately) {
  RobustGuard guard;
  std::vector<double> sleeps;
  SetRetrySleepFnForTest([&](double s) { sleeps.push_back(s); });
  uint64_t giveups_before = CounterValue("fairem.robust.retry_giveups");
  int calls = 0;
  RetryPolicy policy;
  policy.max_attempts = 5;
  Status st = RetryCall(policy, [&]() {
    ++calls;
    return Status::InvalidArgument("bad input");
  });
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(sleeps.empty());
  EXPECT_EQ(CounterValue("fairem.robust.retry_giveups") - giveups_before, 1u);
}

TEST(RetryTest, GivesUpAfterMaxAttempts) {
  RobustGuard guard;
  SetRetrySleepFnForTest([](double) {});
  uint64_t giveups_before = CounterValue("fairem.robust.retry_giveups");
  int calls = 0;
  RetryPolicy policy;
  policy.max_attempts = 3;
  Status st = RetryCall(policy, [&]() {
    ++calls;
    return Status::Internal("always down");
  });
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(CounterValue("fairem.robust.retry_giveups") - giveups_before, 1u);
}

TEST(RetryTest, DeadlineStopsRetrying) {
  RobustGuard guard;
  std::vector<double> sleeps;
  SetRetrySleepFnForTest([&](double s) { sleeps.push_back(s); });
  int calls = 0;
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.initial_backoff_seconds = 10.0;  // first backoff alone busts it
  policy.deadline_seconds = 1.0;
  Status st = RetryCall(policy, [&]() {
    ++calls;
    return Status::Internal("always down");
  });
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(sleeps.empty());
}

// ---------------------------------------------------------------------------
// Checkpoint store

TEST(CheckpointStoreTest, DisabledStoreIsInert) {
  CheckpointStore store("");
  EXPECT_FALSE(store.enabled());
  EXPECT_TRUE(store.Load("k").status().IsNotFound());
  EXPECT_TRUE(store.Save("k", "payload").ok());
}

TEST(CheckpointStoreTest, SaveLoadRoundTrip) {
  CheckpointStore store(FreshTempDir("fairem_ckpt_roundtrip"));
  EXPECT_TRUE(store.enabled());
  EXPECT_TRUE(store.Load("cell").status().IsNotFound());
  ASSERT_TRUE(store.Save("cell", "v1").ok());
  EXPECT_EQ(std::move(store.Load("cell")).value(), "v1");
  ASSERT_TRUE(store.Save("cell", "v2").ok());  // overwrite
  EXPECT_EQ(std::move(store.Load("cell")).value(), "v2");
  // Atomic publish: the directory holds the published file and no temp.
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(store.dir())) {
    files.push_back(entry.path().filename());
  }
  EXPECT_EQ(files, std::vector<std::string>{"cell.json"});
}

TEST(CheckpointStoreTest, SanitizeKeyKeepsFilenamesSafe) {
  EXPECT_EQ(SanitizeForFilename("DBLP-Scholar.single.DTMatcher"),
            "DBLP-Scholar.single.DTMatcher");
  EXPECT_EQ(SanitizeForFilename("a/b c:d\\e"), "a_b_c_d_e");
  CheckpointStore store("/tmp/x");
  EXPECT_EQ(store.PathFor("a/b"), "/tmp/x/a_b.json");
}

TEST(CheckpointStoreTest, GridCellJsonRoundTrip) {
  GridCellCheckpoint cell;
  cell.matcher = "DTMatcher";
  cell.marker = "DT";
  cell.supported = true;
  cell.error = true;
  cell.status = "Internal: \"quoted\" \\ back\nnew\ttab \x01 ctrl";
  cell.marks.push_back({"female", "accuracy_parity", true});
  cell.marks.push_back({"male", "equal_opportunity", false});
  GridCellCheckpoint back =
      std::move(GridCellFromJson(GridCellToJson(cell))).value();
  EXPECT_EQ(back.matcher, cell.matcher);
  EXPECT_EQ(back.marker, cell.marker);
  EXPECT_EQ(back.supported, cell.supported);
  EXPECT_EQ(back.error, cell.error);
  EXPECT_EQ(back.status, cell.status);
  ASSERT_EQ(back.marks.size(), 2u);
  EXPECT_EQ(back.marks[0].group, "female");
  EXPECT_EQ(back.marks[0].measure, "accuracy_parity");
  EXPECT_TRUE(back.marks[0].unfair);
  EXPECT_EQ(back.marks[1].group, "male");
  EXPECT_FALSE(back.marks[1].unfair);
}

TEST(CheckpointStoreTest, GridCellJsonRejectsGarbage) {
  EXPECT_FALSE(GridCellFromJson("").ok());
  EXPECT_FALSE(GridCellFromJson("not json").ok());
  EXPECT_FALSE(GridCellFromJson("{\"matcher\":\"DT\"").ok());  // truncated
  EXPECT_FALSE(GridCellFromJson("{\"surprise\":true}").ok());
  EXPECT_FALSE(GridCellFromJson("{}").ok());  // missing matcher
}

// ---------------------------------------------------------------------------
// Grid-level fault tolerance. A small matcher subset keeps these fast; the
// classical matchers cover supported and audit-heavy paths.

std::vector<MatcherKind> SkipAllExcept(const std::vector<MatcherKind>& keep) {
  std::vector<MatcherKind> skip;
  for (MatcherKind kind : AllMatcherKinds()) {
    if (std::find(keep.begin(), keep.end(), kind) == keep.end()) {
      skip.push_back(kind);
    }
  }
  return skip;
}

GridRunOptions SmallGridOptions() {
  GridRunOptions options;
  options.audit.reference = AuditReference::kComplement;
  options.skip = SkipAllExcept(
      {MatcherKind::kDT, MatcherKind::kLogReg, MatcherKind::kNB,
       MatcherKind::kBooleanRule});
  return options;
}

TEST(RobustGridTest, TransientFailpointRetriesToCompletion) {
  RobustGuard guard;
  SetRetrySleepFnForTest([](double) {});
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kFacultyMatch, 0.3)).value();
  GridRunOptions options = SmallGridOptions();
  std::string baseline =
      std::move(UnfairnessGridReport(ds, false, options)).value();

  options.retry.max_attempts = 8;
  uint64_t retries_before = CounterValue("fairem.robust.retries");
  uint64_t errors_before = CounterValue("fairem.robust.grid_error_cells");
  ASSERT_TRUE(
      FailpointRegistry::Global().Configure("matcher_fit=error(0.5)", 7).ok());
  std::string report =
      std::move(UnfairnessGridReport(ds, false, options)).value();
  FailpointRegistry::Global().Clear();

  // The injected transient failures were retried away: same report as the
  // clean run, retry counters moved, no cell degraded to an error entry.
  EXPECT_EQ(report, baseline);
  EXPECT_GT(CounterValue("fairem.robust.retries"), retries_before);
  EXPECT_EQ(CounterValue("fairem.robust.grid_error_cells"), errors_before);
  EXPECT_EQ(report.find("errors (cells unavailable"), std::string::npos);
}

TEST(RobustGridTest, PermanentFailureDegradesToErrorCell) {
  RobustGuard guard;
  SetRetrySleepFnForTest([](double) {});
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kFacultyMatch, 0.3)).value();
  GridRunOptions options = SmallGridOptions();
  options.retry.max_attempts = 2;
  uint64_t errors_before = CounterValue("fairem.robust.grid_error_cells");
  ASSERT_TRUE(FailpointRegistry::Global()
                  .Configure("matcher_fit.NBMatcher=error(1)")
                  .ok());
  std::string report =
      std::move(UnfairnessGridReport(ds, false, options)).value();
  FailpointRegistry::Global().Clear();

  // Exactly the targeted matcher is reported unavailable; the rest of the
  // grid still renders.
  EXPECT_EQ(CounterValue("fairem.robust.grid_error_cells") - errors_before,
            1u);
  EXPECT_NE(report.find("errors (cells unavailable after retries):"),
            std::string::npos);
  EXPECT_NE(report.find("NBMatcher: Internal: injected failure"),
            std::string::npos);
  EXPECT_NE(report.find("DT"), std::string::npos);
}

TEST(RobustGridTest, CheckpointedRunResumesWithoutRecomputing) {
  RobustGuard guard;
  SetRetrySleepFnForTest([](double) {});
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kFacultyMatch, 0.3)).value();
  GridRunOptions options = SmallGridOptions();
  options.checkpoint_dir = FreshTempDir("fairem_ckpt_inproc");

  uint64_t saved_before = CounterValue("fairem.robust.checkpoint_cells_saved");
  std::string first =
      std::move(UnfairnessGridReport(ds, false, options)).value();
  uint64_t saved =
      CounterValue("fairem.robust.checkpoint_cells_saved") - saved_before;
  EXPECT_EQ(saved, 4u);  // one checkpoint per kept matcher

  // Second run: arm a certain fit failure. If any cell were re-run instead
  // of replayed from its checkpoint, it would degrade to an error entry and
  // the reports would differ.
  uint64_t loaded_before =
      CounterValue("fairem.robust.checkpoint_cells_loaded");
  ASSERT_TRUE(
      FailpointRegistry::Global().Configure("matcher_fit=error(1)").ok());
  std::string second =
      std::move(UnfairnessGridReport(ds, false, options)).value();
  FailpointRegistry::Global().Clear();
  EXPECT_EQ(second, first);
  EXPECT_EQ(
      CounterValue("fairem.robust.checkpoint_cells_loaded") - loaded_before,
      4u);
}

TEST(RobustGridTest, CorruptCheckpointFallsBackToLiveRun) {
  RobustGuard guard;
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kFacultyMatch, 0.3)).value();
  GridRunOptions options = SmallGridOptions();
  options.checkpoint_dir = FreshTempDir("fairem_ckpt_corrupt");
  std::string first =
      std::move(UnfairnessGridReport(ds, false, options)).value();
  // Corrupt one cell's checkpoint; the resumed run re-runs just that cell
  // and still reproduces the report.
  CheckpointStore store(options.checkpoint_dir);
  std::string key = ds.name + ".single.DTMatcher";
  ASSERT_TRUE(std::filesystem::exists(store.PathFor(key)));
  std::ofstream(store.PathFor(key), std::ios::trunc) << "{corrupt";
  std::string second =
      std::move(UnfairnessGridReport(ds, false, options)).value();
  EXPECT_EQ(second, first);
  // The re-run repaired the checkpoint in place.
  EXPECT_TRUE(
      std::move(GridCellFromJson(std::move(store.Load(key)).value())).ok());
}

TEST(RobustGridTest, ErrorCellsArePersistedAcrossResume) {
  RobustGuard guard;
  SetRetrySleepFnForTest([](double) {});
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kFacultyMatch, 0.3)).value();
  GridRunOptions options = SmallGridOptions();
  options.retry.max_attempts = 1;
  options.checkpoint_dir = FreshTempDir("fairem_ckpt_errcell");
  ASSERT_TRUE(FailpointRegistry::Global()
                  .Configure("matcher_fit.NBMatcher=error(1)")
                  .ok());
  std::string first =
      std::move(UnfairnessGridReport(ds, false, options)).value();
  FailpointRegistry::Global().Clear();
  EXPECT_NE(first.find("NBMatcher:"), std::string::npos);
  // Resume without any failpoint: the error cell replays from its
  // checkpoint rather than silently healing — delete the file to re-run.
  std::string second =
      std::move(UnfairnessGridReport(ds, false, options)).value();
  EXPECT_EQ(second, first);
  CheckpointStore store(options.checkpoint_dir);
  ASSERT_TRUE(
      std::filesystem::remove(store.PathFor(ds.name + ".single.NBMatcher")));
  std::string healed =
      std::move(UnfairnessGridReport(ds, false, options)).value();
  EXPECT_EQ(healed.find("NBMatcher:"), std::string::npos);
}

// The headline kill/resume drill: a crash failpoint kills the grid run
// mid-flight (in the death-test child), then the parent resumes from the
// surviving checkpoints and must reproduce the uninterrupted report byte
// for byte.
TEST(RobustGridDeathTest, KilledRunResumesByteIdentical) {
  RobustGuard guard;
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kFacultyMatch, 0.3)).value();
  GridRunOptions options = SmallGridOptions();
  std::string expected =
      std::move(UnfairnessGridReport(ds, false, options)).value();
  EXPECT_FALSE(expected.empty());

  options.checkpoint_dir = FreshTempDir("fairem_ckpt_killed");
  EXPECT_EXIT(
      {
        // Crash on the third cell: two checkpoints land on disk first.
        Status ignored =
            FailpointRegistry::Global().Configure("grid_cell=crash(1,2)");
        Result<std::string> r = UnfairnessGridReport(ds, false, options);
        (void)r;
      },
      ::testing::ExitedWithCode(kCrashExitCode),
      "injected failure at grid_cell");
  size_t survivors = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.checkpoint_dir)) {
    survivors += entry.path().extension() == ".json" ? 1 : 0;
  }
  EXPECT_EQ(survivors, 2u);

  uint64_t loaded_before =
      CounterValue("fairem.robust.checkpoint_cells_loaded");
  std::string resumed =
      std::move(UnfairnessGridReport(ds, false, options)).value();
  EXPECT_EQ(resumed, expected);
  EXPECT_EQ(
      CounterValue("fairem.robust.checkpoint_cells_loaded") - loaded_before,
      2u);
}

}  // namespace
}  // namespace fairem
