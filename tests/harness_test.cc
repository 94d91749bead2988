#include "src/harness/experiment.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/datagen/benchmark_suite.h"
#include "src/obs/metrics.h"

namespace fairem {
namespace {

std::vector<uint64_t> HistogramCounts(const std::vector<std::string>& names) {
  std::vector<uint64_t> counts;
  for (const std::string& name : names) {
    counts.push_back(MetricsRegistry::Global().GetHistogram(name)->count());
  }
  return counts;
}

TEST(HarnessTest, RunMatcherPopulatesEverything) {
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kDblpAcm, 0.35)).value();
  // Each fit and predict is observed in the aggregate histogram (old
  // snapshots still diff) and in the matcher's own.
  const std::vector<std::string> histograms = {
      "fairem.matcher.fit_seconds", "fairem.matcher.predict_seconds",
      "fairem.matcher.DTMatcher.fit_seconds",
      "fairem.matcher.DTMatcher.predict_seconds"};
  std::vector<uint64_t> observed = HistogramCounts(histograms);
  MatcherRun run = std::move(RunMatcher(ds, MatcherKind::kDT)).value();
  std::vector<uint64_t> after = HistogramCounts(histograms);
  for (size_t i = 0; i < observed.size(); ++i) {
    observed[i] = after[i] - observed[i];
  }
  EXPECT_EQ(observed, std::vector<uint64_t>(histograms.size(), 1u));
  EXPECT_TRUE(run.supported);
  EXPECT_EQ(run.kind, MatcherKind::kDT);
  EXPECT_EQ(run.matcher_name, "DTMatcher");
  EXPECT_EQ(run.test_scores.size(), ds.test.size());
  EXPECT_EQ(run.counts.total(), static_cast<int64_t>(ds.test.size()));
  EXPECT_GT(run.accuracy, 0.0);
  EXPECT_GE(run.fit_seconds, 0.0);
  EXPECT_GE(run.predict_seconds, 0.0);
}

TEST(HarnessTest, UnsupportedMatcherReportsCleanly) {
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kCameras, 0.35)).value();
  MatcherRun run = std::move(RunMatcher(ds, MatcherKind::kDedupe)).value();
  EXPECT_FALSE(run.supported);
  EXPECT_TRUE(run.test_scores.empty());
}

TEST(HarnessTest, AuditConsistentWithManualPath) {
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kDblpScholar, 0.5)).value();
  MatcherRun run = std::move(RunMatcher(ds, MatcherKind::kNB)).value();
  AuditReport via_harness =
      std::move(AuditRunSingle(ds, run)).value();
  // Manual: auditor + outcomes should give identical entries.
  FairnessAuditor auditor = std::move(MakeAuditor(ds)).value();
  std::vector<PairOutcome> outcomes =
      std::move(MakeOutcomes(ds.test, run.test_scores, ds.default_threshold))
          .value();
  AuditReport manual =
      std::move(auditor.AuditSingle(outcomes, AuditOptions{})).value();
  ASSERT_EQ(via_harness.entries.size(), manual.entries.size());
  for (size_t i = 0; i < manual.entries.size(); ++i) {
    EXPECT_EQ(via_harness.entries[i].group_label,
              manual.entries[i].group_label);
    EXPECT_DOUBLE_EQ(via_harness.entries[i].disparity,
                     manual.entries[i].disparity);
    EXPECT_EQ(via_harness.entries[i].unfair, manual.entries[i].unfair);
  }
}

TEST(HarnessTest, GroupBreakdownSumsToConsistentCounts) {
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kFacultyMatch, 0.35)).value();
  MatcherRun run = std::move(RunMatcher(ds, MatcherKind::kLogReg)).value();
  std::vector<GroupRates> breakdown =
      std::move(GroupBreakdown(ds, run)).value();
  ASSERT_EQ(breakdown.size(), 2u);  // cn, de
  // Binary exclusive attribute: per-group totals can exceed the test size
  // only through cross-group pairs (counted in both).
  int64_t sum = 0;
  for (const auto& g : breakdown) sum += g.counts.total();
  EXPECT_GE(sum, static_cast<int64_t>(ds.test.size()));
  EXPECT_LE(sum, static_cast<int64_t>(2 * ds.test.size()));
}

TEST(HarnessTest, GridReportSkipsRequestedMatchers) {
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kDblpScholar, 0.4)).value();
  GridRunOptions options;
  options.skip = AllMatcherKinds();
  std::string grid =
      std::move(UnfairnessGridReport(ds, false, options)).value();
  EXPECT_TRUE(grid.empty());
}

}  // namespace
}  // namespace fairem
