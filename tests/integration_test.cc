// End-to-end pipeline tests: generate -> train -> score -> audit on small
// scales of the real benchmark datasets, checking the invariants the paper's
// experiments rely on.

#include <gtest/gtest.h>

#include "src/core/threshold.h"
#include "src/datagen/benchmark_suite.h"
#include "src/harness/experiment.h"

namespace fairem {
namespace {

TEST(IntegrationTest, FullPipelineOnDblpAcm) {
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kDblpAcm, 0.4)).value();
  Result<MatcherRun> run = RunMatcher(ds, MatcherKind::kRF);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_TRUE(run->supported);
  EXPECT_EQ(run->test_scores.size(), ds.test.size());
  EXPECT_GT(run->f1, 0.7);
  Result<AuditReport> single = AuditRunSingle(ds, *run);
  ASSERT_TRUE(single.ok());
  Result<AuditReport> pairwise = AuditRunPairwise(ds, *run);
  ASSERT_TRUE(pairwise.ok());
  // Pairwise audits cover n*(n+1)/2 group pairs.
  size_t n = MakeAuditor(ds)->groups().size();
  EXPECT_EQ(pairwise->entries.size() / std::size(kAllFairnessMeasures),
            n * (n + 1) / 2);
}

TEST(IntegrationTest, NeuralPipelineOnSocialData) {
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kNoFlyCompas, 0.35)).value();
  Result<MatcherRun> run = RunMatcher(ds, MatcherKind::kDitto);
  ASSERT_TRUE(run.ok()) << run.status();
  // Scores must be usable across the whole threshold sweep.
  Result<FairnessAuditor> auditor = MakeAuditor(ds);
  ASSERT_TRUE(auditor.ok());
  Result<std::vector<ThresholdPoint>> sweep = SweepThresholds(
      *auditor, ds.test, run->test_scores,
      FairnessMeasure::kTruePositiveRateParity, ThresholdGrid(0.3, 0.9, 0.1),
      AuditOptions{});
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(sweep->size(), 7u);
  // Raising the threshold never increases predicted matches, so TPR is
  // non-increasing along the sweep.
  for (size_t i = 0; i + 1 < sweep->size(); ++i) {
    if ((*sweep)[i].utility_defined && (*sweep)[i + 1].utility_defined) {
      EXPECT_GE((*sweep)[i].utility + 1e-9, (*sweep)[i + 1].utility);
    }
  }
}

TEST(IntegrationTest, RunsAreDeterministic) {
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kItunesAmazon, 0.35)).value();
  Result<MatcherRun> a = RunMatcher(ds, MatcherKind::kLogReg, 99);
  Result<MatcherRun> b = RunMatcher(ds, MatcherKind::kLogReg, 99);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->test_scores, b->test_scores);
  Result<MatcherRun> c = RunMatcher(ds, MatcherKind::kLogReg, 100);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->test_scores, c->test_scores);
}

TEST(IntegrationTest, GroupCountsCoverAllTestPairs) {
  // Every test pair belongs to at least one group on the social datasets
  // (binary attribute, no nulls), so summing exclusive memberships covers
  // the whole confusion matrix.
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kFacultyMatch, 0.4)).value();
  Result<MatcherRun> run = RunMatcher(ds, MatcherKind::kDT);
  ASSERT_TRUE(run.ok());
  Result<std::vector<GroupRates>> breakdown = GroupBreakdown(ds, *run);
  ASSERT_TRUE(breakdown.ok());
  int64_t covered = 0;
  for (const auto& g : *breakdown) covered += g.counts.total();
  // Single-fairness counts overlap on cross-group pairs, so the sum is at
  // least the number of test pairs.
  EXPECT_GE(covered, static_cast<int64_t>(ds.test.size()));
}

TEST(IntegrationTest, DirtyDataSurvivesWholePipeline) {
  // DBLP-Scholar carries nulls in most attributes; no matcher, feature
  // extractor, or audit step may choke on them.
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kDblpScholar, 0.5)).value();
  size_t nulls = 0;
  for (size_t r = 0; r < ds.table_b.num_rows(); ++r) {
    for (size_t c = 0; c < ds.table_b.schema().num_attributes(); ++c) {
      if (ds.table_b.IsNull(r, c)) ++nulls;
    }
  }
  EXPECT_GT(nulls, 0u);
  for (MatcherKind kind :
       {MatcherKind::kBooleanRule, MatcherKind::kNB, MatcherKind::kDitto}) {
    Result<MatcherRun> run = RunMatcher(ds, kind);
    ASSERT_TRUE(run.ok()) << MatcherKindName(kind) << ": " << run.status();
    Result<AuditReport> report = AuditRunSingle(ds, *run);
    ASSERT_TRUE(report.ok()) << MatcherKindName(kind);
  }
}

TEST(IntegrationTest, UnfairnessGridReportRenders) {
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kDblpScholar, 0.4)).value();
  GridRunOptions options;
  options.skip = NeuralMatcherKinds();
  Result<std::string> grid =
      UnfairnessGridReport(ds, /*pairwise=*/false, options);
  ASSERT_TRUE(grid.ok()) << grid.status();
  // All groups appear as columns even when no cell is unfair.
  EXPECT_NE(grid->find("article"), std::string::npos);
}

}  // namespace
}  // namespace fairem
