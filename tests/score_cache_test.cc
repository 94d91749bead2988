// The run store (DESIGN.md §18): its in-process memo under both audit
// modes and its failure policy; its checkpointed test scores' entry codec
// and invalidation rules; byte-identity of stored reports against fresh
// ones, sequentially and under the supervised executor; and the shared
// feature tables it keeps per dataset (DESIGN.md §22).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/datagen/benchmark_suite.h"
#include "src/feature/feature_gen.h"
#include "src/harness/experiment.h"
#include "src/matcher/ml_matchers.h"
#include "src/obs/metrics.h"
#include "src/robust/checkpoint.h"
#include "src/robust/failpoint.h"
#include "src/robust/retry.h"
#include "src/util/thread_pool.h"

namespace fairem {
namespace {

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

/// Counter deltas over a scope, for the score-cache and fit counters.
class CacheCounters {
 public:
  CacheCounters()
      : hits_(CounterValue("fairem.harness.score_cache_hits")),
        misses_(CounterValue("fairem.harness.score_cache_misses")),
        stale_(CounterValue("fairem.harness.score_cache_stale")),
        fits_(CounterValue("fairem.harness.matcher_runs")) {}
  uint64_t hits() const {
    return CounterValue("fairem.harness.score_cache_hits") - hits_;
  }
  uint64_t misses() const {
    return CounterValue("fairem.harness.score_cache_misses") - misses_;
  }
  uint64_t stale() const {
    return CounterValue("fairem.harness.score_cache_stale") - stale_;
  }
  uint64_t fits() const {
    return CounterValue("fairem.harness.matcher_runs") - fits_;
  }

 private:
  uint64_t hits_, misses_, stale_, fits_;
};

/// Disarms failpoints and restores the real retry sleep when a test exits,
/// even on assertion failure — both are process-global.
class RobustGuard {
 public:
  RobustGuard() {
    FailpointRegistry::Global().Clear();
    SetRetrySleepFnForTest([](double) {});
  }
  ~RobustGuard() {
    FailpointRegistry::Global().Clear();
    SetRetrySleepFnForTest(nullptr);
  }
};

/// A checkpoint dir private to this process (the FAIREM_SIMD=off lane runs
/// this binary concurrently with the default one), removed on scope exit.
class TempCheckpointDir {
 public:
  explicit TempCheckpointDir(const std::string& leaf)
      : path_(::testing::TempDir() + leaf + "." +
              std::to_string(::getpid())) {
    std::filesystem::remove_all(path_);
  }
  ~TempCheckpointDir() { std::filesystem::remove_all(path_); }
  TempCheckpointDir(const TempCheckpointDir&) = delete;
  TempCheckpointDir& operator=(const TempCheckpointDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Names of the regular files directly in `dir`, sorted.
std::set<std::string> FilesIn(const std::string& dir) {
  std::set<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) names.insert(entry.path().filename());
  }
  return names;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

std::vector<MatcherKind> SkipAllExcept(const std::vector<MatcherKind>& keep) {
  std::vector<MatcherKind> skip;
  for (MatcherKind kind : AllMatcherKinds()) {
    if (std::find(keep.begin(), keep.end(), kind) == keep.end()) {
      skip.push_back(kind);
    }
  }
  return skip;
}

/// The robust tests' small matcher subset.
GridRunOptions SmallGridOptions() {
  GridRunOptions options;
  options.audit.reference = AuditReference::kComplement;
  options.skip = SkipAllExcept(
      {MatcherKind::kDT, MatcherKind::kLogReg, MatcherKind::kNB,
       MatcherKind::kBooleanRule});
  return options;
}

EMDataset Faculty(uint64_t seed_offset = 0) {
  return std::move(
             GenerateDataset(DatasetKind::kFacultyMatch, 0.3, seed_offset))
      .value();
}

std::string Report(const EMDataset& ds, bool pairwise,
                   const GridRunOptions& options, RunStore* runs = nullptr) {
  return std::move(UnfairnessGridReport(ds, pairwise, options, runs)).value();
}

/// Uncached reference: the same options without a checkpoint dir.
std::string Uncached(const EMDataset& ds, bool pairwise,
                     GridRunOptions options) {
  options.checkpoint_dir.clear();
  options.jobs = 1;
  return Report(ds, pairwise, options);
}

std::string ScorePath(const GridRunOptions& options, const EMDataset& ds,
                      const std::string& matcher) {
  return options.checkpoint_dir + "/scores/" + ds.name + "." + matcher +
         ".json";
}

// ---------------------------------------------------------------------------
// Entry codec

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(ScoreCodecTest, RoundTripsEveryBitPattern) {
  const double inf = std::numeric_limits<double>::infinity();
  ScoreCacheEntry entry;
  entry.dataset = "Odd \"name\"\\x";
  entry.matcher = "DTMatcher";
  entry.seed = std::numeric_limits<uint64_t>::max();
  entry.fingerprint = 0x8000000000000001ULL;
  entry.scores = {0.0,
                  -0.0,
                  std::numeric_limits<double>::denorm_min(),
                  -std::numeric_limits<double>::denorm_min(),
                  DBL_MIN,
                  DBL_MAX,
                  -DBL_MAX,
                  std::nextafter(0.5, -inf),
                  0.5,
                  std::nextafter(0.5, inf),
                  std::nextafter(0.9, -inf),
                  0.9,
                  std::nextafter(0.9, inf),
                  1.0,
                  0.1,
                  1.0 / 3.0};
  ScoreCacheEntry back =
      std::move(ScoreEntryFromJson(ScoreEntryToJson(entry))).value();
  EXPECT_EQ(back.dataset, entry.dataset);
  EXPECT_EQ(back.matcher, entry.matcher);
  EXPECT_EQ(back.seed, entry.seed);
  EXPECT_EQ(back.fingerprint, entry.fingerprint);
  ASSERT_EQ(back.scores.size(), entry.scores.size());
  for (size_t i = 0; i < entry.scores.size(); ++i) {
    EXPECT_EQ(Bits(back.scores[i]), Bits(entry.scores[i])) << "index " << i;
  }
}

TEST(ScoreCodecTest, RejectsTruncatedMalformedAndNonFinite) {
  ScoreCacheEntry entry;
  entry.dataset = "FacultyMatch";
  entry.matcher = "NBMatcher";
  entry.seed = 1234;
  entry.fingerprint = 42;
  entry.scores = {0.25, 0.75};
  const std::string json = ScoreEntryToJson(entry);
  ASSERT_TRUE(ScoreEntryFromJson(json).ok());
  EXPECT_FALSE(ScoreEntryFromJson("").ok());
  EXPECT_FALSE(ScoreEntryFromJson(json.substr(0, json.size() / 2)).ok());
  EXPECT_FALSE(ScoreEntryFromJson("{\"dataset\":\"FacultyMatch\"}").ok());
  std::string overflow = json;
  overflow.replace(overflow.find("0.25"), 4, "1e999");
  EXPECT_FALSE(ScoreEntryFromJson(overflow).ok());
  std::string not_array = json;
  not_array.replace(not_array.find("[0.25,0.75]"), 11, "0.25");
  EXPECT_FALSE(ScoreEntryFromJson(not_array).ok());
}

// ---------------------------------------------------------------------------
// Grid reports over the cache

// The headline property: after a single-mode report, a pairwise report into
// the same dir fits nothing — a certain fit failure is armed, and the
// report still matches an uncached pairwise run byte for byte.
TEST(ScoreCacheTest, PairwiseAfterSingleAuditsWithoutFitting) {
  RobustGuard guard;
  EMDataset ds = Faculty();
  GridRunOptions options = SmallGridOptions();
  TempCheckpointDir dir("fairem_scores_modes");
  options.checkpoint_dir = dir.path();
  const std::string single_expected = Uncached(ds, false, options);
  const std::string pairwise_expected = Uncached(ds, true, options);

  CacheCounters single_run;
  EXPECT_EQ(Report(ds, false, options), single_expected);
  EXPECT_EQ(single_run.misses(), 4u);
  EXPECT_EQ(single_run.hits(), 0u);
  EXPECT_EQ(single_run.fits(), 4u);

  CacheCounters pairwise_run;
  ASSERT_TRUE(
      FailpointRegistry::Global().Configure("matcher_fit=error(1)").ok());
  EXPECT_EQ(Report(ds, true, options), pairwise_expected);
  FailpointRegistry::Global().Clear();
  EXPECT_EQ(pairwise_run.hits(), 4u);
  EXPECT_EQ(pairwise_run.misses(), 0u);
  EXPECT_EQ(pairwise_run.fits(), 0u);

  // The root keeps exactly one .json per cell (resume drills count them);
  // the scores live one level down, and no temp file is left anywhere.
  EXPECT_EQ(FilesIn(options.checkpoint_dir),
            (std::set<std::string>{
                "FacultyMatch.pairwise.BooleanRuleMatcher.json",
                "FacultyMatch.pairwise.DTMatcher.json",
                "FacultyMatch.pairwise.LogRegMatcher.json",
                "FacultyMatch.pairwise.NBMatcher.json",
                "FacultyMatch.single.BooleanRuleMatcher.json",
                "FacultyMatch.single.DTMatcher.json",
                "FacultyMatch.single.LogRegMatcher.json",
                "FacultyMatch.single.NBMatcher.json"}));
  EXPECT_EQ(FilesIn(options.checkpoint_dir + "/scores"),
            (std::set<std::string>{"FacultyMatch.BooleanRuleMatcher.json",
                                   "FacultyMatch.DTMatcher.json",
                                   "FacultyMatch.LogRegMatcher.json",
                                   "FacultyMatch.NBMatcher.json"}));

  // A deleted cell file re-audits from the cached scores, still fitting
  // nothing.
  ASSERT_TRUE(std::filesystem::remove(options.checkpoint_dir +
                                      "/FacultyMatch.single.DTMatcher.json"));
  CacheCounters reaudit;
  ASSERT_TRUE(
      FailpointRegistry::Global().Configure("matcher_fit=error(1)").ok());
  EXPECT_EQ(Report(ds, false, options), single_expected);
  FailpointRegistry::Global().Clear();
  EXPECT_EQ(reaudit.hits(), 1u);
  EXPECT_EQ(reaudit.fits(), 0u);
}

// Every way an entry can go bad is a stale miss: the cell refits, the
// report is unchanged, and the refit overwrites the entry with a valid one.
TEST(ScoreCacheTest, DamagedEntryIsAStaleMissThatRefitsAndRepairs) {
  RobustGuard guard;
  EMDataset ds = Faculty();
  GridRunOptions options = SmallGridOptions();
  TempCheckpointDir dir("fairem_scores_damaged");
  options.checkpoint_dir = dir.path();
  const std::string pairwise_expected = Uncached(ds, true, options);
  Report(ds, false, options);
  const std::string entry_path = ScorePath(options, ds, "DTMatcher");
  const std::string cell_path =
      options.checkpoint_dir + "/FacultyMatch.pairwise.DTMatcher.json";
  const std::string good = ReadFile(entry_path);
  const ScoreCacheEntry entry = std::move(ScoreEntryFromJson(good)).value();
  ASSERT_EQ(entry.scores.size(), ds.test.size());
  EXPECT_EQ(entry.seed, options.seed);
  EXPECT_EQ(entry.fingerprint, DatasetFingerprint(ds));

  auto reencoded = [&](auto mutate) {
    ScoreCacheEntry damaged = entry;
    mutate(&damaged);
    return ScoreEntryToJson(damaged);
  };
  std::string non_finite = good;
  const size_t first_score = non_finite.find("\"scores\":[") + 10;
  non_finite.replace(first_score,
                     non_finite.find(',', first_score) - first_score, "1e999");
  const std::vector<std::pair<const char*, std::string>> damage = {
      {"truncated", good.substr(0, good.size() / 2)},
      {"wrong length",
       reencoded([](ScoreCacheEntry* e) { e->scores.pop_back(); })},
      {"non-finite", non_finite},
      {"wrong seed", reencoded([](ScoreCacheEntry* e) { e->seed += 1; })},
      {"wrong fingerprint",
       reencoded([](ScoreCacheEntry* e) { e->fingerprint ^= 1; })},
  };
  for (const auto& [what, bytes] : damage) {
    SCOPED_TRACE(what);
    WriteFile(entry_path, bytes);
    // Without its cell file the pairwise DT cell has to consult the cache.
    std::filesystem::remove(cell_path);
    CacheCounters run;
    EXPECT_EQ(Report(ds, true, options), pairwise_expected);
    EXPECT_EQ(run.stale(), 1u);
    EXPECT_EQ(run.misses(), 1u);
    EXPECT_EQ(run.fits(), 1u);
    EXPECT_EQ(ReadFile(entry_path), good);
  }
}

TEST(ScoreCacheTest, AnotherDrawUnderTheSameNameRefits) {
  RobustGuard guard;
  EMDataset first = Faculty(0);
  EMDataset second = Faculty(1);
  ASSERT_EQ(first.name, second.name);
  ASSERT_NE(DatasetFingerprint(first), DatasetFingerprint(second));
  GridRunOptions options = SmallGridOptions();
  TempCheckpointDir dir("fairem_scores_redraw");
  options.checkpoint_dir = dir.path();
  Report(first, false, options);

  // The pairwise cells are new, so they consult the cache; every entry is
  // the first draw's and must not be reused.
  const std::string expected = Uncached(second, true, options);
  CacheCounters run;
  EXPECT_EQ(Report(second, true, options), expected);
  EXPECT_EQ(run.stale(), 4u);
  EXPECT_EQ(run.hits(), 0u);
  EXPECT_EQ(run.fits(), 4u);
  EXPECT_EQ(std::move(ScoreEntryFromJson(
                          ReadFile(ScorePath(options, second, "NBMatcher"))))
                .value()
                .fingerprint,
            DatasetFingerprint(second));
}

// Workers save entries from inside the forked cell; the counters they move
// reach the parent's registry over the telemetry pipe.
TEST(ScoreCacheTest, ParallelSingleFeedsSequentialPairwise) {
  RobustGuard guard;
  EMDataset ds = Faculty();
  GridRunOptions options = SmallGridOptions();
  TempCheckpointDir dir("fairem_scores_parallel");
  options.checkpoint_dir = dir.path();
  const std::string single_expected = Uncached(ds, false, options);
  const std::string pairwise_expected = Uncached(ds, true, options);

  options.jobs = 4;
  CacheCounters parallel;
  EXPECT_EQ(Report(ds, false, options), single_expected);
  EXPECT_EQ(parallel.misses(), 4u);
  EXPECT_EQ(parallel.fits(), 4u);

  options.jobs = 1;
  CacheCounters sequential;
  ASSERT_TRUE(
      FailpointRegistry::Global().Configure("matcher_fit=error(1)").ok());
  EXPECT_EQ(Report(ds, true, options), pairwise_expected);
  FailpointRegistry::Global().Clear();
  EXPECT_EQ(sequential.hits(), 4u);
  EXPECT_EQ(sequential.fits(), 0u);
}

TEST(ScoreCacheTest, ErrorAndUnsupportedCellsWriteNoEntry) {
  RobustGuard guard;
  EMDataset ds = Faculty();
  GridRunOptions options;
  options.audit.reference = AuditReference::kComplement;
  // Dedupe does not support FacultyMatch (Table 9's "-").
  options.skip = SkipAllExcept(
      {MatcherKind::kDT, MatcherKind::kNB, MatcherKind::kDedupe});
  options.retry.max_attempts = 1;
  TempCheckpointDir dir("fairem_scores_errors");
  options.checkpoint_dir = dir.path();
  ASSERT_TRUE(FailpointRegistry::Global()
                  .Configure("matcher_fit.NBMatcher=error(1)")
                  .ok());
  CacheCounters run;
  const std::string report = Report(ds, false, options);
  FailpointRegistry::Global().Clear();
  EXPECT_NE(report.find("NBMatcher: Internal: injected failure"),
            std::string::npos);
  EXPECT_EQ(FilesIn(options.checkpoint_dir + "/scores"),
            std::set<std::string>{"FacultyMatch.DTMatcher.json"});
  // The unsupported cell never consults the cache.
  EXPECT_EQ(run.misses(), 2u);
}

// ---------------------------------------------------------------------------
// The run store's memo

// Both modes over one memory-only store fit each supported matcher once, and
// each report matches a fresh three-argument report byte for byte.
TEST(RunStoreTest, BothModesOverOneStoreFitEachMatcherOnce) {
  RobustGuard guard;
  EMDataset ds = Faculty();
  GridRunOptions options;
  options.audit.reference = AuditReference::kComplement;
  const std::string single_expected = Report(ds, false, options);
  const std::string pairwise_expected = Report(ds, true, options);

  RunStore runs(options);
  CacheCounters run;
  const uint64_t unsupported_before =
      CounterValue("fairem.harness.unsupported_runs");
  EXPECT_EQ(Report(ds, false, options, &runs), single_expected);
  EXPECT_EQ(Report(ds, true, options, &runs), pairwise_expected);
  // Dedupe does not support FacultyMatch (Table 9's "-"): 12 fits, and the
  // unsupported run is kept like any other.
  EXPECT_EQ(run.fits(), AllMatcherKinds().size() - 1);
  EXPECT_EQ(CounterValue("fairem.harness.unsupported_runs"),
            unsupported_before + 1);
  // Memory only: scores/ is never consulted.
  EXPECT_EQ(run.misses(), 0u);
  EXPECT_EQ(run.hits(), 0u);

  // Asking again hands out the kept run, bit for bit RunMatcher's.
  const MatcherRun* nb = std::move(runs.Run(ds, MatcherKind::kNB)).value();
  EXPECT_EQ(std::move(runs.Run(ds, MatcherKind::kNB)).value(), nb);
  EXPECT_EQ(run.fits(), AllMatcherKinds().size() - 1);
  const MatcherRun fresh =
      std::move(RunMatcher(ds, MatcherKind::kNB, options.seed)).value();
  ASSERT_EQ(nb->test_scores.size(), fresh.test_scores.size());
  for (size_t i = 0; i < fresh.test_scores.size(); ++i) {
    EXPECT_EQ(Bits(nb->test_scores[i]), Bits(fresh.test_scores[i]));
  }

  // A forgotten run is fitted again on the next ask.
  const uint64_t fits_before = run.fits();
  runs.Forget(ds, MatcherKind::kNB);
  ASSERT_TRUE(runs.Run(ds, MatcherKind::kNB).ok());
  EXPECT_EQ(run.fits(), fits_before + 1);
}

// An injected fit error is retryable, so the store does not keep it: once
// the failpoint is cleared, the same store fits and succeeds.
TEST(RunStoreTest, RetryableFailureIsNotKept) {
  RobustGuard guard;
  EMDataset ds = Faculty();
  GridRunOptions options = SmallGridOptions();
  options.retry.max_attempts = 1;
  const std::string pairwise_expected = Report(ds, true, options);

  RunStore runs(options);
  ASSERT_TRUE(
      FailpointRegistry::Global().Configure("matcher_fit=error(1)").ok());
  Result<const MatcherRun*> failed = runs.Run(ds, MatcherKind::kDT);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(IsRetryableStatus(failed.status()));
  const std::string failed_report = Report(ds, false, options, &runs);
  FailpointRegistry::Global().Clear();
  EXPECT_NE(failed_report.find("DTMatcher: Internal: injected failure"),
            std::string::npos);

  CacheCounters run;
  ASSERT_TRUE(runs.Run(ds, MatcherKind::kDT).ok());
  EXPECT_EQ(Report(ds, true, options, &runs), pairwise_expected);
  EXPECT_EQ(run.fits(), 4u);
}

// With a directory the memo sits in front of scores/: a memo miss reads the
// entry and moves the hit, miss and stale counters as a report does, and a
// memo hit reads nothing.
TEST(RunStoreTest, MemoMissReadsTheScoresDirectory) {
  RobustGuard guard;
  EMDataset ds = Faculty();
  GridRunOptions options = SmallGridOptions();
  TempCheckpointDir dir("fairem_run_store");
  options.checkpoint_dir = dir.path();
  const MatcherRun fresh =
      std::move(RunMatcher(ds, MatcherKind::kDT, options.seed)).value();
  {
    RunStore first(options);
    CacheCounters run;
    ASSERT_TRUE(first.Run(ds, MatcherKind::kDT).ok());
    ASSERT_TRUE(first.Run(ds, MatcherKind::kDT).ok());
    EXPECT_EQ(run.misses(), 1u);
    EXPECT_EQ(run.hits(), 0u);
    EXPECT_EQ(run.fits(), 1u);
  }
  const std::string entry_path = ScorePath(options, ds, "DTMatcher");
  const std::string good = ReadFile(entry_path);
  {
    RunStore second(options);
    CacheCounters run;
    ASSERT_TRUE(
        FailpointRegistry::Global().Configure("matcher_fit=error(1)").ok());
    const MatcherRun* dt =
        std::move(second.Run(ds, MatcherKind::kDT)).value();
    ASSERT_TRUE(second.Run(ds, MatcherKind::kDT).ok());
    FailpointRegistry::Global().Clear();
    EXPECT_EQ(run.hits(), 1u);
    EXPECT_EQ(run.misses(), 0u);
    EXPECT_EQ(run.fits(), 0u);
    ASSERT_EQ(dt->test_scores.size(), fresh.test_scores.size());
    for (size_t i = 0; i < fresh.test_scores.size(); ++i) {
      EXPECT_EQ(Bits(dt->test_scores[i]), Bits(fresh.test_scores[i]));
    }
    EXPECT_EQ(dt->f1, fresh.f1);
  }
  ScoreCacheEntry other_seed = std::move(ScoreEntryFromJson(good)).value();
  other_seed.seed += 1;
  WriteFile(entry_path, ScoreEntryToJson(other_seed));
  RunStore third(options);
  CacheCounters run;
  ASSERT_TRUE(third.Run(ds, MatcherKind::kDT).ok());
  EXPECT_EQ(run.stale(), 1u);
  EXPECT_EQ(run.misses(), 1u);
  EXPECT_EQ(run.fits(), 1u);
  EXPECT_EQ(ReadFile(entry_path), good);
}


// ---------------------------------------------------------------------------
// The store's feature tables

/// Deltas of the table builds (BuildFeatureTable's histogram count, as the
/// benchmark's feature.builds_in_grid reads it) and of the store's table
/// counters over a scope.
class TableCounters {
 public:
  TableCounters()
      : builds_(Builds()),
        built_(CounterValue("fairem.harness.feature_tables_built")),
        reused_(CounterValue("fairem.harness.feature_tables_reused")) {}
  uint64_t builds() const { return Builds() - builds_; }
  uint64_t built() const {
    return CounterValue("fairem.harness.feature_tables_built") - built_;
  }
  uint64_t reused() const {
    return CounterValue("fairem.harness.feature_tables_reused") - reused_;
  }

 private:
  static uint64_t Builds() {
    return MetricsRegistry::Global()
        .GetHistogram("fairem.feature.build_table_seconds")
        ->count();
  }
  uint64_t builds_, built_, reused_;
};

/// Runs the pool at `n` threads in scope, so the forest's trees and the
/// table fill read shared tables from several threads.
class IntraJobsScope {
 public:
  explicit IntraJobsScope(int n) : saved_(IntraJobs()) { SetIntraJobs(n); }
  ~IntraJobsScope() { SetIntraJobs(saved_); }

 private:
  int saved_;
};

/// The seven matchers that fit on the generated similarity features.
const std::vector<MatcherKind> kFeatureKinds = {
    MatcherKind::kDedupe, MatcherKind::kDT,     MatcherKind::kSvm,
    MatcherKind::kRF,     MatcherKind::kLogReg, MatcherKind::kLinReg,
    MatcherKind::kNB};

/// A draw every feature-based matcher supports, Dedupe included.
EMDataset DblpAcm() {
  return std::move(GenerateDataset(DatasetKind::kDblpAcm, 0.25)).value();
}

GridRunOptions NonNeuralGridOptions() {
  GridRunOptions options;
  options.audit.reference = AuditReference::kComplement;
  options.skip = NeuralMatcherKinds();
  return options;
}

// One store runs all seven feature kinds on one dataset off one train and
// one test table, with RunMatcher's scores bit for bit.
TEST(RunStoreTest, SevenFeatureMatchersShareOnePairOfTables) {
  RobustGuard guard;
  IntraJobsScope threads(4);
  EMDataset ds = DblpAcm();
  RunStore runs;
  TableCounters tables;
  for (MatcherKind kind : kFeatureKinds) {
    SCOPED_TRACE(MatcherKindName(kind));
    const MatcherRun* run = std::move(runs.Run(ds, kind)).value();
    ASSERT_TRUE(run->supported);
    const MatcherRun fresh = std::move(RunMatcher(ds, kind)).value();
    ASSERT_EQ(run->test_scores.size(), fresh.test_scores.size());
    for (size_t i = 0; i < fresh.test_scores.size(); ++i) {
      EXPECT_EQ(Bits(run->test_scores[i]), Bits(fresh.test_scores[i]));
    }
  }
  // RunMatcher without a store builds its own pair for each of the seven.
  EXPECT_EQ(tables.builds(), 2u + 2u * kFeatureKinds.size());
  EXPECT_EQ(tables.built(), 2u);
  EXPECT_EQ(tables.reused(), 2u * kFeatureKinds.size());

  // A refit after Forget reuses the kept tables.
  runs.Forget(ds, MatcherKind::kNB);
  TableCounters refit;
  ASSERT_TRUE(runs.Run(ds, MatcherKind::kNB).ok());
  EXPECT_EQ(refit.builds(), 0u);
  EXPECT_EQ(refit.reused(), 2u);
}

// A supervised report builds the tables once, in the parent before the
// fork, and its forked workers fit on them: the snapshot's merged build
// count is 2, as in the sequential report, whose bytes it renders.
TEST(RunStoreTest, SupervisedReportBuildsTheTablesInTheParent) {
  RobustGuard guard;
  EMDataset ds = Faculty();
  GridRunOptions options = NonNeuralGridOptions();
  TableCounters sequential;
  const std::string expected = Report(ds, false, options);
  EXPECT_EQ(sequential.builds(), 2u);
  EXPECT_EQ(sequential.built(), 2u);
  // Dedupe does not support FacultyMatch: six fits and six predicts.
  EXPECT_EQ(sequential.reused(), 12u);

  options.jobs = 2;
  TableCounters supervised;
  EXPECT_EQ(Report(ds, false, options), expected);
  EXPECT_EQ(supervised.builds(), 2u);
  EXPECT_EQ(supervised.built(), 2u);
  EXPECT_EQ(supervised.reused(), 12u);
}

// Feature cells that all hit scores/ build no table, sequentially and
// before a fork.
TEST(RunStoreTest, ReportOfStoredScoresBuildsNoTable) {
  RobustGuard guard;
  EMDataset ds = Faculty();
  GridRunOptions options = NonNeuralGridOptions();
  const std::string single_expected = Uncached(ds, false, options);
  const std::string pairwise_expected = Uncached(ds, true, options);
  TempCheckpointDir dir("fairem_scores_tables");
  options.checkpoint_dir = dir.path();
  Report(ds, false, options);

  // The pairwise cells are new, and each of their runs is a scores/ hit.
  CacheCounters sequential_cache;
  TableCounters sequential;
  EXPECT_EQ(Report(ds, true, options), pairwise_expected);
  EXPECT_EQ(sequential_cache.fits(), 0u);
  EXPECT_EQ(sequential.builds(), 0u);
  EXPECT_EQ(sequential.built(), 0u);

  // So are the single cells of a supervised report once their files are
  // gone.
  for (MatcherKind kind : AllMatcherKinds()) {
    std::filesystem::remove(options.checkpoint_dir + "/" +
                            AuditCellKey(ds.name, kind, false) + ".json");
  }
  options.jobs = 2;
  CacheCounters supervised_cache;
  TableCounters supervised;
  EXPECT_EQ(Report(ds, false, options), single_expected);
  EXPECT_EQ(supervised_cache.fits(), 0u);
  EXPECT_EQ(supervised.builds(), 0u);
  EXPECT_EQ(supervised.built(), 0u);
}

// PredictScores reads the test table only for the fitted dataset's own
// test split. Any other pair list, even an equal copy of it, gets a table
// of its own, and scores every pair as ScorePair does, bit for bit; with
// shared tables as with the matcher's own.
TEST(RunStoreTest, OtherPairListsScoreAsScorePair) {
  IntraJobsScope threads(4);
  EMDataset ds = DblpAcm();
  const DatasetFeatures shared = std::move(BuildDatasetFeatures(ds)).value();
  // No record twice, so Dedupe's clustering pass lifts no score.
  std::vector<LabeledPair> distinct;
  std::set<size_t> lefts, rights;
  for (const LabeledPair& p : ds.test) {
    if (lefts.insert(p.left).second && rights.insert(p.right).second) {
      distinct.push_back(p);
    }
  }
  ASSERT_GE(distinct.size(), 20u);
  const std::vector<LabeledPair> test_copy = ds.test;
  for (bool share : {false, true}) {
    for (MatcherKind kind : kFeatureKinds) {
      SCOPED_TRACE(std::string(MatcherKindName(kind)) +
                   (share ? " shared" : " own"));
      std::unique_ptr<Matcher> matcher = CreateMatcher(kind);
      if (share) {
        static_cast<FeatureClassifierMatcher*>(matcher.get())
            ->ShareFeatures(&shared);
      }
      Rng rng(1234);
      ASSERT_TRUE(matcher->Fit(ds, &rng).ok());
      const std::vector<double> from_table =
          std::move(matcher->PredictScores(ds, ds.test)).value();
      const std::vector<double> from_copy =
          std::move(matcher->PredictScores(ds, test_copy)).value();
      ASSERT_EQ(from_copy.size(), from_table.size());
      for (size_t i = 0; i < from_table.size(); ++i) {
        EXPECT_EQ(Bits(from_copy[i]), Bits(from_table[i]));
      }
      const std::vector<double> scores =
          std::move(matcher->PredictScores(ds, distinct)).value();
      ASSERT_EQ(scores.size(), distinct.size());
      for (size_t i = 0; i < distinct.size(); ++i) {
        const double one = std::move(matcher->ScorePair(
                                         ds, distinct[i].left,
                                         distinct[i].right))
                               .value();
        EXPECT_EQ(Bits(scores[i]), Bits(one));
      }
    }
  }
}

}  // namespace
}  // namespace fairem
