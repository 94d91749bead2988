#include "src/util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "src/datagen/benchmark_suite.h"
#include "src/feature/feature_gen.h"
#include "src/matcher/matcher.h"
#include "src/ml/random_forest.h"
#include "src/util/rng.h"

namespace fairem {
namespace {

/// Restores the process-wide intra_jobs knob so a test can't leak its pool
/// size into the rest of the suite.
class IntraJobsGuard {
 public:
  IntraJobsGuard() : saved_(IntraJobs()) {}
  ~IntraJobsGuard() { SetIntraJobs(saved_); }

 private:
  int saved_;
};

TEST(ThreadPoolTest, CoversRangeExactlyOncePerIndex) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.parallelism(), 4);
  const size_t n = 1000;
  std::vector<std::atomic<int>> touched(n);
  pool.ParallelFor(n, /*grain=*/7, [&](size_t begin, size_t end) {
    ASSERT_LE(begin, end);
    ASSERT_LE(end, n);
    for (size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(touched[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ZeroOneAndManyThreadsProduceIdenticalBytes) {
  const size_t n = 513;
  auto run = [&](int threads) {
    ThreadPool pool(threads);
    std::vector<uint64_t> out(n, 0);
    pool.ParallelFor(n, /*grain=*/0, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) out[i] = i * i + 1;
    });
    return out;
  };
  std::vector<uint64_t> seq = run(0);
  EXPECT_EQ(seq, run(1));
  EXPECT_EQ(seq, run(2));
  EXPECT_EQ(seq, run(8));
}

TEST(ThreadPoolTest, EmptyRangeNeverCallsBody) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 0, [&](size_t, size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, LowestChunkExceptionWins) {
  ThreadPool pool(4);
  // Every chunk of index >= 100 throws its begin index; the rethrown one
  // must be the lowest begin, whatever order workers hit them in.
  for (int trial = 0; trial < 5; ++trial) {
    try {
      pool.ParallelFor(1000, /*grain=*/10, [&](size_t begin, size_t) {
        if (begin >= 100) throw std::runtime_error(std::to_string(begin));
      });
      FAIL() << "expected ParallelFor to rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "100");
    }
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  EXPECT_FALSE(InParallelRegion());
  const size_t n = 64;
  std::vector<std::atomic<int>> touched(n * n);
  pool.ParallelFor(n, /*grain=*/1, [&](size_t obegin, size_t oend) {
    EXPECT_TRUE(InParallelRegion());
    for (size_t i = obegin; i < oend; ++i) {
      // The nested call must not re-enter the pool (deadlock) — it runs
      // inline on this worker.
      pool.ParallelFor(n, /*grain=*/1, [&](size_t begin, size_t end) {
        for (size_t j = begin; j < end; ++j) {
          touched[i * n + j].fetch_add(1);
        }
      });
    }
  });
  EXPECT_FALSE(InParallelRegion());
  for (size_t i = 0; i < n * n; ++i) EXPECT_EQ(touched[i].load(), 1);
}

TEST(ThreadPoolTest, ParallelForChunksReturnsLowestChunkError) {
  IntraJobsGuard guard;
  SetIntraJobs(4);
  for (int trial = 0; trial < 5; ++trial) {
    Status st =
        ParallelForChunks(1000, /*grain=*/10, [&](size_t begin, size_t) {
          if (begin >= 250) {
            return Status::InvalidArgument("chunk " + std::to_string(begin));
          }
          return Status::OK();
        });
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.message(), "chunk 250");
  }
}

TEST(ThreadPoolTest, ParallelForChunksOkWhenAllChunksOk) {
  IntraJobsGuard guard;
  SetIntraJobs(3);
  std::vector<int> out(100, 0);
  Status st = ParallelForChunks(out.size(), 0, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) out[i] = 1;
    return Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 100);
}

TEST(ThreadPoolTest, SetIntraJobsClampsAndResizesGlobalPool) {
  IntraJobsGuard guard;
  SetIntraJobs(0);
  EXPECT_EQ(IntraJobs(), 1);
  EXPECT_EQ(GlobalThreadPool().parallelism(), 1);
  SetIntraJobs(4);
  EXPECT_EQ(IntraJobs(), 4);
  EXPECT_EQ(GlobalThreadPool().parallelism(), 4);
}

/// The contract the whole PR rests on: the hot loops produce byte-identical
/// results for any --intra_jobs. Exercised end-to-end on a real generated
/// dataset through the feature table and the random forest.
TEST(ParallelDeterminismTest, FeatureTableIdenticalAcrossIntraJobs) {
  IntraJobsGuard guard;
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kDblpAcm, 0.35)).value();
  std::vector<FeatureDef> defs =
      std::move(GenerateFeatures(ds.table_a, ds.table_b, ds.matching_attrs))
          .value();
  auto build = [&](int intra_jobs) {
    SetIntraJobs(intra_jobs);
    return std::move(
               BuildFeatureTable(defs, ds.table_a, ds.table_b, ds.train))
        .value();
  };
  FeatureTable seq = build(1);
  FeatureTable par = build(4);
  ASSERT_EQ(seq.rows.size(), par.rows.size());
  EXPECT_EQ(seq.labels, par.labels);
  for (size_t i = 0; i < seq.rows.size(); ++i) {
    ASSERT_EQ(seq.rows[i].size(), par.rows[i].size());
    for (size_t f = 0; f < seq.rows[i].size(); ++f) {
      // Bitwise equality, not approximate: the parallel path must run the
      // exact same arithmetic.
      EXPECT_EQ(seq.rows[i][f], par.rows[i][f]) << "row " << i << " feat " << f;
    }
  }
}

TEST(ParallelDeterminismTest, RandomForestIdenticalAcrossIntraJobs) {
  IntraJobsGuard guard;
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kDblpAcm, 0.35)).value();
  std::vector<FeatureDef> defs =
      std::move(GenerateFeatures(ds.table_a, ds.table_b, ds.matching_attrs))
          .value();
  SetIntraJobs(1);
  FeatureTable train =
      std::move(BuildFeatureTable(defs, ds.table_a, ds.table_b, ds.train))
          .value();
  FeatureTable test =
      std::move(BuildFeatureTable(defs, ds.table_a, ds.table_b, ds.test))
          .value();
  auto fit_predict = [&](int intra_jobs) {
    SetIntraJobs(intra_jobs);
    RandomForest forest;
    Rng rng(1234);
    EXPECT_TRUE(forest.Fit(train.rows, train.labels, &rng).ok());
    return forest.PredictScores(test.rows);
  };
  std::vector<double> seq = fit_predict(1);
  std::vector<double> par = fit_predict(4);
  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i], par[i]) << "pair " << i;
  }
}

/// Neural predict reads each matcher's embedding table from every pool
/// thread, without a lock: the table must be read-only after Fit, and the
/// scores the same bits at any --intra_jobs.
TEST(ParallelDeterminismTest, NeuralPredictIdenticalAcrossIntraJobs) {
  IntraJobsGuard guard;
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kDblpAcm, 0.25)).value();
  for (MatcherKind kind : NeuralMatcherKinds()) {
    SCOPED_TRACE(MatcherKindName(kind));
    SetIntraJobs(1);
    std::unique_ptr<Matcher> matcher = CreateMatcher(kind);
    Rng rng(1234);
    ASSERT_TRUE(matcher->Fit(ds, &rng).ok());
    std::vector<double> seq =
        std::move(matcher->PredictScores(ds, ds.test)).value();
    SetIntraJobs(4);
    std::vector<double> par =
        std::move(matcher->PredictScores(ds, ds.test)).value();
    ASSERT_EQ(seq.size(), ds.test.size());
    ASSERT_EQ(seq.size(), par.size());
    for (size_t i = 0; i < seq.size(); ++i) {
      EXPECT_EQ(seq[i], par[i]) << "pair " << i;
    }
  }
}

}  // namespace
}  // namespace fairem
