// Pins the exact bits of the feature-based matchers' inputs and outputs: the
// train and test feature tables every one of them fits and predicts on, and
// the test scores of Dedupe and the six classifiers. Any change to feature
// generation, the prepared-text kernels, the table fill, a classifier or the
// way the tables reach a matcher that moves one bit fails here.
//
// Each dataset is drawn at datagen seed 0 and every matcher fit with seed
// 1234. Pinned per dataset, as FNV-1a digests over std::bit_cast<uint64_t>
// bits:
//   train, test  BuildFeatureTable over the dataset's GenerateFeatures defs
//                and its train or test split: row count, every value, then
//                the labels, built at --intra_jobs 1 and again at 4;
//   scores       a MatcherRun's test scores (PredictScores on every test
//                pair; the empty list for an unsupported matcher), taken
//                two ways that must agree: RunMatcher without a store at
//                --intra_jobs 1, and one RunStore shared by every dataset
//                and matcher at --intra_jobs 4.
// To re-pin after an intended change, run the test and copy the "actual"
// values it prints.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "src/datagen/benchmark_suite.h"
#include "src/feature/feature_gen.h"
#include "src/harness/experiment.h"
#include "src/util/thread_pool.h"

namespace fairem {
namespace {

constexpr uint64_t kMatcherSeed = 1234;

/// The seven matchers that fit on the generated similarity features.
const MatcherKind kFeatureKinds[] = {
    MatcherKind::kDedupe, MatcherKind::kDT,     MatcherKind::kSvm,
    MatcherKind::kRF,     MatcherKind::kLogReg, MatcherKind::kLinReg,
    MatcherKind::kNB,
};
constexpr size_t kNumFeatureKinds = std::size(kFeatureKinds);

struct Pinned {
  DatasetKind dataset;
  double scale;
  uint64_t train;
  uint64_t test;
  uint64_t scores[kNumFeatureKinds];  // in kFeatureKinds order
};

const Pinned kPinned[] = {
    {DatasetKind::kDblpAcm, 0.25,
     0xff59fecfea014565ULL, 0x6a191a7335b35dbbULL,
     {0x2f01b961dba36b53ULL, 0x1e5739b8cb024ca5ULL,
      0x78e55c39fbd01864ULL, 0xe86bd9fa52113117ULL,
      0x6cde7fe4df4ba5fdULL, 0x01ef4c6bfe44d197ULL,
      0xb45a6c1c04f5378dULL}},
    {DatasetKind::kItunesAmazon, 1.0,
     0x81dc7d9ed4a203a6ULL, 0x43ea72c2441dfe1cULL,
     {0xb06f0a398dc12c66ULL, 0x2f3c449b1ac51385ULL,
      0x60c7ff3eb4209c39ULL, 0x916237f3095dc997ULL,
      0x5f839bfdd7dc8041ULL, 0x3df01fe8cb4e0cb3ULL,
      0x0f694a09b35717afULL}},
    {DatasetKind::kNoFlyCompas, 0.5,
     0x7d3d30fe8e050d8cULL, 0xa43e369dc32174bbULL,
     {0xcbf29ce484222325ULL, 0xa0621eedf93627b8ULL,
      0x96e3185c60d89d5cULL, 0x8e1d8b89fd366b43ULL,
      0xe851486ed6a8446eULL, 0xa4cbf21875fc8da3ULL,
      0x83f18e6977238607ULL}},
    {DatasetKind::kFacultyMatch, 0.5,
     0xd5827e5851d01b6bULL, 0x13de25441b0d1deeULL,
     {0xcbf29ce484222325ULL, 0x898745674bc7f565ULL,
      0x9946a7b1d3db6fd1ULL, 0x43d0184d70c3075dULL,
      0x02f91ba53655d2b5ULL, 0x3db00bf7c58bd8f0ULL,
      0x1d1b3718e5ba13ffULL}},
    {DatasetKind::kDblpScholar, 0.25,
     0x4853a046d991b062ULL, 0x6ed69bc2aec1c985ULL,
     {0x8f6bdb46a07f0d01ULL, 0x50df2fd95d98d038ULL,
      0x0ea90c1548ab37d7ULL, 0xc8d029734e746e8bULL,
      0xba6c03797632db71ULL, 0x71449f484cc8bbbcULL,
      0xd95319ffb9c371e6ULL}},
    {DatasetKind::kCricket, 2.0,
     0xe2863dffa487273cULL, 0x87ba756cc865a7e7ULL,
     {0x2626a9e0a39b9114ULL, 0xbf925658eb90f505ULL,
      0xc0007f10a8e87d51ULL, 0x501a5fd6b08be7fdULL,
      0x0b7dde0b1adc4f6bULL, 0xcaf8abffc534a5d9ULL,
      0x86c0f801e36c71d1ULL}},
};

/// FNV-1a, fed 64-bit words byte by byte, little end first.
class Fnv1a {
 public:
  void Add(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (word >> (8 * byte)) & 0xffULL;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(double v) { Add(std::bit_cast<uint64_t>(v)); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

uint64_t Digest(const std::vector<double>& scores) {
  Fnv1a h;
  for (double s : scores) h.Add(s);
  return h.value();
}

uint64_t Digest(const FeatureTable& table) {
  Fnv1a h;
  h.Add(static_cast<uint64_t>(table.rows.size()));
  for (const auto& row : table.rows) {
    for (double v : row) h.Add(v);
  }
  for (int label : table.labels) h.Add(static_cast<uint64_t>(label));
  return h.value();
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Restores the process-wide intra_jobs knob on scope exit.
class IntraJobsGuard {
 public:
  IntraJobsGuard() : saved_(IntraJobs()) {}
  ~IntraJobsGuard() { SetIntraJobs(saved_); }

 private:
  int saved_;
};

EMDataset Draw(const Pinned& pin) {
  return std::move(GenerateDataset(pin.dataset, pin.scale)).value();
}

std::string Label(const Pinned& pin) {
  return std::string(DatasetKindName(pin.dataset)) + " x" +
         std::to_string(pin.scale);
}

TEST(FeatureBitsTest, TablesMatchThePinnedDigests) {
  IntraJobsGuard guard;
  for (const Pinned& pin : kPinned) {
    SCOPED_TRACE(Label(pin));
    const EMDataset ds = Draw(pin);
    const std::vector<FeatureDef> defs =
        std::move(GenerateFeatures(ds.table_a, ds.table_b,
                                   ds.matching_attrs))
            .value();
    for (int intra_jobs : {1, 4}) {
      SCOPED_TRACE("intra_jobs " + std::to_string(intra_jobs));
      SetIntraJobs(intra_jobs);
      Result<FeatureTable> train =
          BuildFeatureTable(defs, ds.table_a, ds.table_b, ds.train);
      Result<FeatureTable> test =
          BuildFeatureTable(defs, ds.table_a, ds.table_b, ds.test);
      ASSERT_TRUE(train.ok()) << train.status().ToString();
      ASSERT_TRUE(test.ok()) << test.status().ToString();
      EXPECT_EQ(Digest(*train), pin.train)
          << "actual train " << Hex(Digest(*train));
      EXPECT_EQ(Digest(*test), pin.test)
          << "actual test " << Hex(Digest(*test));
    }
  }
}

TEST(FeatureBitsTest, ScoresMatchThePinnedDigestsWithAndWithoutAStore) {
  IntraJobsGuard guard;
  GridRunOptions options;
  options.seed = kMatcherSeed;
  RunStore shared(options);
  for (const Pinned& pin : kPinned) {
    const EMDataset ds = Draw(pin);
    for (size_t k = 0; k < kNumFeatureKinds; ++k) {
      SCOPED_TRACE(Label(pin) + " / " + MatcherKindName(kFeatureKinds[k]));
      SetIntraJobs(1);
      Result<MatcherRun> alone = RunMatcher(ds, kFeatureKinds[k], kMatcherSeed);
      ASSERT_TRUE(alone.ok()) << alone.status().ToString();
      SetIntraJobs(4);
      Result<const MatcherRun*> stored = shared.Run(ds, kFeatureKinds[k]);
      ASSERT_TRUE(stored.ok()) << stored.status().ToString();
      const uint64_t digest = Digest(alone->test_scores);
      EXPECT_EQ(digest, pin.scores[k]) << "actual scores " << Hex(digest);
      EXPECT_EQ(Digest((*stored)->test_scores), digest);
      EXPECT_EQ((*stored)->supported, alone->supported);
    }
  }
}

}  // namespace
}  // namespace fairem
