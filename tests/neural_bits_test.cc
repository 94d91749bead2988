// Pins the exact score bits of the five neural matchers. Any change to an
// encoder, the embedding table or the head that moves one bit of one score
// fails here, so a refactor that claims "same output" is checked in-tree.
//
// Each matcher is fit on a paper dataset at x0.25 (datagen seed 0, matcher
// seed 1234). Three FNV-1a digests over the std::bit_cast<uint64_t> bits of
// the scores are pinned per (dataset, matcher):
//   predict    PredictScores on every test pair;
//   score_pair ScorePair on the first 10 test pairs;
//   foreign    ScorePair on the first 10 test pairs of a second draw
//              (datagen seed 1), a dataset the matcher was not fit on.
// To re-pin after an intended change, run the test and copy the "actual"
// values it prints.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/datagen/benchmark_suite.h"
#include "src/matcher/matcher.h"
#include "src/util/rng.h"

namespace fairem {
namespace {

constexpr double kScale = 0.25;
constexpr uint64_t kForeignSeed = 1;
constexpr size_t kScorePairs = 10;

struct Pinned {
  DatasetKind dataset;
  MatcherKind matcher;
  uint64_t predict;
  uint64_t score_pair;
  uint64_t foreign;
};

const Pinned kPinned[] = {
    {DatasetKind::kDblpAcm, MatcherKind::kDeepMatcher,
     0x90525c6d1554c915ULL, 0xe20edaab7c646809ULL, 0xf06110fcecf48c39ULL},
    {DatasetKind::kDblpAcm, MatcherKind::kDitto,
     0x5fcea8ff657b9458ULL, 0xa3fe07be91eadbd5ULL, 0x0d0890bac4cfe775ULL},
    {DatasetKind::kDblpAcm, MatcherKind::kGnem,
     0xc120fa12baf4ea6eULL, 0xa51e340ea5a4e870ULL, 0xba7bb3d1d142e7f5ULL},
    {DatasetKind::kDblpAcm, MatcherKind::kHierMatcher,
     0x73fa25835cedf808ULL, 0x0fa52b5f78b4dbf8ULL, 0x26501b56e79854faULL},
    {DatasetKind::kDblpAcm, MatcherKind::kMcan,
     0xabc591de7afbfb77ULL, 0x499e68dce2a343d5ULL, 0x17ae9cbfa94bbd22ULL},
    {DatasetKind::kDblpScholar, MatcherKind::kDeepMatcher,
     0xd29f65876fbab51cULL, 0xa41d232a921e70c0ULL, 0x832270a4f086da71ULL},
    {DatasetKind::kDblpScholar, MatcherKind::kDitto,
     0xc158d0093833a7b6ULL, 0xc701b3a428c43a2bULL, 0xda7677027b51b081ULL},
    {DatasetKind::kDblpScholar, MatcherKind::kGnem,
     0x66710cb8ebdd5b2bULL, 0x6ac5c81604f5933dULL, 0xced38d1777d7b267ULL},
    {DatasetKind::kDblpScholar, MatcherKind::kHierMatcher,
     0xec4c7096ab9bea73ULL, 0x5b5d8b837a5462c4ULL, 0x2195fd5fa918e6c0ULL},
    {DatasetKind::kDblpScholar, MatcherKind::kMcan,
     0x8c1e7768e25e5528ULL, 0x2085639bc8f64a8cULL, 0xf4d49bbff0b96152ULL},
    {DatasetKind::kItunesAmazon, MatcherKind::kDeepMatcher,
     0x0bf5f12cff07cff5ULL, 0x9cbfd7db5510b690ULL, 0x2ad47a4989b1f1beULL},
    {DatasetKind::kItunesAmazon, MatcherKind::kDitto,
     0x536cc61383d917ccULL, 0x0f1a52b5b4db2057ULL, 0xc2839650c4d0e5a4ULL},
    {DatasetKind::kItunesAmazon, MatcherKind::kGnem,
     0xe813d43a6d128b4eULL, 0xa5fa156722f1796dULL, 0xee40b7a389da12feULL},
    {DatasetKind::kItunesAmazon, MatcherKind::kHierMatcher,
     0x8989163a9bfd236cULL, 0x7038f8eec133b712ULL, 0x24e42f904adb0bb9ULL},
    {DatasetKind::kItunesAmazon, MatcherKind::kMcan,
     0x12d98aca144760d1ULL, 0xad3e5dc8af49f95dULL, 0xc209fe41f0742a6aULL},
};

/// FNV-1a over the little-endian bytes of each score's bit pattern.
uint64_t Digest(const std::vector<double>& scores) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (double s : scores) {
    const uint64_t bits = std::bit_cast<uint64_t>(s);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

/// ScorePair on the first `kScorePairs` test pairs of `dataset`.
std::vector<double> ScoreFirstPairs(const Matcher& matcher,
                                    const EMDataset& dataset) {
  std::vector<double> scores;
  const size_t n = std::min(kScorePairs, dataset.test.size());
  for (size_t i = 0; i < n; ++i) {
    Result<double> score = matcher.ScorePair(dataset, dataset.test[i].left,
                                             dataset.test[i].right);
    EXPECT_TRUE(score.ok()) << score.status().ToString();
    scores.push_back(score.ok() ? *score : -1.0);
  }
  return scores;
}

TEST(NeuralBitsTest, ScoresMatchThePinnedDigests) {
  std::optional<DatasetKind> loaded;
  EMDataset dataset;
  EMDataset foreign;
  for (const Pinned& pin : kPinned) {
    SCOPED_TRACE(std::string(DatasetKindName(pin.dataset)) + " / " +
                 MatcherKindName(pin.matcher));
    if (loaded != pin.dataset) {
      dataset = std::move(GenerateDataset(pin.dataset, kScale)).value();
      foreign = std::move(GenerateDataset(pin.dataset, kScale, kForeignSeed))
                    .value();
      loaded = pin.dataset;
    }
    std::unique_ptr<Matcher> matcher = CreateMatcher(pin.matcher);
    Rng rng(1234);
    ASSERT_TRUE(matcher->Fit(dataset, &rng).ok());
    Result<std::vector<double>> predicted =
        matcher->PredictScores(dataset, dataset.test);
    ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
    ASSERT_EQ(predicted->size(), dataset.test.size());
    const uint64_t predict = Digest(*predicted);
    const uint64_t score_pair = Digest(ScoreFirstPairs(*matcher, dataset));
    const uint64_t foreign_pairs = Digest(ScoreFirstPairs(*matcher, foreign));
    EXPECT_EQ(predict, pin.predict) << "actual predict " << Hex(predict);
    EXPECT_EQ(score_pair, pin.score_pair)
        << "actual score_pair " << Hex(score_pair);
    EXPECT_EQ(foreign_pairs, pin.foreign)
        << "actual foreign " << Hex(foreign_pairs);
  }
}

}  // namespace
}  // namespace fairem
