#include "src/matcher/matcher.h"

#include <gtest/gtest.h>

#include "src/matcher/dedupe_matcher.h"
#include "src/matcher/ml_matchers.h"
#include "src/matcher/rule_matcher.h"
#include "src/matcher/serialize.h"

namespace fairem {
namespace {

/// A tiny structured matching task with an obvious decision boundary.
EMDataset TinyTask() {
  Schema schema = std::move(Schema::Make({"name", "city", "grp"})).value();
  EMDataset ds;
  ds.name = "tiny";
  ds.table_a = Table("a", schema);
  ds.table_b = Table("b", schema);
  const char* names[] = {"alice brown", "bob smith",   "carla jones",
                         "dan kim",     "erin oneil",  "frank potter",
                         "gina rossi",  "hank turner", "iris vogel",
                         "jack walsh"};
  const char* cities[] = {"rochester", "chicago", "boston", "albany",
                          "denver",    "austin",  "miami",  "seattle",
                          "portland",  "tucson"};
  for (int i = 0; i < 10; ++i) {
    std::string g = i % 2 == 0 ? "g0" : "g1";
    EXPECT_TRUE(ds.table_a.AppendValues(i, {names[i], cities[i], g}).ok());
    // B-side: same name with a small typo.
    std::string noisy = std::string(names[i]);
    noisy[noisy.size() / 2] = 'x';
    EXPECT_TRUE(ds.table_b.AppendValues(i, {noisy, cities[i], g}).ok());
  }
  ds.matching_attrs = {"name", "city"};
  ds.sensitive_attr = "grp";
  std::vector<LabeledPair> pairs;
  for (size_t i = 0; i < 10; ++i) {
    pairs.push_back({i, i, true});
    pairs.push_back({i, (i + 3) % 10, false});
    pairs.push_back({i, (i + 5) % 10, false});
  }
  // Same pairs in train and test: the point is exercising the machinery.
  ds.train = pairs;
  ds.test = pairs;
  return ds;
}

TEST(RegistryTest, NamesAndFamiliesForAll13) {
  std::vector<MatcherKind> kinds = AllMatcherKinds();
  EXPECT_EQ(kinds.size(), 13u);
  int neural = 0;
  int non_neural = 0;
  int rule = 0;
  for (MatcherKind kind : kinds) {
    std::unique_ptr<Matcher> m = CreateMatcher(kind);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->name(), MatcherKindName(kind));
    EXPECT_EQ(m->family(), FamilyOf(kind));
    switch (m->family()) {
      case MatcherFamily::kNeural:
        ++neural;
        break;
      case MatcherFamily::kNonNeural:
        ++non_neural;
        break;
      case MatcherFamily::kRuleBased:
        ++rule;
        break;
    }
  }
  // Table 3: 1 rule-based, 7 non-neural, 5 neural.
  EXPECT_EQ(rule, 1);
  EXPECT_EQ(non_neural, 7);
  EXPECT_EQ(neural, 5);
  EXPECT_EQ(NeuralMatcherKinds().size(), 5u);
}

TEST(RegistryTest, ParseMatcherKindInvertsNames) {
  for (MatcherKind kind : AllMatcherKinds()) {
    Result<MatcherKind> parsed = ParseMatcherKind(MatcherKindName(kind));
    ASSERT_TRUE(parsed.ok()) << MatcherKindName(kind);
    EXPECT_EQ(*parsed, kind);
  }
  Result<MatcherKind> unknown = ParseMatcherKind("ditto");
  ASSERT_TRUE(unknown.status().IsNotFound());
  EXPECT_EQ(unknown.status().message(), "unknown matcher 'ditto'");
}

class MatcherContract : public ::testing::TestWithParam<MatcherKind> {};

TEST_P(MatcherContract, FitPredictOnTinyTask) {
  EMDataset ds = TinyTask();
  std::unique_ptr<Matcher> matcher = CreateMatcher(GetParam());
  if (!matcher->SupportsDataset(ds)) GTEST_SKIP();
  Rng rng(77);
  ASSERT_TRUE(matcher->Fit(ds, &rng).ok()) << matcher->name();
  Result<std::vector<double>> scores = matcher->PredictScores(ds, ds.test);
  ASSERT_TRUE(scores.ok()) << matcher->name();
  ASSERT_EQ(scores->size(), ds.test.size());
  double match_mean = 0.0;
  double non_match_mean = 0.0;
  int n_match = 0;
  int n_non = 0;
  for (size_t i = 0; i < ds.test.size(); ++i) {
    double s = (*scores)[i];
    EXPECT_GE(s, 0.0) << matcher->name();
    EXPECT_LE(s, 1.0) << matcher->name();
    if (ds.test[i].is_match) {
      match_mean += s;
      ++n_match;
    } else {
      non_match_mean += s;
      ++n_non;
    }
  }
  // On this trivially separable task every matcher must at least rank
  // matches above non-matches on average.
  EXPECT_GT(match_mean / n_match, non_match_mean / n_non) << matcher->name();
}

TEST_P(MatcherContract, ScoreBeforeFitFails) {
  EMDataset ds = TinyTask();
  std::unique_ptr<Matcher> matcher = CreateMatcher(GetParam());
  Result<double> score = matcher->ScorePair(ds, 0, 0);
  EXPECT_FALSE(score.ok()) << matcher->name();
}

INSTANTIATE_TEST_SUITE_P(
    All13, MatcherContract, ::testing::ValuesIn(AllMatcherKinds()),
    [](const auto& info) { return std::string(MatcherKindName(info.param)); });

TEST(RuleMatcherTest, AutoRulesCoverEveryAttr) {
  EMDataset ds = TinyTask();
  BooleanRuleMatcher matcher;
  Rng rng(1);
  ASSERT_TRUE(matcher.Fit(ds, &rng).ok());
  EXPECT_EQ(matcher.predicates().size(), ds.matching_attrs.size());
}

TEST(RuleMatcherTest, UserRulesAreKept) {
  EMDataset ds = TinyTask();
  BooleanRuleMatcher matcher(
      {{"city", SimilarityMeasure::kExactMatch, 1.0}});
  Rng rng(1);
  ASSERT_TRUE(matcher.Fit(ds, &rng).ok());
  ASSERT_EQ(matcher.predicates().size(), 1u);
  // Same city -> score 1; different city -> below 0.5 contribution rules.
  EXPECT_DOUBLE_EQ(*matcher.ScorePair(ds, 0, 0), 1.0);
  EXPECT_LT(*matcher.ScorePair(ds, 0, 3), 1.0);
}

TEST(RuleMatcherTest, ConjunctionTakesMinimum) {
  EMDataset ds = TinyTask();
  BooleanRuleMatcher matcher({{"name", SimilarityMeasure::kLevenshtein, 0.5},
                              {"city", SimilarityMeasure::kExactMatch, 1.0}});
  Rng rng(1);
  ASSERT_TRUE(matcher.Fit(ds, &rng).ok());
  // Pair (0, 3): different name and city; score is the min predicate score.
  double score = *matcher.ScorePair(ds, 0, 3);
  EXPECT_LT(score, 0.5);
}

TEST(DedupeMatcherTest, DeclaresUnscalableDatasets) {
  DedupeMatcher matcher;
  EMDataset small = TinyTask();
  EXPECT_TRUE(matcher.SupportsDataset(small));
  // Too many rows.
  EMDataset big = TinyTask();
  for (int i = 10; i < static_cast<int>(DedupeMatcher::kMaxRows) + 11; ++i) {
    ASSERT_TRUE(big.table_a.AppendValues(i, {"x", "y", "g0"}).ok());
  }
  EXPECT_FALSE(matcher.SupportsDataset(big));
  EXPECT_FALSE(matcher.Fit(big, nullptr).ok());
}

TEST(DedupeMatcherTest, ClusteringLiftsTransitivePairs) {
  EMDataset ds = TinyTask();
  DedupeMatcher matcher;
  Rng rng(9);
  ASSERT_TRUE(matcher.Fit(ds, &rng).ok());
  Result<std::vector<double>> scores = matcher.PredictScores(ds, ds.test);
  ASSERT_TRUE(scores.ok());
  // Pairs in the same single-linkage cluster score at least the linkage
  // threshold; at minimum the call must succeed and stay in bounds.
  for (double s : *scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(SerializeTest, DittoStyleTokens) {
  EMDataset ds = TinyTask();
  Result<std::vector<std::string>> tokens =
      SerializeRecord(ds.table_a, 0, {"name", "city"});
  ASSERT_TRUE(tokens.ok());
  // [col] name [val] alice brown [col] city [val] rochester
  ASSERT_GE(tokens->size(), 8u);
  EXPECT_EQ((*tokens)[0], "[col]");
  EXPECT_EQ((*tokens)[1], "name");
  EXPECT_EQ((*tokens)[2], "[val]");
  EXPECT_EQ((*tokens)[3], "alice");
}

TEST(SerializeTest, NullCellsSerializeToNoValueTokens) {
  Schema schema = std::move(Schema::Make({"a"})).value();
  Table t("t", schema);
  Record r;
  r.entity_id = 0;
  r.cells = {std::nullopt};
  ASSERT_TRUE(t.Append(std::move(r)).ok());
  Result<std::vector<std::string>> tokens = SerializeRecord(t, 0, {"a"});
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens->size(), 3u);  // just [col] a [val]
  Result<std::vector<std::string>> attr_tokens = AttributeTokens(t, 0, "a");
  ASSERT_TRUE(attr_tokens.ok());
  EXPECT_TRUE(attr_tokens->empty());
}

TEST(MatcherFamilyTest, Names) {
  EXPECT_STREQ(MatcherFamilyName(MatcherFamily::kRuleBased), "rule-based");
  EXPECT_STREQ(MatcherFamilyName(MatcherFamily::kNeural), "neural");
}

}  // namespace
}  // namespace fairem
