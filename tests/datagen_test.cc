#include "src/datagen/benchmark_suite.h"

#include <gtest/gtest.h>

#include <set>

#include "src/datagen/names.h"
#include "src/datagen/perturb.h"
#include "src/text/edit_distance.h"

namespace fairem {
namespace {

TEST(PerturbTest, SingleEditDistanceAtMostOne) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    std::string out = PerturbString("jennifer", &rng);
    EXPECT_LE(LevenshteinDistance("jennifer", out), 1);
  }
}

TEST(PerturbTest, MultipleEditsBoundedByCount) {
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    std::string out = PerturbString("warehouse", &rng, 3);
    EXPECT_LE(LevenshteinDistance("warehouse", out), 3);
  }
}

TEST(PerturbTest, EmptyStringGrowsByInsertion) {
  Rng rng(3);
  std::string out = PerturbString("", &rng);
  EXPECT_EQ(out.size(), 1u);
}

TEST(PerturbTest, MaybePerturbRespectsProbability) {
  Rng rng(4);
  int changed = 0;
  for (int i = 0; i < 1000; ++i) {
    if (MaybePerturb("sample", 0.3, &rng) != "sample") ++changed;
  }
  // Some edits are no-ops (replace with the same letter), so the observed
  // rate sits slightly below 0.3.
  EXPECT_NEAR(changed / 1000.0, 0.29, 0.05);
}

TEST(NamesTest, PoolPropertiesBehindTheMechanisms) {
  // The concentrated pools that drive the social-data findings.
  EXPECT_LE(CommonBlackSurnames().size(), 10u);
  EXPECT_GE(BroadSurnames().size(), 80u);
  EXPECT_GE(GermanSurnames().size(), 60u);
  EXPECT_LE(ChineseGivenSyllables().size(), 40u);
}

TEST(NamesTest, GeneratorsAreDeterministic) {
  Rng a(10);
  Rng b(10);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(ChineseFullName(&a), ChineseFullName(&b));
  }
}

TEST(NamesTest, ChineseNamesClusterMoreThanGerman) {
  // Condition (a) of §5.1.2: higher intra-group name similarity.
  Rng rng(42);
  std::vector<std::string> cn;
  std::vector<std::string> de;
  for (int i = 0; i < 60; ++i) {
    cn.push_back(ChineseFullName(&rng));
    de.push_back(GermanFullName(&rng));
  }
  auto mean_top_sim = [](const std::vector<std::string>& names) {
    double total = 0.0;
    for (size_t i = 0; i < names.size(); ++i) {
      double best = 0.0;
      for (size_t j = 0; j < names.size(); ++j) {
        if (i == j) continue;
        best = std::max(best, JaroWinklerSimilarity(names[i], names[j]));
      }
      total += best;
    }
    return total / static_cast<double>(names.size());
  };
  EXPECT_GT(mean_top_sim(cn), mean_top_sim(de));
}

class GeneratorContract : public ::testing::TestWithParam<DatasetKind> {};

TEST_P(GeneratorContract, SmallScaleDatasetIsValid) {
  Result<EMDataset> ds = GenerateDataset(GetParam(), /*scale=*/0.3);
  ASSERT_TRUE(ds.ok()) << ds.status();
  EXPECT_TRUE(ds->Validate().ok());
  EXPECT_GT(ds->table_a.num_rows(), 0u);
  EXPECT_GT(ds->table_b.num_rows(), 0u);
  EXPECT_FALSE(ds->test.empty());
  // Both labels present.
  double pos = ds->PositiveRate();
  EXPECT_GT(pos, 0.0) << ds->name;
  EXPECT_LT(pos, 1.0) << ds->name;
  // No duplicate pairs across the whole labelled set.
  std::set<std::pair<size_t, size_t>> seen;
  for (const auto& p : ds->AllPairs()) {
    EXPECT_TRUE(seen.insert({p.left, p.right}).second)
        << ds->name << " duplicate pair " << p.left << "," << p.right;
  }
}

TEST_P(GeneratorContract, DeterministicForSeed) {
  Result<EMDataset> a = GenerateDataset(GetParam(), 0.3, /*seed_offset=*/5);
  Result<EMDataset> b = GenerateDataset(GetParam(), 0.3, /*seed_offset=*/5);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->table_a.num_rows(), b->table_a.num_rows());
  for (size_t r = 0; r < a->table_a.num_rows(); ++r) {
    for (size_t c = 0; c < a->table_a.schema().num_attributes(); ++c) {
      EXPECT_EQ(a->table_a.value(r, c), b->table_a.value(r, c));
    }
  }
  ASSERT_EQ(a->test.size(), b->test.size());
}

TEST_P(GeneratorContract, SeedOffsetChangesData) {
  Result<EMDataset> a = GenerateDataset(GetParam(), 0.3, 0);
  Result<EMDataset> b = GenerateDataset(GetParam(), 0.3, 1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  bool any_diff = a->table_a.num_rows() != b->table_a.num_rows();
  for (size_t r = 0; !any_diff && r < a->table_a.num_rows(); ++r) {
    if (a->table_a.value(r, 0) != b->table_a.value(r, 0)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, GeneratorContract, ::testing::ValuesIn(AllDatasetKinds()),
    [](const auto& info) {
      std::string name = DatasetKindName(info.param);
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(SuiteTest, ParseDatasetKindInvertsNames) {
  for (DatasetKind kind : AllDatasetKinds()) {
    Result<DatasetKind> parsed = ParseDatasetKind(DatasetKindName(kind));
    ASSERT_TRUE(parsed.ok()) << DatasetKindName(kind);
    EXPECT_EQ(*parsed, kind);
  }
  Result<DatasetKind> unknown = ParseDatasetKind("dblp-acm");
  ASSERT_TRUE(unknown.status().IsNotFound());
  EXPECT_EQ(unknown.status().message(), "unknown dataset 'dblp-acm'");
}

TEST(GeneratorShapeTest, Table4Properties) {
  // Dataset-specific shape constraints from Table 4.
  EMDataset cricket =
      std::move(GenerateDataset(DatasetKind::kCricket)).value();
  EXPECT_GT(cricket.PositiveRate(), 0.9);  // 96.5% positive in the paper
  EXPECT_DOUBLE_EQ(cricket.default_threshold, 0.9);

  EMDataset cameras =
      std::move(GenerateDataset(DatasetKind::kCameras)).value();
  EXPECT_EQ(cameras.matching_attrs.size(), 1u);  // textual: title only
  EXPECT_EQ(cameras.sensitive_attr, "company");

  EMDataset itunes =
      std::move(GenerateDataset(DatasetKind::kItunesAmazon)).value();
  EXPECT_EQ(itunes.sensitive_kind, SensitiveAttrKind::kSetwise);

  EMDataset nofly =
      std::move(GenerateDataset(DatasetKind::kNoFlyCompas)).value();
  EXPECT_EQ(nofly.sensitive_kind, SensitiveAttrKind::kBinary);
  EXPECT_LT(nofly.PositiveRate(), 0.1);  // extreme class imbalance
}

TEST(GeneratorShapeTest, NoFlyListOverRepresentsBlackGroup) {
  EMDataset ds = std::move(GenerateDataset(DatasetKind::kNoFlyCompas)).value();
  auto black_frac = [&](const Table& t) {
    size_t col = *t.schema().Index("race");
    int black = 0;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      if (t.value(r, col) == "African-American") ++black;
    }
    return static_cast<double>(black) / t.num_rows();
  };
  double passengers = black_frac(ds.table_a);
  double no_fly = black_frac(ds.table_b);
  // Condition (b) of §5.1.2: ~20% of passengers vs ~52% of the no-fly list.
  EXPECT_LT(passengers, 0.35);
  EXPECT_GT(no_fly, 0.40);
}

TEST(GeneratorShapeTest, FacultyMatchPopulationGap) {
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kFacultyMatch)).value();
  size_t col = *ds.table_a.schema().Index("country");
  int cn_pairs = 0;
  int de_pairs = 0;
  for (const auto& p : ds.AllPairs()) {
    bool de = ds.table_a.value(p.left, col) == "de" ||
              ds.table_b.value(p.right, col) == "de";
    (de ? de_pairs : cn_pairs)++;
  }
  // The paper widens the gap to ~6x via the 80% de-pair drop.
  EXPECT_GT(static_cast<double>(cn_pairs) / de_pairs, 3.0);
}

}  // namespace
}  // namespace fairem
