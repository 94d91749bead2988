#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <set>

#include "src/embed/sentence_encoder.h"
#include "src/embed/subword_embedding.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"

namespace fairem {
namespace {

TEST(SubwordEmbeddingTest, DeterministicAcrossInstances) {
  SubwordEmbedding a;
  SubwordEmbedding b;
  std::vector<float> va = a.Embed("huang");
  std::vector<float> vb = b.Embed("huang");
  ASSERT_EQ(va.size(), vb.size());
  for (size_t i = 0; i < va.size(); ++i) EXPECT_FLOAT_EQ(va[i], vb[i]);
}

TEST(SubwordEmbeddingTest, UnitNormAndCaseInsensitive) {
  SubwordEmbedding e;
  std::vector<float> v = e.Embed("Brown");
  double norm_sq = 0.0;
  for (float x : v) norm_sq += static_cast<double>(x) * x;
  EXPECT_NEAR(norm_sq, 1.0, 1e-5);
  EXPECT_NEAR(SubwordEmbedding::Cosine(v, e.Embed("brown")), 1.0, 1e-6);
}

TEST(SubwordEmbeddingTest, EmptyTokenIsZeroVector) {
  SubwordEmbedding e;
  std::vector<float> v = e.Embed("");
  for (float x : v) EXPECT_FLOAT_EQ(x, 0.0f);
  EXPECT_DOUBLE_EQ(SubwordEmbedding::Cosine(v, e.Embed("x")), 0.0);
}

TEST(SubwordEmbeddingTest, SurfaceSimilarTokensAreClose) {
  // The pre-trained-embedding property the paper's neural FPs rely on:
  // shared n-grams => high cosine.
  SubwordEmbedding e;
  const std::vector<float> brown = e.Embed("brown");
  double near = SubwordEmbedding::Cosine(brown, e.Embed("browne"));
  double far = SubwordEmbedding::Cosine(brown, e.Embed("zhang"));
  EXPECT_GT(near, 0.45);
  EXPECT_LT(far, 0.4);
  const std::vector<float> efficient = e.Embed("efficient");
  EXPECT_GT(SubwordEmbedding::Cosine(efficient, e.Embed("effective")),
            SubwordEmbedding::Cosine(efficient, e.Embed("banana")));
}

TEST(SubwordEmbeddingTest, DifferentSeedsGiveDifferentSpaces) {
  SubwordEmbedding e1(SubwordEmbeddingOptions{.seed = 1});
  SubwordEmbedding e2(SubwordEmbeddingOptions{.seed = 2});
  double cross = SubwordEmbedding::Cosine(e1.Embed("brown"),
                                          e2.Embed("brown"));
  EXPECT_LT(cross, 0.7);
}

TEST(SubwordEmbeddingTest, CosineEdgeCases) {
  SubwordEmbedding e;
  EXPECT_DOUBLE_EQ(SubwordEmbedding::Cosine({1.0f}, {1.0f, 2.0f}), 0.0);
  EXPECT_DOUBLE_EQ(SubwordEmbedding::Cosine({0.0f}, {0.0f}), 0.0);
}

TEST(SentenceEncoderTest, IdenticalSentencesScoreOne) {
  SubwordEmbedding e;
  SentenceEncoder enc(&e);
  std::vector<std::string> s = {"lineage", "tracing"};
  std::vector<float> v = enc.Encode(s);
  EXPECT_NEAR(SubwordEmbedding::Cosine(v, v), 1.0, 1e-5);
}

TEST(SentenceEncoderTest, EmptySentenceIsZero) {
  SubwordEmbedding e;
  SentenceEncoder enc(&e);
  std::vector<float> v = enc.Encode({});
  for (float x : v) EXPECT_FLOAT_EQ(x, 0.0f);
  EXPECT_DOUBLE_EQ(SubwordEmbedding::Cosine(v, enc.Encode({"a"})), 0.0);
}

TEST(SentenceEncoderTest, SifDownweightsFrequentTokens) {
  SubwordEmbedding e;
  SentenceEncoder enc(&e);
  // "the" floods the corpus; content words are rare.
  std::vector<std::vector<std::string>> corpus;
  for (int i = 0; i < 200; ++i) corpus.push_back({"the"});
  corpus.push_back({"warehouse"});
  corpus.push_back({"streaming"});
  enc.FitFrequencies(corpus);
  EXPECT_LT(enc.TokenWeight("the"), 0.05);
  EXPECT_GT(enc.TokenWeight("warehouse"), 0.1);
  // Sentences sharing only the frequent token barely align; sharing the
  // rare token aligns strongly.
  const std::vector<float> anchor = enc.Encode({"the", "warehouse"});
  double via_the =
      SubwordEmbedding::Cosine(anchor, enc.Encode({"the", "streaming"}));
  double via_rare =
      SubwordEmbedding::Cosine(anchor, enc.Encode({"a", "warehouse"}));
  EXPECT_GT(via_rare, via_the);
}

TEST(SentenceEncoderTest, WeightedAlignmentSeparatesContentMismatch) {
  SubwordEmbedding e;
  SentenceEncoder enc(&e);
  std::vector<std::vector<std::string>> corpus;
  for (int i = 0; i < 100; ++i) corpus.push_back({"col", "val", "race"});
  corpus.push_back({"jamal", "brown"});
  corpus.push_back({"keisha", "browne"});
  enc.FitFrequencies(corpus);
  // Same boilerplate, same-ish surname, different first name...
  double near_collision = enc.AlignmentSimilarity(
      {"col", "val", "race", "jamal", "brown"},
      {"col", "val", "race", "keisha", "browne"});
  // ...versus a true match with small typos in both names.
  double true_match = enc.AlignmentSimilarity(
      {"col", "val", "race", "jamal", "brown"},
      {"col", "val", "race", "jamak", "browm"});
  EXPECT_GT(true_match, near_collision);
}

TEST(SentenceEncoderTest, AlignmentEdgeCases) {
  SubwordEmbedding e;
  SentenceEncoder enc(&e);
  EXPECT_DOUBLE_EQ(enc.AlignmentSimilarity({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(enc.AlignmentSimilarity({"a"}, {}), 0.0);
  EXPECT_NEAR(enc.AlignmentSimilarity({"same"}, {"same"}), 1.0, 1e-5);
}

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

void ExpectSameBits(const std::vector<float>& want,
                    const std::vector<float>& got, const std::string& token) {
  ASSERT_EQ(want.size(), got.size()) << token;
  for (size_t d = 0; d < want.size(); ++d) {
    EXPECT_EQ(std::bit_cast<uint32_t>(want[d]), std::bit_cast<uint32_t>(got[d]))
        << token << " dim " << d;
  }
}

const std::vector<std::vector<std::string>> kCorpus = {
    {"[col]", "title", "[val]", "Lineage", "tracing", "in", "the", "cloud"},
    {"[col]", "title", "[val]", "the", "warehouse", "the", ""},
    {"[col]", "venue", "[val]", "vldb", "2023"}};

/// How often each token occurs in kCorpus.
std::map<std::string, double> CorpusCounts() {
  std::map<std::string, double> counts;
  for (const auto& doc : kCorpus) {
    for (const auto& tok : doc) counts[tok] += 1.0;
  }
  return counts;
}

TEST(SentenceEncoderTableTest, CorpusTokensReadEmbedBitsFromTheTable) {
  SubwordEmbedding e;
  SentenceEncoder enc(&e);
  const std::map<std::string, double> distinct = CorpusCounts();
  const uint64_t built = CounterValue("fairem.embed.table_tokens");
  enc.FitFrequencies(kCorpus);
  EXPECT_EQ(CounterValue("fairem.embed.table_tokens") - built,
            distinct.size());
  const uint64_t hits = CounterValue("fairem.embed.table_hits");
  const uint64_t misses = CounterValue("fairem.embed.table_misses");
  for (const auto& [tok, unused_count] : distinct) {
    std::vector<std::vector<float>> vecs = enc.TokenVectors({tok});
    ASSERT_EQ(vecs.size(), 1u);
    ExpectSameBits(e.Embed(tok), vecs[0], tok);
  }
  EXPECT_EQ(CounterValue("fairem.embed.table_hits") - hits, distinct.size());
  EXPECT_EQ(CounterValue("fairem.embed.table_misses"), misses);
}

TEST(SentenceEncoderTableTest, TokenOutsideCorpusEmbedsAndCountsOneMiss) {
  SubwordEmbedding e;
  SentenceEncoder enc(&e);
  enc.FitFrequencies(kCorpus);
  const uint64_t hits = CounterValue("fairem.embed.table_hits");
  const uint64_t misses = CounterValue("fairem.embed.table_misses");
  std::vector<std::vector<float>> vecs = enc.TokenVectors({"sigmod"});
  ASSERT_EQ(vecs.size(), 1u);
  ExpectSameBits(e.Embed("sigmod"), vecs[0], "sigmod");
  EXPECT_EQ(CounterValue("fairem.embed.table_misses") - misses, 1u);
  EXPECT_EQ(CounterValue("fairem.embed.table_hits"), hits);
}

TEST(SentenceEncoderTableTest, TokenWeightKeepsTheSifFormula) {
  SubwordEmbedding e;
  SentenceEncoder enc(&e);
  const double a = 1e-3;
  // Before any fit every token weighs 1.
  EXPECT_EQ(std::bit_cast<uint64_t>(enc.TokenWeight("the")),
            std::bit_cast<uint64_t>(1.0));
  enc.FitFrequencies(kCorpus);
  const std::map<std::string, double> counts = CorpusCounts();
  double total = 0.0;
  for (const auto& [tok, count] : counts) total += count;
  for (const auto& [tok, count] : counts) {
    EXPECT_EQ(std::bit_cast<uint64_t>(enc.TokenWeight(tok)),
              std::bit_cast<uint64_t>(a / (a + count / total)))
        << tok;
  }
  EXPECT_EQ(std::bit_cast<uint64_t>(enc.TokenWeight("sigmod")),
            std::bit_cast<uint64_t>(a / (a + 0.0)));
}

/// The alignment as a nested loop over every token of each side against
/// every token of the other: the reference the distinct-pair kernel must
/// match bit for bit.
double ReferenceAlignment(const SentenceEncoder& enc,
                          const std::vector<std::string>& a,
                          const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const std::vector<std::vector<float>> vecs_a = enc.TokenVectors(a);
  const std::vector<std::vector<float>> vecs_b = enc.TokenVectors(b);
  auto one_side = [&](const std::vector<std::string>& from,
                      const std::vector<std::vector<float>>& from_vecs,
                      const std::vector<std::vector<float>>& to_vecs) {
    double weighted = 0.0;
    double total_weight = 0.0;
    for (size_t i = 0; i < from.size(); ++i) {
      double best = 0.0;
      for (const auto& t : to_vecs) {
        best = std::max(best, SubwordEmbedding::Cosine(from_vecs[i], t));
      }
      double w = enc.TokenWeight(from[i]);
      weighted += w * best;
      total_weight += w;
    }
    return total_weight > 0.0 ? weighted / total_weight : 0.0;
  };
  return 0.5 * (one_side(a, vecs_a, vecs_b) + one_side(b, vecs_b, vecs_a));
}

/// Serialized-record-like token lists: `[col]` and `[val]` repeat, content
/// tokens repeat, and about one token in eight is outside `kCorpus` (a
/// table miss; "" embeds to the zero vector).
std::vector<std::vector<std::string>> DuplicateHeavyLists() {
  const std::vector<std::string> corpus_tokens = {
      "[col]", "[val]", "title", "venue", "Lineage", "tracing",
      "the",   "cloud", "vldb",  "2023",  "warehouse"};
  const std::vector<std::string> outside = {"sigmod", "browne", "kdd", ""};
  Rng rng(7);
  std::vector<std::vector<std::string>> lists = {
      {}, {"[col]"}, {"sigmod"}, {""}, {"[col]", "[col]", "[val]", "[val]"}};
  for (int i = 0; i < 120; ++i) {
    std::vector<std::string> list;
    const int64_t len = rng.NextInt(1, 44);
    for (int64_t k = 0; k < len; ++k) {
      const double u = rng.NextDouble();
      if (u < 0.35) {
        list.push_back(u < 0.175 ? "[col]" : "[val]");
      } else if (u < 0.47) {
        list.push_back(rng.Choice(outside));
      } else {
        list.push_back(rng.Choice(corpus_tokens));
      }
    }
    lists.push_back(std::move(list));
  }
  return lists;
}

void ExpectAlignmentMatchesReference(
    const SentenceEncoder& enc,
    const std::vector<std::vector<std::string>>& lists) {
  for (size_t i = 0; i < lists.size(); ++i) {
    for (size_t j : {i, (i * 7 + 3) % lists.size(), (i + 1) % lists.size()}) {
      const double want = ReferenceAlignment(enc, lists[i], lists[j]);
      const double got = enc.AlignmentSimilarity(lists[i], lists[j]);
      EXPECT_EQ(std::bit_cast<uint64_t>(want), std::bit_cast<uint64_t>(got))
          << "lists " << i << " and " << j << ": " << want << " vs " << got;
    }
  }
}

TEST(SentenceEncoderAlignmentTest, DistinctPairsMatchTheNestedLoopBitForBit) {
  SubwordEmbedding e;
  SentenceEncoder enc(&e);
  const std::vector<std::vector<std::string>> lists = DuplicateHeavyLists();
  // Before any fit: every token misses and weighs 1.
  ExpectAlignmentMatchesReference(enc, lists);
  // After: table hits with SIF weights, and the outside tokens still miss.
  enc.FitFrequencies(kCorpus);
  ExpectAlignmentMatchesReference(enc, lists);
}

TEST(SentenceEncoderAlignmentTest, CountsOneCosinePerDistinctTokenPair) {
  SubwordEmbedding e;
  SentenceEncoder enc(&e);
  enc.FitFrequencies(kCorpus);
  const std::vector<std::string> a = {"[col]", "title", "[val]", "the",
                                      "cloud", "[col]", "venue", "[val]",
                                      "vldb",  "the"};
  const std::vector<std::string> b = {"[col]", "title", "[val]", "the",
                                      "the",   "sigmod", "sigmod"};
  const size_t distinct_a = std::set<std::string>(a.begin(), a.end()).size();
  const size_t distinct_b = std::set<std::string>(b.begin(), b.end()).size();
  ASSERT_EQ(distinct_a, 7u);
  ASSERT_EQ(distinct_b, 5u);
  const uint64_t cosines = CounterValue("fairem.embed.align_cosines");
  const uint64_t misses = CounterValue("fairem.embed.table_misses");
  enc.AlignmentSimilarity(a, b);
  EXPECT_EQ(CounterValue("fairem.embed.align_cosines") - cosines,
            distinct_a * distinct_b);
  // Each lookup outside the table still counts a miss.
  EXPECT_EQ(CounterValue("fairem.embed.table_misses") - misses, 2u);
  // Empty and one-sided lists compare no token.
  enc.AlignmentSimilarity({}, {});
  enc.AlignmentSimilarity(a, {});
  enc.AlignmentSimilarity({}, b);
  EXPECT_EQ(CounterValue("fairem.embed.align_cosines") - cosines,
            distinct_a * distinct_b);
}

}  // namespace
}  // namespace fairem
