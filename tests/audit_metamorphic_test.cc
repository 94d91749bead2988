// Metamorphic properties of the audit core (Algorithm 1): transformations
// of the outcomes that must leave every AuditEntry unchanged, or change it
// in one predictable way. Each property runs over seeded random scenarios,
// for single and pairwise audits, both references and both disparity modes.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/audit.h"
#include "src/util/rng.h"

namespace fairem {
namespace {

constexpr uint64_t kScenarios = 40;

/// Random tables A and B over a sensitive attribute, and random outcomes
/// (predicted and true labels) for random pairs between them. With more
/// than one group, records may belong to two ("g0|g2") or to none (an
/// empty cell); with one, every record belongs to it.
struct Scenario {
  Table a{"a", std::move(Schema::Make({"grp"})).value()};
  Table b{"b", std::move(Schema::Make({"grp"})).value()};
  std::vector<PairOutcome> outcomes;

  Scenario(uint64_t seed, const std::vector<std::string>& groups) {
    Rng rng(seed);
    const size_t rows = 5 + rng.NextBounded(40);
    auto cell = [&]() {
      std::string value = rng.Choice(groups);
      if (groups.size() == 1) return value;
      if (rng.NextBool(0.2)) value += "|" + rng.Choice(groups);
      return rng.NextBool(0.05) ? std::string() : value;
    };
    for (size_t i = 0; i < rows; ++i) {
      EXPECT_TRUE(a.AppendValues(static_cast<int64_t>(i), {cell()}).ok());
      EXPECT_TRUE(b.AppendValues(static_cast<int64_t>(i), {cell()}).ok());
    }
    const size_t pairs = 20 + rng.NextBounded(400);
    const double match_rate = 0.05 + 0.9 * rng.NextDouble();
    const double error_rate = 0.4 * rng.NextDouble();
    for (size_t p = 0; p < pairs; ++p) {
      const bool truth = rng.NextBool(match_rate);
      outcomes.push_back({rng.NextBounded(rows), rng.NextBounded(rows),
                          rng.NextBool(error_rate) ? !truth : truth, truth});
    }
  }

  FairnessAuditor Auditor() const {
    SensitiveAttr attr{"grp", SensitiveAttrKind::kSetwise, '|'};
    return std::move(FairnessAuditor::Make(a, b, attr)).value();
  }
};

/// The audit of `outcomes` in one of the four option combinations.
struct Variant {
  bool pairwise;
  AuditReference reference;
  DisparityMode mode;
};

std::vector<Variant> AllVariants() {
  std::vector<Variant> out;
  for (bool pairwise : {false, true}) {
    for (AuditReference reference :
         {AuditReference::kOverall, AuditReference::kComplement}) {
      for (DisparityMode mode :
           {DisparityMode::kSubtraction, DisparityMode::kDivision}) {
        out.push_back({pairwise, reference, mode});
      }
    }
  }
  return out;
}

std::string Describe(uint64_t seed, const Variant& v) {
  return "seed " + std::to_string(seed) +
         (v.pairwise ? " pairwise" : " single") +
         (v.reference == AuditReference::kOverall ? " overall"
                                                  : " complement") +
         (v.mode == DisparityMode::kSubtraction ? " sub" : " div");
}

AuditReport Audit(const FairnessAuditor& auditor,
                  const std::vector<PairOutcome>& outcomes, const Variant& v,
                  int64_t min_group_pairs) {
  AuditOptions options;
  options.reference = v.reference;
  options.mode = v.mode;
  options.min_group_pairs = min_group_pairs;
  Result<AuditReport> report = v.pairwise
                                   ? auditor.AuditPairwise(outcomes, options)
                                   : auditor.AuditSingle(outcomes, options);
  EXPECT_TRUE(report.ok()) << report.status();
  return report.ok() ? std::move(*report) : AuditReport{};
}

/// Every field bit for bit, except that `got.group_pairs` must be
/// `pairs_factor` times `want.group_pairs`, and `got`'s labels may differ
/// as `relabel` says.
void ExpectSameEntries(const AuditReport& want, const AuditReport& got,
                       int64_t pairs_factor, const std::string& context,
                       std::string (*relabel)(const std::string&) = nullptr) {
  ASSERT_EQ(want.entries.size(), got.entries.size()) << context;
  for (size_t i = 0; i < want.entries.size(); ++i) {
    const AuditEntry& w = want.entries[i];
    const AuditEntry& g = got.entries[i];
    const std::string at = context + " entry " + std::to_string(i);
    EXPECT_EQ(relabel == nullptr ? w.group_label : relabel(w.group_label),
              g.group_label)
        << at;
    EXPECT_EQ(w.measure, g.measure) << at;
    EXPECT_EQ(w.defined, g.defined) << at;
    EXPECT_EQ(std::bit_cast<uint64_t>(w.overall_value),
              std::bit_cast<uint64_t>(g.overall_value))
        << at;
    EXPECT_EQ(std::bit_cast<uint64_t>(w.group_value),
              std::bit_cast<uint64_t>(g.group_value))
        << at;
    EXPECT_EQ(std::bit_cast<uint64_t>(w.disparity),
              std::bit_cast<uint64_t>(g.disparity))
        << at;
    EXPECT_EQ(std::bit_cast<uint64_t>(w.signed_disparity),
              std::bit_cast<uint64_t>(g.signed_disparity))
        << at;
    EXPECT_EQ(w.unfair, g.unfair) << at;
    EXPECT_EQ(pairs_factor * w.group_pairs, g.group_pairs) << at;
  }
}

const std::vector<std::string> kGroups = {"g0", "g1", "g2", "g3"};

TEST(AuditMetamorphicTest, PermutingOutcomesChangesNoEntry) {
  for (uint64_t seed = 1; seed <= kScenarios; ++seed) {
    const Scenario scenario(seed, kGroups);
    const FairnessAuditor auditor = scenario.Auditor();
    std::vector<PairOutcome> shuffled = scenario.outcomes;
    Rng rng(seed ^ 0x5eed);
    rng.Shuffle(&shuffled);
    for (const Variant& v : AllVariants()) {
      ExpectSameEntries(Audit(auditor, scenario.outcomes, v, 10),
                        Audit(auditor, shuffled, v, 10), 1,
                        Describe(seed, v));
    }
  }
}

TEST(AuditMetamorphicTest, DuplicatingOutcomesOnlyDoublesGroupPairs) {
  int unfair = 0;
  int guarded = 0;
  for (uint64_t seed = 1; seed <= kScenarios; ++seed) {
    const Scenario scenario(seed, kGroups);
    const FairnessAuditor auditor = scenario.Auditor();
    std::vector<PairOutcome> twice = scenario.outcomes;
    twice.insert(twice.end(), scenario.outcomes.begin(),
                 scenario.outcomes.end());
    // Vary the evidence guard so some groups sit on either side of it.
    const int64_t min_pairs = 1 + static_cast<int64_t>(seed % 30);
    for (const Variant& v : AllVariants()) {
      const AuditReport once = Audit(auditor, scenario.outcomes, v, min_pairs);
      ExpectSameEntries(once, Audit(auditor, twice, v, 2 * min_pairs), 2,
                        Describe(seed, v));
      for (const AuditEntry& e : once.entries) {
        unfair += e.unfair ? 1 : 0;
        guarded += e.defined && !e.unfair && e.group_pairs < min_pairs &&
                   e.disparity > 0.2;
      }
    }
  }
  // The scenarios flag cells, and the doubled guard suppresses others.
  EXPECT_GT(unfair, 0);
  EXPECT_GT(guarded, 0);
}

std::string SelfPairLabel(const std::string& group) {
  return group + " | " + group;
}

TEST(AuditMetamorphicTest, SingleGroupDataMakesSingleAndPairwiseAgree) {
  for (uint64_t seed = 1; seed <= kScenarios; ++seed) {
    const Scenario scenario(seed, {"g"});
    const FairnessAuditor auditor = scenario.Auditor();
    ASSERT_EQ(auditor.groups(), std::vector<std::string>{"g"});
    for (const Variant& v : AllVariants()) {
      if (v.pairwise) continue;
      const Variant pairwise{true, v.reference, v.mode};
      const AuditReport single = Audit(auditor, scenario.outcomes, v, 10);
      ASSERT_FALSE(single.entries.empty());
      EXPECT_EQ(single.entries.front().group_label, "g");
      ExpectSameEntries(single,
                        Audit(auditor, scenario.outcomes, pairwise, 10), 1,
                        Describe(seed, v), SelfPairLabel);
    }
  }
}

}  // namespace
}  // namespace fairem
