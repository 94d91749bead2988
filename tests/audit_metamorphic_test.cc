// Metamorphic properties of the audit core (Algorithm 1): transformations
// of the outcomes that must leave every AuditEntry unchanged, or change it
// in one predictable way. Most properties run over seeded random
// scenarios, for single and pairwise audits, both references and both
// disparity modes; the zero-denominator rules use hand-built outcomes.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/audit.h"
#include "src/obs/metrics.h"
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

  Scenario() = default;

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

  /// Appends record i, in `group`, to both tables.
  void AddRecord(const std::string& group) {
    const auto id = static_cast<int64_t>(a.num_rows());
    EXPECT_TRUE(a.AppendValues(id, {group}).ok());
    EXPECT_TRUE(b.AppendValues(id, {group}).ok());
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

/// Groups g0 and g1, each record in exactly one, and both records of
/// every pair in the same group: each group's complement is the other.
Scenario SplitScenario(uint64_t seed) {
  Scenario s;
  Rng rng(seed);
  std::vector<std::vector<size_t>> rows(2);
  const size_t records = 4 + rng.NextBounded(40);
  for (size_t i = 0; i < records; ++i) {
    const size_t g = i < 2 ? i : rng.NextBounded(2);
    s.AddRecord(g == 0 ? "g0" : "g1");
    rows[g].push_back(i);
  }
  const size_t pairs = 20 + rng.NextBounded(400);
  const double match_rate = 0.05 + 0.9 * rng.NextDouble();
  const double error_rate = 0.4 * rng.NextDouble();
  for (size_t p = 0; p < pairs; ++p) {
    const std::vector<size_t>& group = rows[rng.NextBounded(2)];
    const bool truth = rng.NextBool(match_rate);
    const size_t left = rng.Choice(group);
    s.outcomes.push_back({left, rng.Choice(group),
                          rng.NextBool(error_rate) ? !truth : truth, truth});
  }
  return s;
}

int Sign(double v) { return (v > 0.0) - (v < 0.0); }

TEST(AuditMetamorphicTest, SwappingTwoGroupsNegatesSubtractionDisparity) {
  const Variant v{false, AuditReference::kComplement,
                  DisparityMode::kSubtraction};
  int compared = 0;
  for (uint64_t seed = 1; seed <= kScenarios; ++seed) {
    const Scenario scenario = SplitScenario(seed);
    const AuditReport report =
        Audit(scenario.Auditor(), scenario.outcomes, v, 10);
    for (FairnessMeasure m : kAllFairnessMeasures) {
      if (m == FairnessMeasure::kEqualizedOdds) continue;
      const AuditEntry* g0 = report.Find("g0", m);
      const AuditEntry* g1 = report.Find("g1", m);
      ASSERT_NE(g0, nullptr);
      ASSERT_NE(g1, nullptr);
      if (!g0->defined || !g1->defined) continue;
      // Value equality: equal rates give +0 on both sides.
      EXPECT_EQ(g0->signed_disparity, -g1->signed_disparity)
          << Describe(seed, v) << " " << FairnessMeasureName(m);
      ++compared;
    }
  }
  EXPECT_GT(compared, 0);
}

TEST(AuditMetamorphicTest, DivisionAndSubtractionAgreeOnDirection) {
  int compared = 0;
  for (uint64_t seed = 1; seed <= kScenarios; ++seed) {
    const Scenario scenario(seed, kGroups);
    const FairnessAuditor auditor = scenario.Auditor();
    for (const Variant& sub : AllVariants()) {
      if (sub.mode != DisparityMode::kSubtraction) continue;
      const Variant div{sub.pairwise, sub.reference, DisparityMode::kDivision};
      const AuditReport by_sub = Audit(auditor, scenario.outcomes, sub, 10);
      const AuditReport by_div = Audit(auditor, scenario.outcomes, div, 10);
      ASSERT_EQ(by_sub.entries.size(), by_div.entries.size());
      for (size_t i = 0; i < by_sub.entries.size(); ++i) {
        const AuditEntry& s = by_sub.entries[i];
        const AuditEntry& d = by_div.entries[i];
        ASSERT_EQ(s.group_label, d.group_label);
        ASSERT_EQ(s.measure, d.measure);
        if (s.measure == FairnessMeasure::kEqualizedOdds) continue;
        if (!s.defined || !d.defined) continue;
        EXPECT_EQ(Sign(s.signed_disparity), Sign(d.signed_disparity))
            << Describe(seed, div) << " " << s.group_label << " "
            << FairnessMeasureName(s.measure);
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 0);
}

TEST(AuditMetamorphicTest, ZeroDenominatorsFollowTheApplicabilityRules) {
  Counter* undefined =
      MetricsRegistry::Global().GetCounter("fairem.audit.cells_undefined");
  for (DisparityMode mode :
       {DisparityMode::kSubtraction, DisparityMode::kDivision}) {
    // g1 has no true matches, so its true positive rate has no
    // denominator; g0's and the overall rate have one.
    Scenario no_matches;
    for (const char* g : {"g0", "g0", "g1", "g1"}) no_matches.AddRecord(g);
    no_matches.outcomes = {{0, 1, true, true},
                           {1, 0, false, true},
                           {0, 0, true, false},
                           {2, 3, true, false},
                           {3, 2, false, false}};
    AuditOptions options;
    options.measures = {FairnessMeasure::kTruePositiveRateParity};
    options.mode = mode;
    options.min_group_pairs = 1;
    const uint64_t before = undefined->value();
    const AuditReport report =
        std::move(no_matches.Auditor().AuditSingle(no_matches.outcomes,
                                                   options))
            .value();
    EXPECT_EQ(undefined->value() - before, 1u) << DisparityModeName(mode);
    const AuditEntry* g1 =
        report.Find("g1", FairnessMeasure::kTruePositiveRateParity);
    ASSERT_NE(g1, nullptr);
    EXPECT_FALSE(g1->defined) << DisparityModeName(mode);
    EXPECT_FALSE(g1->unfair) << DisparityModeName(mode);
    const AuditEntry* g0 =
        report.Find("g0", FairnessMeasure::kTruePositiveRateParity);
    ASSERT_NE(g0, nullptr);
    EXPECT_TRUE(g0->defined) << DisparityModeName(mode);
  }

  // Nothing predicted a match: every true positive rate and every false
  // positive rate is 0, so each division cell is 0/0.
  Scenario all_missed;
  for (const char* g : {"g0", "g0", "g1", "g1"}) all_missed.AddRecord(g);
  all_missed.outcomes = {{0, 1, false, true},
                         {1, 1, false, false},
                         {2, 3, false, true},
                         {3, 3, false, false}};
  AuditOptions options;
  options.measures = {FairnessMeasure::kTruePositiveRateParity,
                      FairnessMeasure::kFalsePositiveRateParity};
  options.mode = DisparityMode::kDivision;
  options.min_group_pairs = 1;
  const AuditReport report =
      std::move(all_missed.Auditor().AuditSingle(all_missed.outcomes, options))
          .value();
  ASSERT_EQ(report.entries.size(), 4u);
  for (const AuditEntry& e : report.entries) {
    const std::string at =
        e.group_label + " " + FairnessMeasureName(e.measure);
    EXPECT_EQ(e.overall_value, 0.0) << at;
    EXPECT_EQ(e.group_value, 0.0) << at;
    EXPECT_TRUE(e.defined) << at;
    EXPECT_EQ(e.disparity, 0.0) << at;
    EXPECT_FALSE(e.unfair) << at;
  }
}

}  // namespace
}  // namespace fairem
