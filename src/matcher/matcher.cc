#include "src/matcher/matcher.h"

#include "src/matcher/dedupe_matcher.h"
#include "src/matcher/deepmatcher.h"
#include "src/matcher/ditto_matcher.h"
#include "src/matcher/gnem_matcher.h"
#include "src/matcher/hier_matcher.h"
#include "src/matcher/mcan_matcher.h"
#include "src/matcher/ml_matchers.h"
#include "src/matcher/rule_matcher.h"

namespace fairem {

const char* MatcherFamilyName(MatcherFamily family) {
  switch (family) {
    case MatcherFamily::kRuleBased:
      return "rule-based";
    case MatcherFamily::kNonNeural:
      return "non-neural";
    case MatcherFamily::kNeural:
      return "neural";
  }
  return "?";
}

Result<std::vector<double>> Matcher::PredictScores(
    const EMDataset& dataset, const std::vector<LabeledPair>& pairs) const {
  std::vector<double> scores;
  scores.reserve(pairs.size());
  for (const auto& pair : pairs) {
    FAIREM_ASSIGN_OR_RETURN(double s,
                            ScorePair(dataset, pair.left, pair.right));
    scores.push_back(s);
  }
  return scores;
}

bool Matcher::SupportsDataset(const EMDataset& /*dataset*/) const {
  return true;
}

const char* MatcherKindName(MatcherKind kind) {
  switch (kind) {
    case MatcherKind::kBooleanRule:
      return "BooleanRuleMatcher";
    case MatcherKind::kDedupe:
      return "Dedupe";
    case MatcherKind::kDT:
      return "DTMatcher";
    case MatcherKind::kSvm:
      return "SVMMatcher";
    case MatcherKind::kRF:
      return "RFMatcher";
    case MatcherKind::kLogReg:
      return "LogRegMatcher";
    case MatcherKind::kLinReg:
      return "LinRegMatcher";
    case MatcherKind::kNB:
      return "NBMatcher";
    case MatcherKind::kDeepMatcher:
      return "DeepMatcher";
    case MatcherKind::kDitto:
      return "Ditto";
    case MatcherKind::kGnem:
      return "GNEM";
    case MatcherKind::kHierMatcher:
      return "HierMatcher";
    case MatcherKind::kMcan:
      return "MCAN";
  }
  return "?";
}

MatcherFamily FamilyOf(MatcherKind kind) {
  switch (kind) {
    case MatcherKind::kBooleanRule:
      return MatcherFamily::kRuleBased;
    case MatcherKind::kDedupe:
    case MatcherKind::kDT:
    case MatcherKind::kSvm:
    case MatcherKind::kRF:
    case MatcherKind::kLogReg:
    case MatcherKind::kLinReg:
    case MatcherKind::kNB:
      return MatcherFamily::kNonNeural;
    case MatcherKind::kDeepMatcher:
    case MatcherKind::kDitto:
    case MatcherKind::kGnem:
    case MatcherKind::kHierMatcher:
    case MatcherKind::kMcan:
      return MatcherFamily::kNeural;
  }
  return MatcherFamily::kNonNeural;
}

std::unique_ptr<Matcher> CreateMatcher(MatcherKind kind) {
  switch (kind) {
    case MatcherKind::kBooleanRule:
      return std::make_unique<BooleanRuleMatcher>();
    case MatcherKind::kDedupe:
      return std::make_unique<DedupeMatcher>();
    case MatcherKind::kDT:
      return MakeDTMatcher();
    case MatcherKind::kSvm:
      return MakeSvmMatcher();
    case MatcherKind::kRF:
      return MakeRFMatcher();
    case MatcherKind::kLogReg:
      return MakeLogRegMatcher();
    case MatcherKind::kLinReg:
      return MakeLinRegMatcher();
    case MatcherKind::kNB:
      return MakeNBMatcher();
    case MatcherKind::kDeepMatcher:
      return std::make_unique<DeepMatcherMatcher>();
    case MatcherKind::kDitto:
      return std::make_unique<DittoMatcher>();
    case MatcherKind::kGnem:
      return std::make_unique<GnemMatcher>();
    case MatcherKind::kHierMatcher:
      return std::make_unique<HierMatcherMatcher>();
    case MatcherKind::kMcan:
      return std::make_unique<McanMatcher>();
  }
  return nullptr;
}

std::vector<MatcherKind> AllMatcherKinds() {
  return {MatcherKind::kBooleanRule, MatcherKind::kDedupe, MatcherKind::kDT,
          MatcherKind::kSvm,         MatcherKind::kRF,     MatcherKind::kLogReg,
          MatcherKind::kLinReg,      MatcherKind::kNB,
          MatcherKind::kDeepMatcher, MatcherKind::kDitto,  MatcherKind::kGnem,
          MatcherKind::kHierMatcher, MatcherKind::kMcan};
}

Result<MatcherKind> ParseMatcherKind(const std::string& name) {
  for (MatcherKind kind : AllMatcherKinds()) {
    if (name == MatcherKindName(kind)) return kind;
  }
  return Status::NotFound("unknown matcher '" + name + "'");
}

std::vector<MatcherKind> NeuralMatcherKinds() {
  return {MatcherKind::kDeepMatcher, MatcherKind::kDitto, MatcherKind::kGnem,
          MatcherKind::kHierMatcher, MatcherKind::kMcan};
}

}  // namespace fairem
