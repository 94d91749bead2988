#include "src/datagen/social.h"

#include <set>
#include <string>
#include <vector>

#include "src/datagen/names.h"
#include "src/datagen/pair_scan.h"
#include "src/datagen/perturb.h"
#include "src/util/rng.h"

namespace fairem {
namespace {

/// Appends every cross-table non-match pair whose `col` values are
/// near-identical (Jaro-Winkler >= `threshold`) — the blocked hard
/// negatives a real EM pipeline would feed the matcher. These pairs carry a
/// name collision but, thanks to the population's minimum-distance
/// guarantee, always differ clearly in another column, so exact character
/// features can separate them while record-level embedding similarity
/// cannot.
void BlockedNegatives(const Table& a, const Table& b, size_t col,
                      double threshold, size_t max_count, Rng* rng,
                      std::vector<LabeledPair>* pairs) {
  std::vector<LabeledPair> candidates;
  for (auto [i, j] : JaroWinklerNearPairs(ColumnValues(a, col),
                                          ColumnValues(b, col), threshold)) {
    if (a.row(i).entity_id == b.row(j).entity_id) continue;
    candidates.push_back({i, j, false});
  }
  // Hard negatives are a small tail of real candidate sets; cap their count
  // (uniform subsample) so they inform the boundary without dominating it.
  if (candidates.size() > max_count) {
    rng->Shuffle(&candidates);
    candidates.resize(max_count);
  }
  pairs->insert(pairs->end(), candidates.begin(), candidates.end());
}

/// Removes duplicate (left, right) pairs, keeping the first occurrence
/// (matches are appended first, so labels are preserved).
void DedupPairs(std::vector<LabeledPair>* pairs) {
  std::set<std::pair<size_t, size_t>> seen;
  std::vector<LabeledPair> unique;
  unique.reserve(pairs->size());
  for (const auto& p : *pairs) {
    if (seen.insert({p.left, p.right}).second) unique.push_back(p);
  }
  *pairs = std::move(unique);
}

/// Appends sampled non-match pairs: for each left row, `k` distinct random
/// right rows whose entity ids differ.
void SampleNegatives(const Table& a, const Table& b, int k, Rng* rng,
                     std::vector<LabeledPair>* pairs) {
  if (b.num_rows() == 0) return;
  for (size_t i = 0; i < a.num_rows(); ++i) {
    std::set<size_t> used;
    int attempts = 0;
    while (static_cast<int>(used.size()) < k && attempts < 8 * k) {
      ++attempts;
      size_t j = static_cast<size_t>(rng->NextBounded(b.num_rows()));
      if (a.row(i).entity_id == b.row(j).entity_id) continue;
      if (!used.insert(j).second) continue;
      pairs->push_back({i, j, false});
    }
  }
}

}  // namespace

Result<EMDataset> GenerateFacultyMatch(const FacultyMatchOptions& options) {
  Rng rng(options.seed);
  FAIREM_ASSIGN_OR_RETURN(Schema schema,
                          Schema::Make({"fullName", "country"}));
  EMDataset ds;
  ds.name = "FacultyMatch";
  ds.table_a = Table("faculty_left", schema);
  ds.table_b = Table("faculty_right", schema);
  ds.matching_attrs = {"fullName", "country"};
  ds.sensitive_attr = "country";
  ds.sensitive_kind = SensitiveAttrKind::kBinary;
  ds.simulated_full_scale_pairs = 271108 + 1084432;  // Table 4

  int64_t scholar_id = 0;
  MinDistanceNameSet taken_names(1);
  // Unlike NoFlyCompas, only exact duplicates and 1-edit twins are
  // rejected: the pinyin name space is dense enough that distance-2
  // confusables ("Qinghu Huang" / "Qingbo Huang") survive, and after the
  // 1-edit perturbation those become genuinely ambiguous — for *any*
  // matcher. German names almost never fall that close, so the ambiguity
  // concentrates in the cn group (the paper's condition (a)).
  auto fresh_name = [&](bool chinese) {
    for (int tries = 0; tries < 400; ++tries) {
      std::string name =
          chinese ? ChineseFullName(&rng) : GermanFullName(&rng);
      if (!taken_names.HasNear(name)) {
        taken_names.Add(name);
        return name;
      }
    }
    // Pool exhausted: disambiguate with a numeric suffix.
    std::string name = (chinese ? ChineseFullName(&rng) : GermanFullName(&rng)) +
                       " " + std::to_string(taken_names.size());
    taken_names.Add(name);
    return name;
  };
  auto add_faculty = [&](const std::string& name,
                         const std::string& country) -> Status {
    FAIREM_RETURN_NOT_OK(ds.table_a.AppendValues(scholar_id, {name, country}));
    // Usually one random edit (the paper's perturbation); sometimes a
    // second, which drops borderline matches near the confusable zone —
    // disproportionately costly in the dense cn name space.
    int edits = rng.NextBool(0.35) ? 2 : 1;
    FAIREM_RETURN_NOT_OK(ds.table_b.AppendValues(
        scholar_id, {PerturbString(name, &rng, edits), country}));
    ++scholar_id;
    return Status::OK();
  };
  for (int i = 0; i < options.num_cn; ++i) {
    FAIREM_RETURN_NOT_OK(add_faculty(fresh_name(true), "cn"));
  }
  for (int i = 0; i < options.num_de; ++i) {
    FAIREM_RETURN_NOT_OK(add_faculty(fresh_name(false), "de"));
  }

  // All matches + blocked hard negatives + sampled random non-matches.
  std::vector<LabeledPair> pairs;
  for (size_t i = 0; i < ds.table_a.num_rows(); ++i) {
    pairs.push_back({i, i, true});
  }
  BlockedNegatives(ds.table_a, ds.table_b, 0, 0.80,
                   3 * ds.table_a.num_rows(), &rng, &pairs);
  SampleNegatives(ds.table_a, ds.table_b, options.negatives_per_record, &rng,
                  &pairs);
  DedupPairs(&pairs);
  // Drop `de_pair_drop` of the non-match pairs involving a de member, so
  // cn pairs outnumber de pairs ~6x (the paper's population-gap widening).
  FAIREM_ASSIGN_OR_RETURN(size_t country_col,
                          ds.table_a.schema().Index("country"));
  std::vector<LabeledPair> kept;
  kept.reserve(pairs.size());
  for (const auto& p : pairs) {
    bool involves_de = ds.table_a.value(p.left, country_col) == "de" ||
                       ds.table_b.value(p.right, country_col) == "de";
    if (!p.is_match && involves_de && rng.NextBool(options.de_pair_drop)) {
      continue;
    }
    kept.push_back(p);
  }
  FAIREM_RETURN_NOT_OK(SplitPairs(std::move(kept), options.train_frac,
                                  options.valid_frac, &rng, &ds.train,
                                  &ds.valid, &ds.test));
  FAIREM_RETURN_NOT_OK(ds.Validate());
  return ds;
}

Result<EMDataset> GenerateNoFlyCompas(const NoFlyCompasOptions& options) {
  Rng rng(options.seed);
  FAIREM_ASSIGN_OR_RETURN(
      Schema schema, Schema::Make({"firstName", "lastName", "race"}));
  EMDataset ds;
  ds.name = "NoFlyCompas";
  ds.table_a = Table("passengers", schema);
  ds.table_b = Table("no_fly_list", schema);
  ds.matching_attrs = {"firstName", "lastName", "race"};
  ds.sensitive_attr = "race";
  ds.sensitive_kind = SensitiveAttrKind::kBinary;
  ds.simulated_full_scale_pairs = 20122 + 75459;  // Table 4

  struct Person {
    PersonName name;
    bool black;
  };
  // The COMPAS-style population from which both lists sample. Full names
  // are unique: the unfairness mechanism is *near*-collisions (one or two
  // edits apart within the concentrated pools), which confuse embedding
  // similarity while remaining separable by exact character features —
  // identical-name collisions would make even a perfect matcher fail.
  std::vector<Person> population;
  population.reserve(static_cast<size_t>(options.population));
  MinDistanceNameSet full_names(2);
  int attempts = 0;
  int black_count = 0;
  while (static_cast<int>(population.size()) < options.population &&
         attempts < 400 * options.population) {
    ++attempts;
    // Quota-driven: the concentrated pools reject far more Black names
    // under the minimum-distance rule, so a plain coin flip would starve
    // the group. Keep generating for whichever half is behind.
    bool black =
        black_count * 2 < static_cast<int>(population.size()) + 1;
    PersonName name = UsPersonName(black, &rng);
    // Minimum-distance guarantee: any two people differ by >= 3 edits in
    // the combined name, so a 1-edit perturbed match is always closer than
    // any non-match and a perfect feature-based matcher stays perfect.
    std::string full = name.first + " " + name.last;
    if (full_names.HasNear(full)) continue;
    full_names.Add(std::move(full));
    population.push_back({name, black});
    if (black) ++black_count;
  }
  auto sample_by_race = [&](int count, double black_frac,
                            std::set<size_t>* taken) {
    std::vector<size_t> chosen;
    int attempts = 0;
    while (static_cast<int>(chosen.size()) < count &&
           attempts < 50 * count) {
      ++attempts;
      bool want_black = rng.NextBool(black_frac);
      size_t idx = static_cast<size_t>(rng.NextBounded(population.size()));
      if (population[idx].black != want_black) continue;
      if (!taken->insert(idx).second) continue;
      chosen.push_back(idx);
    }
    return chosen;
  };

  // No-fly list: over-represents the Black group.
  std::set<size_t> no_fly_taken;
  std::vector<size_t> no_fly =
      sample_by_race(options.no_fly_size, options.no_fly_black_frac,
                     &no_fly_taken);
  // Passengers: census distribution; a fraction of the no-fly members also
  // board (the true matches).
  std::set<size_t> passenger_taken;
  std::vector<size_t> passengers;
  for (size_t idx : no_fly) {
    if (rng.NextBool(options.overlap_frac)) {
      passengers.push_back(idx);
      passenger_taken.insert(idx);
    }
  }
  int remaining = options.passenger_size -
                  static_cast<int>(passengers.size());
  if (remaining > 0) {
    // The no-fly members must remain samplable only once: exclude them.
    for (size_t idx : no_fly) passenger_taken.insert(idx);
    std::vector<size_t> extra = sample_by_race(
        remaining, options.passenger_black_frac, &passenger_taken);
    passengers.insert(passengers.end(), extra.begin(), extra.end());
  }

  const char* kBlack = "African-American";
  const char* kWhite = "Caucasian";
  for (size_t idx : passengers) {
    const Person& p = population[idx];
    FAIREM_RETURN_NOT_OK(ds.table_a.AppendValues(
        static_cast<int64_t>(idx),
        {p.name.first, p.name.last, p.black ? kBlack : kWhite}));
  }
  for (size_t idx : no_fly) {
    const Person& p = population[idx];
    FAIREM_RETURN_NOT_OK(ds.table_b.AppendValues(
        static_cast<int64_t>(idx),
        {PerturbString(p.name.first, &rng), PerturbString(p.name.last, &rng),
         p.black ? kBlack : kWhite}));
  }

  std::vector<LabeledPair> pairs = SameEntityPairs(ds.table_a, ds.table_b);
  // Blocking on the surname (the no-fly screening key): hard negatives
  // concentrate where surnames concentrate — the African-American group.
  if (options.include_blocked_negatives) {
    BlockedNegatives(ds.table_a, ds.table_b, 1, 0.88,
                     2 * static_cast<size_t>(options.no_fly_size), &rng,
                     &pairs);
  }
  SampleNegatives(ds.table_a, ds.table_b, options.negatives_per_record, &rng,
                  &pairs);
  DedupPairs(&pairs);
  FAIREM_RETURN_NOT_OK(SplitPairs(std::move(pairs), options.train_frac,
                                  options.valid_frac, &rng, &ds.train,
                                  &ds.valid, &ds.test));
  FAIREM_RETURN_NOT_OK(ds.Validate());
  return ds;
}

}  // namespace fairem
