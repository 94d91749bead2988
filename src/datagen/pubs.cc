#include "src/datagen/pubs.h"

#include <set>
#include <string>
#include <vector>

#include "src/datagen/names.h"
#include "src/datagen/pair_scan.h"
#include "src/datagen/perturb.h"
#include "src/text/edit_distance.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"

namespace fairem {
namespace {

const std::vector<std::string>& Adjectives() {
  static const auto& pool = *new std::vector<std::string>{
      "efficient", "effective", "scalable", "adaptive",    "robust",
      "incremental", "parallel", "distributed", "approximate", "optimal",
      "interactive", "declarative"};
  return pool;
}

const std::vector<std::string>& Topics() {
  static const auto& pool = *new std::vector<std::string>{
      "query processing over data streams",
      "schema matching for data integration",
      "entity matching in large datasets",
      "managing multiversion xml documents",
      "indexing large video databases",
      "timestamping in databases",
      "lineage tracing for data warehouse transformations",
      "mining frequent patterns in transactional data",
      "top-k query evaluation with probabilistic guarantees",
      "similarity search in metric spaces",
      "view maintenance in data warehouses",
      "keyword search over relational data",
      "cardinality estimation for join queries",
      "sampling-based approximate aggregation",
      "access control for published xml",
      "clustering high dimensional data",
      "selectivity estimation using histograms",
      "duplicate detection in web data",
      "transaction scheduling on multicore machines",
      "compression techniques for column stores"};
  return pool;
}

const std::vector<std::string>& ConferenceVenues() {
  static const auto& pool = *new std::vector<std::string>{
      "SIGMOD", "VLDB", "ICDE"};
  return pool;
}

const std::vector<std::string>& EditorialVenues() {
  static const auto& pool = *new std::vector<std::string>{
      "VLDBJ", "SIGMOD Rec."};
  return pool;
}

std::string AuthorList(Rng* rng, int count) {
  std::vector<std::string> authors;
  for (int i = 0; i < count; ++i) {
    authors.push_back(ToLowerAscii(GermanFullName(rng)));
  }
  return Join(authors, " , ");
}

struct Pub {
  std::string title;
  std::string authors;
  std::string venue;
  std::string year;
};

/// DBLP vs ACM views of the same publication. Author lists are heavily
/// reformatted (order flips, initials, dropped co-authors) and years drift
/// by one — so author/year features are unreliable for true matches and
/// trained models lean on the title, walking into the identical-title
/// editorial trap exactly as §5.3.3 describes for SVMMatcher.
Pub AcmView(const Pub& p, Rng* rng) {
  Pub out = p;
  std::vector<std::string> parts = Split(p.authors, ',');
  for (auto& part : parts) part = std::string(TrimAscii(part));
  if (parts.size() >= 2 && rng->NextBool(0.4)) {
    std::swap(parts.front(), parts.back());
  }
  if (parts.size() >= 2 && rng->NextBool(0.3)) {
    parts.pop_back();  // ACM drops a co-author
  }
  if (rng->NextBool(0.5)) {
    // First names become initials: "jennifer widom" -> "j widom".
    for (auto& part : parts) {
      std::vector<std::string> words = Split(part, ' ');
      if (words.size() >= 2 && !words[0].empty()) {
        words[0] = words[0].substr(0, 1);
        part = Join(words, " ");
      }
    }
  }
  out.authors = Join(parts, " , ");
  if (rng->NextBool(0.25)) {
    out.year = std::to_string(std::stoi(p.year) + (rng->NextBool(0.5) ? 1 : -1));
  }
  if (rng->NextBool(0.35)) out.title = PerturbString(out.title, rng);
  return out;
}

/// Appends all non-match pairs with (near-)identical titles — the
/// candidates title-based blocking would produce, and exactly where the
/// planted editorial / extended-version traps live.
Status AppendTitleBlockedNegatives(const Table& a, const Table& b,
                                   double threshold, size_t max_count,
                                   Rng* rng,
                                   std::vector<LabeledPair>* pairs) {
  FAIREM_ASSIGN_OR_RETURN(size_t col_a, a.schema().Index("title"));
  FAIREM_ASSIGN_OR_RETURN(size_t col_b, b.schema().Index("title"));
  std::vector<LabeledPair> candidates;
  for (auto [i, j] : JaroWinklerNearPairs(ColumnValues(a, col_a),
                                          ColumnValues(b, col_b), threshold)) {
    if (a.row(i).entity_id == b.row(j).entity_id) continue;
    candidates.push_back({i, j, false});
  }
  if (candidates.size() > max_count) {
    rng->Shuffle(&candidates);
    candidates.resize(max_count);
  }
  pairs->insert(pairs->end(), candidates.begin(), candidates.end());
  return Status::OK();
}

}  // namespace

Result<EMDataset> GenerateDblpAcm(const DblpAcmOptions& options) {
  Rng rng(options.seed);
  FAIREM_ASSIGN_OR_RETURN(
      Schema schema, Schema::Make({"title", "authors", "venue", "year"}));
  EMDataset ds;
  ds.name = "DBLP-ACM";
  ds.table_a = Table("dblp", schema);
  ds.table_b = Table("acm", schema);
  ds.matching_attrs = {"title", "authors", "venue", "year"};
  ds.sensitive_attr = "venue";
  ds.sensitive_kind = SensitiveAttrKind::kMultiValued;

  std::vector<Pub> pubs;
  auto random_year = [&] { return std::to_string(rng.NextInt(1998, 2004)); };

  // Regular publications: adjective + topic titles across all venues. Some
  // adjacent publications share the topic with a different adjective (the
  // embedding trap).
  for (int i = 0; i < options.num_pubs; ++i) {
    Pub p;
    const std::string& topic = rng.Choice(Topics());
    p.title = rng.Choice(Adjectives()) + " " + topic;
    p.authors = AuthorList(&rng, static_cast<int>(rng.NextInt(1, 3)));
    bool editorial_venue = rng.NextBool(0.3);
    p.venue = editorial_venue ? rng.Choice(EditorialVenues())
                              : rng.Choice(ConferenceVenues());
    p.year = random_year();
    pubs.push_back(p);
    if (rng.NextBool(0.25)) {
      // Adjective twin in another venue, different authors: a non-match
      // whose title embedding is very close.
      Pub twin;
      twin.title = rng.Choice(Adjectives()) + " " + topic;
      twin.authors = AuthorList(&rng, static_cast<int>(rng.NextInt(1, 3)));
      twin.venue = rng.Choice(ConferenceVenues());
      twin.year = random_year();
      pubs.push_back(twin);
      ++i;
    }
  }

  // Guest editorials: identical titles, different authors and years, in the
  // editorial venues.
  for (const auto& venue : EditorialVenues()) {
    for (int i = 0; i < options.num_editorials; ++i) {
      Pub p;
      p.title = rng.NextBool(0.5) ? "guest editorial" : "editor's notes";
      p.authors = AuthorList(&rng, static_cast<int>(rng.NextInt(1, 3)));
      p.venue = venue;
      p.year = random_year();
      pubs.push_back(p);
    }
  }

  // Extended-version twins: VLDB paper + VLDBJ extension, same authors,
  // reworded title, later year. Distinct entities.
  for (int i = 0; i < options.num_extended_pairs; ++i) {
    const std::string& topic = rng.Choice(Topics());
    std::string authors = AuthorList(&rng, 3);
    Pub conf;
    conf.title = "efficient " + topic;
    conf.authors = authors;
    conf.venue = "VLDB";
    conf.year = std::to_string(rng.NextInt(1999, 2002));
    Pub journal;
    journal.title = "efficient schemes for " + topic;
    journal.authors = authors;
    journal.venue = "VLDBJ";
    journal.year = std::to_string(std::stoi(conf.year) + 1);
    pubs.push_back(conf);
    pubs.push_back(journal);
  }

  for (size_t id = 0; id < pubs.size(); ++id) {
    const Pub& p = pubs[id];
    FAIREM_RETURN_NOT_OK(ds.table_a.AppendValues(
        static_cast<int64_t>(id), {p.title, p.authors, p.venue, p.year}));
    Pub acm = AcmView(p, &rng);
    FAIREM_RETURN_NOT_OK(ds.table_b.AppendValues(
        static_cast<int64_t>(id),
        {acm.title, acm.authors, acm.venue, acm.year}));
  }

  std::vector<LabeledPair> pairs;
  for (size_t i = 0; i < pubs.size(); ++i) pairs.push_back({i, i, true});
  FAIREM_RETURN_NOT_OK(AppendTitleBlockedNegatives(
      ds.table_a, ds.table_b, 0.93,
      static_cast<size_t>(options.max_title_blocked_negatives), &rng,
      &pairs));
  for (size_t i = 0; i < pubs.size(); ++i) {
    std::set<size_t> used;
    for (int n = 0; n < options.negatives_per_record; ++n) {
      size_t j = static_cast<size_t>(rng.NextBounded(pubs.size()));
      if (j == i || !used.insert(j).second) continue;
      pairs.push_back({i, j, false});
    }
  }
  // Duplicate (left,right) pairs can arise between the blocked and random
  // negatives; keep the first occurrence.
  {
    std::set<std::pair<size_t, size_t>> seen;
    std::vector<LabeledPair> unique;
    for (const auto& p : pairs) {
      if (seen.insert({p.left, p.right}).second) unique.push_back(p);
    }
    pairs = std::move(unique);
  }
  FAIREM_RETURN_NOT_OK(SplitPairs(std::move(pairs), options.train_frac,
                                  options.valid_frac, &rng, &ds.train,
                                  &ds.valid, &ds.test));
  // Coverage bias (§5.3.3): "the training data did not include enough
  // non-match cases with (almost) identical titles to reduce the
  // correlation of the title with the ground-truth label." Move most of
  // the identical-title non-matches from train to test, so models learn
  // title-heavy weights and then face the trap unprepared.
  {
    FAIREM_ASSIGN_OR_RETURN(size_t title_col,
                            ds.table_a.schema().Index("title"));
    std::vector<LabeledPair> kept_train;
    for (const auto& p : ds.train) {
      bool identical_title =
          !p.is_match && !ds.table_a.IsNull(p.left, title_col) &&
          !ds.table_b.IsNull(p.right, title_col) &&
          JaroWinklerAtLeast(ds.table_a.value(p.left, title_col),
                             ds.table_b.value(p.right, title_col), 0.93);
      if (identical_title && rng.NextBool(0.85)) {
        ds.test.push_back(p);
      } else {
        kept_train.push_back(p);
      }
    }
    ds.train = std::move(kept_train);
  }
  FAIREM_RETURN_NOT_OK(ds.Validate());
  return ds;
}

Result<EMDataset> GenerateDblpScholar(const DblpScholarOptions& options) {
  Rng rng(options.seed);
  FAIREM_ASSIGN_OR_RETURN(
      Schema schema,
      Schema::Make({"title", "authors", "venue", "year", "pages", "volume",
                    "number", "publisher", "series", "entryType"}));
  EMDataset ds;
  ds.name = "DBLP-Scholar";
  ds.table_a = Table("dblp", schema);
  ds.table_b = Table("scholar", schema);
  ds.matching_attrs = {"title",  "authors", "venue",     "year",  "pages",
                       "volume", "number",  "publisher", "series"};
  ds.sensitive_attr = "entryType";
  ds.sensitive_kind = SensitiveAttrKind::kMultiValued;

  const std::vector<std::string> entry_types = {"article", "inproceedings",
                                                "techreport", "book"};
  const std::vector<std::string> publishers = {"ACM", "IEEE", "Springer",
                                               "Elsevier"};
  auto maybe_null = [&](std::string v) -> Cell {
    if (rng.NextBool(options.null_prob)) return std::nullopt;
    return v;
  };
  std::vector<LabeledPair> pairs;
  for (int id = 0; id < options.num_pubs; ++id) {
    std::string title = rng.Choice(Adjectives()) + " " + rng.Choice(Topics());
    std::string authors = AuthorList(&rng, static_cast<int>(rng.NextInt(1, 4)));
    std::string venue = rng.NextBool(0.5) ? rng.Choice(ConferenceVenues())
                                          : rng.Choice(EditorialVenues());
    std::string year = std::to_string(rng.NextInt(1996, 2005));
    std::string pages = std::to_string(rng.NextInt(1, 400)) + "-" +
                        std::to_string(rng.NextInt(401, 800));
    std::string volume = std::to_string(rng.NextInt(1, 30));
    std::string number = std::to_string(rng.NextInt(1, 12));
    std::string publisher = rng.Choice(publishers);
    std::string series = "vol. " + volume;
    std::string entry_type = rng.Choice(entry_types);
    Record left;
    left.entity_id = id;
    for (std::string* v : {&title, &authors, &venue, &year, &pages, &volume,
                           &number, &publisher, &series}) {
      left.cells.push_back(maybe_null(*v));
    }
    left.cells.emplace_back(entry_type);
    FAIREM_RETURN_NOT_OK(ds.table_a.Append(std::move(left)));

    // Scholar view: noisier, with its own missingness and typos.
    Record right;
    right.entity_id = id;
    std::string noisy_title = MaybePerturb(title, 0.5, &rng);
    std::string noisy_authors = MaybePerturb(authors, 0.3, &rng);
    for (std::string* v :
         {&noisy_title, &noisy_authors, &venue, &year, &pages, &volume,
          &number, &publisher, &series}) {
      right.cells.push_back(maybe_null(*v));
    }
    right.cells.emplace_back(entry_type);
    FAIREM_RETURN_NOT_OK(ds.table_b.Append(std::move(right)));
    pairs.push_back({static_cast<size_t>(id), static_cast<size_t>(id), true});
  }
  for (size_t i = 0; i < ds.table_a.num_rows(); ++i) {
    std::set<size_t> used;
    for (int n = 0; n < options.negatives_per_record; ++n) {
      size_t j = static_cast<size_t>(rng.NextBounded(ds.table_b.num_rows()));
      if (j == i || !used.insert(j).second) continue;
      pairs.push_back({i, j, false});
    }
  }
  FAIREM_RETURN_NOT_OK(SplitPairs(std::move(pairs), options.train_frac,
                                  options.valid_frac, &rng, &ds.train,
                                  &ds.valid, &ds.test));
  FAIREM_RETURN_NOT_OK(ds.Validate());
  return ds;
}

}  // namespace fairem
