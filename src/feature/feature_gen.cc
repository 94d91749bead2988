#include "src/feature/feature_gen.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/text/prepared.h"
#include "src/text/tokenize.h"
#include "src/util/string_util.h"
#include "src/util/thread_pool.h"

namespace fairem {
namespace {

constexpr size_t kShortStringMaxAvgLen = 24;
constexpr double kShortStringMaxAvgTokens = 3.0;

/// A FeatureDef with its attribute resolved to column indices once, so the
/// per-pair loop never goes back through schema().Index.
struct ResolvedDef {
  size_t col_a = 0;
  size_t col_b = 0;
  SimilarityMeasure measure = SimilarityMeasure::kExactMatch;
};

Result<std::vector<ResolvedDef>> ResolveDefs(
    const std::vector<FeatureDef>& defs, const Table& a, const Table& b) {
  std::vector<ResolvedDef> resolved;
  resolved.reserve(defs.size());
  for (const auto& def : defs) {
    ResolvedDef r;
    FAIREM_ASSIGN_OR_RETURN(r.col_a, a.schema().Index(def.attr));
    FAIREM_ASSIGN_OR_RETURN(r.col_b, b.schema().Index(def.attr));
    r.measure = def.measure;
    resolved.push_back(r);
  }
  return resolved;
}

/// Sorted-unique row indices referenced on one side of a pair list.
std::vector<size_t> ReferencedRows(const std::vector<LabeledPair>& pairs,
                                   bool left_side) {
  std::vector<size_t> rows;
  rows.reserve(pairs.size());
  for (const auto& p : pairs) rows.push_back(left_side ? p.left : p.right);
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

/// Both sides' prepared columns: every column pair some def touches,
/// tokenized once per referenced record with exactly the representations
/// the measures on that pair need. Built pairwise (not per side) because
/// the interned-token fast path needs one TokenInterner spanning both
/// sides of a column pair — ids from separate interners would not be
/// comparable (DESIGN.md §17). The a-side interns first, then the b-side
/// extends the same universe; the interners are dropped here once the ids
/// are baked into the PreparedValues.
class PreparedPair {
 public:
  void Build(const Table& a, const Table& b,
             const std::vector<ResolvedDef>& defs,
             const std::vector<LabeledPair>& pairs) {
    std::map<std::pair<size_t, size_t>, PreparedNeeds> needs;
    for (const auto& def : defs) {
      needs[{def.col_a, def.col_b}].MergeFrom(NeedsForMeasure(def.measure));
    }
    std::vector<size_t> rows_a = ReferencedRows(pairs, /*left_side=*/true);
    std::vector<size_t> rows_b = ReferencedRows(pairs, /*left_side=*/false);
    for (const auto& [cols, pair_needs] : needs) {
      ColumnInterners interners;
      columns_a_[cols.first].BuildRows(a, cols.first, rows_a, pair_needs,
                                       &interners);
      columns_b_[cols.second].BuildRows(b, cols.second, rows_b, pair_needs,
                                        &interners);
    }
  }

  const PreparedValue& GetA(size_t col, size_t row) const {
    return columns_a_.at(col).Get(row);
  }
  const PreparedValue& GetB(size_t col, size_t row) const {
    return columns_b_.at(col).Get(row);
  }

 private:
  std::map<size_t, PreparedColumn> columns_a_;
  std::map<size_t, PreparedColumn> columns_b_;
};

}  // namespace

Result<AttrType> InferAttrType(const Table& a, const Table& b,
                               const std::string& attr) {
  FAIREM_ASSIGN_OR_RETURN(size_t col_a, a.schema().Index(attr));
  FAIREM_ASSIGN_OR_RETURN(size_t col_b, b.schema().Index(attr));
  size_t non_null = 0;
  size_t numeric = 0;
  size_t total_len = 0;
  size_t total_tokens = 0;
  auto scan = [&](const Table& t, size_t col) {
    for (size_t r = 0; r < t.num_rows(); ++r) {
      if (t.IsNull(r, col)) continue;
      std::string_view v = t.value(r, col);
      ++non_null;
      if (ParseDouble(v, nullptr)) ++numeric;
      total_len += v.size();
      total_tokens += CountWhitespaceTokens(v);
    }
  };
  scan(a, col_a);
  scan(b, col_b);
  if (non_null == 0) return AttrType::kShortString;
  if (numeric == non_null) return AttrType::kNumeric;
  double avg_len = static_cast<double>(total_len) / non_null;
  double avg_tokens = static_cast<double>(total_tokens) / non_null;
  if (avg_len <= kShortStringMaxAvgLen &&
      avg_tokens <= kShortStringMaxAvgTokens) {
    return AttrType::kShortString;
  }
  return AttrType::kLongString;
}

Result<std::vector<FeatureDef>> GenerateFeatures(
    const Table& a, const Table& b, const std::vector<std::string>& attrs) {
  Span span("fairem.feature.generate_defs");
  span.AddArg("attrs", std::to_string(attrs.size()));
  std::vector<FeatureDef> defs;
  for (const auto& attr : attrs) {
    FAIREM_ASSIGN_OR_RETURN(AttrType type, InferAttrType(a, b, attr));
    switch (type) {
      case AttrType::kNumeric:
        defs.push_back({attr, SimilarityMeasure::kExactMatch});
        defs.push_back({attr, SimilarityMeasure::kNumericAbsDiff});
        break;
      case AttrType::kShortString:
        defs.push_back({attr, SimilarityMeasure::kExactMatch});
        defs.push_back({attr, SimilarityMeasure::kLevenshtein});
        defs.push_back({attr, SimilarityMeasure::kJaro});
        defs.push_back({attr, SimilarityMeasure::kJaroWinkler});
        defs.push_back({attr, SimilarityMeasure::kJaccardQgram3});
        defs.push_back({attr, SimilarityMeasure::kNeedlemanWunsch});
        break;
      case AttrType::kLongString:
        // Word-token measures only, as in Magellan's defaults for long
        // text: character-gram measures are not generated here, which is
        // why token-formatting variance defeats the non-neural matchers on
        // the textual datasets (§5.3.3).
        defs.push_back({attr, SimilarityMeasure::kJaccardWord});
        defs.push_back({attr, SimilarityMeasure::kCosineWord});
        defs.push_back({attr, SimilarityMeasure::kDiceWord});
        defs.push_back({attr, SimilarityMeasure::kOverlapWord});
        break;
    }
  }
  static Counter* defs_counter =
      MetricsRegistry::Global().GetCounter("fairem.feature.defs_generated");
  defs_counter->Increment(defs.size());
  return defs;
}

Result<std::vector<double>> ExtractFeatures(
    const std::vector<FeatureDef>& defs, const Table& a, const Table& b,
    size_t left_row, size_t right_row) {
  FAIREM_ASSIGN_OR_RETURN(std::vector<ResolvedDef> resolved,
                          ResolveDefs(defs, a, b));
  std::vector<double> features;
  features.reserve(defs.size());
  for (const auto& def : resolved) {
    if (a.IsNull(left_row, def.col_a) || b.IsNull(right_row, def.col_b)) {
      features.push_back(0.0);
      continue;
    }
    features.push_back(ComputeSimilarity(def.measure,
                                         a.value(left_row, def.col_a),
                                         b.value(right_row, def.col_b)));
  }
  return features;
}

Result<FeatureTable> BuildFeatureTable(const std::vector<FeatureDef>& defs,
                                       const Table& a, const Table& b,
                                       const std::vector<LabeledPair>& pairs) {
  static Histogram* build_hist = MetricsRegistry::Global().GetHistogram(
      "fairem.feature.build_table_seconds");
  double seconds = 0.0;
  Result<FeatureTable> result = [&]() -> Result<FeatureTable> {
    Span span("fairem.feature.build_table", &seconds);
    span.AddArg("pairs", std::to_string(pairs.size()));
    span.AddArg("defs", std::to_string(defs.size()));
    static Counter* rows_counter =
        MetricsRegistry::Global().GetCounter("fairem.feature.rows_built");
    static Counter* values_counter =
        MetricsRegistry::Global().GetCounter("fairem.feature.values_computed");
    rows_counter->Increment(pairs.size());
    values_counter->Increment(pairs.size() * defs.size());

    // Columns resolve once per def (not once per pair), and every
    // referenced record is lowercased/tokenized/q-grammed exactly once
    // into the prepared cache the pairwise kernels read.
    FAIREM_ASSIGN_OR_RETURN(std::vector<ResolvedDef> resolved,
                            ResolveDefs(defs, a, b));
    PreparedPair prepared;
    prepared.Build(a, b, resolved, pairs);

    FeatureTable table;
    table.defs = defs;
    table.rows.assign(pairs.size(), {});
    table.labels.assign(pairs.size(), 0);
    // Row chunks write disjoint slots in pair order, so the matrix is
    // byte-identical for any --intra_jobs; the first non-finite feature by
    // pair index wins the error, again independent of the schedule.
    FAIREM_RETURN_NOT_OK(ParallelForChunks(
        pairs.size(), /*grain=*/0, [&](size_t begin, size_t end) -> Status {
          uint64_t cache_hits = 0;
          for (size_t i = begin; i < end; ++i) {
            const LabeledPair& p = pairs[i];
            std::vector<double> row;
            row.reserve(resolved.size());
            for (const auto& def : resolved) {
              const PreparedValue& va = prepared.GetA(def.col_a, p.left);
              const PreparedValue& vb = prepared.GetB(def.col_b, p.right);
              if (va.is_null || vb.is_null) {
                row.push_back(0.0);
                continue;
              }
              cache_hits += 2;
              row.push_back(ComputeSimilarity(def.measure, va, vb));
            }
            for (size_t f = 0; f < row.size(); ++f) {
              if (!std::isfinite(row[f])) {
                AddPreparedCacheHits(cache_hits);
                return Status::InvalidArgument(
                    "non-finite feature value for attribute '" +
                    defs[f].attr + "'");
              }
            }
            table.rows[i] = std::move(row);
            table.labels[i] = p.is_match ? 1 : 0;
          }
          AddPreparedCacheHits(cache_hits);
          return Status::OK();
        }));
    return table;
  }();
  if (result.ok()) build_hist->Observe(seconds);
  return result;
}

}  // namespace fairem
