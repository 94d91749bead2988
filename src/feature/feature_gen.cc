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

/// The defs that read one column pair, and the representations their
/// measures need from it.
struct ColumnPairDefs {
  PreparedNeeds needs;
  std::vector<size_t> defs;  // indices into the resolved defs, in def order
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
    std::map<std::pair<size_t, size_t>, ColumnPairDefs> column_pairs;
    for (size_t d = 0; d < resolved.size(); ++d) {
      ColumnPairDefs& group =
          column_pairs[{resolved[d].col_a, resolved[d].col_b}];
      group.needs.MergeFrom(NeedsForMeasure(resolved[d].measure));
      group.defs.push_back(d);
    }
    const std::vector<size_t> rows_a =
        ReferencedRows(pairs, /*left_side=*/true);
    const std::vector<size_t> rows_b =
        ReferencedRows(pairs, /*left_side=*/false);

    FeatureTable table;
    table.defs = defs;
    table.rows.assign(pairs.size(), std::vector<double>(defs.size(), 0.0));
    table.labels.reserve(pairs.size());
    for (const LabeledPair& p : pairs) {
      table.labels.push_back(p.is_match ? 1 : 0);
    }
    // One column pair at a time, so only its two prepared columns are alive
    // (DESIGN.md §22). Both sides share one ColumnInterners, the a-side
    // interning first: ids from separate interners would not be comparable
    // (DESIGN.md §17). Row chunks write disjoint slots, so the matrix is
    // byte-identical for any --intra_jobs.
    for (const auto& [cols, group] : column_pairs) {
      ColumnInterners interners;
      PreparedColumn column_a;
      PreparedColumn column_b;
      column_a.BuildRows(a, cols.first, rows_a, group.needs, &interners);
      column_b.BuildRows(b, cols.second, rows_b, group.needs, &interners);
      GlobalThreadPool().ParallelFor(
          pairs.size(), /*grain=*/0, [&](size_t begin, size_t end) {
            uint64_t cache_hits = 0;
            for (size_t i = begin; i < end; ++i) {
              const PreparedValue& va = column_a.Get(pairs[i].left);
              const PreparedValue& vb = column_b.Get(pairs[i].right);
              if (va.is_null || vb.is_null) continue;  // the row's 0.0
              cache_hits += 2 * group.defs.size();
              std::vector<double>& row = table.rows[i];
              for (size_t d : group.defs) {
                row[d] = ComputeSimilarity(resolved[d].measure, va, vb);
              }
            }
            AddPreparedCacheHits(cache_hits);
          });
    }
    // Row-major, so the first pair's first non-finite def names the error.
    for (const std::vector<double>& row : table.rows) {
      for (size_t f = 0; f < row.size(); ++f) {
        if (!std::isfinite(row[f])) {
          return Status::InvalidArgument(
              "non-finite feature value for attribute '" + defs[f].attr +
              "'");
        }
      }
    }
    return table;
  }();
  if (result.ok()) build_hist->Observe(seconds);
  return result;
}

Result<DatasetFeatures> BuildDatasetFeatures(const EMDataset& dataset) {
  DatasetFeatures features;
  FAIREM_ASSIGN_OR_RETURN(
      features.defs, GenerateFeatures(dataset.table_a, dataset.table_b,
                                      dataset.matching_attrs));
  if (features.defs.empty()) {
    return Status::InvalidArgument("no features generated for dataset '" +
                                   dataset.name + "'");
  }
  FAIREM_ASSIGN_OR_RETURN(
      features.train, BuildFeatureTable(features.defs, dataset.table_a,
                                        dataset.table_b, dataset.train));
  FAIREM_ASSIGN_OR_RETURN(
      features.test, BuildFeatureTable(features.defs, dataset.table_a,
                                       dataset.table_b, dataset.test));
  return features;
}

}  // namespace fairem
