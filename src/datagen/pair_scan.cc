#include "src/datagen/pair_scan.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "src/obs/metrics.h"

namespace fairem {
namespace {

struct ScanCounters {
  Counter* distinct_pairs;     // value pairs the Jaro-Winkler scans test
  Counter* scan_kernel_calls;  // of those, pairs the count bound kept
  Counter* name_checks;        // names HasNear visits (length in reach)
  Counter* name_kernel_calls;  // of those, LevenshteinWithin calls
};

const ScanCounters& Counters() {
  static const ScanCounters counters = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    return ScanCounters{reg.GetCounter("fairem.datagen.scan_distinct_pairs"),
                        reg.GetCounter("fairem.datagen.scan_kernel_calls"),
                        reg.GetCounter("fairem.datagen.name_checks"),
                        reg.GetCounter("fairem.datagen.name_kernel_calls")};
  }();
  return counters;
}

// Registered at load time, so every snapshot carries the keys, at zero
// when no generator scanned. Each call tallies locally and adds once.
[[maybe_unused]] const ScanCounters& kEagerCounters = Counters();

/// One side of a scan: its distinct values in first-seen order, each
/// value's count profile and rows (ascending), and each row's value index
/// (-1 for a null row).
struct InternedColumn {
  std::vector<std::string_view> values;
  std::vector<CharCounts> counts;
  std::vector<std::vector<size_t>> rows;
  std::vector<int64_t> row_value;
};

InternedColumn Intern(
    const std::vector<std::optional<std::string_view>>& column) {
  InternedColumn out;
  std::unordered_map<std::string_view, int64_t> index;
  out.row_value.reserve(column.size());
  for (size_t row = 0; row < column.size(); ++row) {
    if (!column[row].has_value()) {
      out.row_value.push_back(-1);
      continue;
    }
    const std::string_view value = *column[row];
    auto [it, inserted] =
        index.emplace(value, static_cast<int64_t>(out.values.size()));
    if (inserted) {
      out.values.push_back(value);
      out.counts.emplace_back(value);
      out.rows.emplace_back();
    }
    out.rows[it->second].push_back(row);
    out.row_value.push_back(it->second);
  }
  return out;
}

}  // namespace

std::vector<std::optional<std::string_view>> ColumnValues(const Table& table,
                                                          size_t col) {
  std::vector<std::optional<std::string_view>> values;
  values.reserve(table.num_rows());
  for (size_t i = 0; i < table.num_rows(); ++i) {
    if (table.IsNull(i, col)) {
      values.emplace_back();
    } else {
      values.emplace_back(table.value(i, col));
    }
  }
  return values;
}

std::vector<std::pair<size_t, size_t>> JaroWinklerNearPairs(
    const std::vector<std::optional<std::string_view>>& left,
    const std::vector<std::optional<std::string_view>>& right,
    double threshold) {
  const InternedColumn a = Intern(left);
  const InternedColumn b = Intern(right);
  // near_rows[u]: the right rows whose value is near left value u,
  // ascending, so each left row expands in the nested loop's order.
  std::vector<std::vector<size_t>> near_rows(a.values.size());
  ByteCounts counts{};
  uint64_t calls = 0;
  for (size_t u = 0; u < a.values.size(); ++u) {
    a.counts[u].AddTo(&counts);
    for (size_t v = 0; v < b.values.size(); ++v) {
      if (!JaroWinklerMayReach(a.values[u], b.values[v],
                               b.counts[v].Shared(counts), threshold)) {
        continue;
      }
      ++calls;
      if (JaroWinklerSimilarity(a.values[u], b.values[v]) >= threshold) {
        near_rows[u].insert(near_rows[u].end(), b.rows[v].begin(),
                            b.rows[v].end());
      }
    }
    a.counts[u].RemoveFrom(&counts);
    std::sort(near_rows[u].begin(), near_rows[u].end());
  }
  Counters().distinct_pairs->Increment(a.values.size() * b.values.size());
  Counters().scan_kernel_calls->Increment(calls);

  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t i = 0; i < left.size(); ++i) {
    if (a.row_value[i] < 0) continue;
    for (size_t j : near_rows[a.row_value[i]]) pairs.emplace_back(i, j);
  }
  return pairs;
}

std::vector<LabeledPair> SameEntityPairs(const Table& a, const Table& b) {
  std::unordered_map<int64_t, std::vector<size_t>> rows_by_id;
  for (size_t j = 0; j < b.num_rows(); ++j) {
    rows_by_id[b.row(j).entity_id].push_back(j);
  }
  std::vector<LabeledPair> pairs;
  for (size_t i = 0; i < a.num_rows(); ++i) {
    auto it = rows_by_id.find(a.row(i).entity_id);
    if (it == rows_by_id.end()) continue;
    for (size_t j : it->second) pairs.push_back({i, j, true});
  }
  return pairs;
}

bool MinDistanceNameSet::HasNear(std::string_view name) const {
  // k edits change the length by at most k, and the character counts by
  // at most 2k in L1 (a substitution moves two counts, an insertion or a
  // deletion one). L1 = |name| + |existing| - 2 * shared.
  const size_t k = static_cast<size_t>(std::max(max_edits_, 0));
  const size_t n = name.size();
  ByteCounts counts{};
  CharCounts(name).AddTo(&counts);
  bool near = false;
  uint64_t considered = 0;
  uint64_t calls = 0;
  const size_t lo = n > k ? n - k : 0;
  const size_t hi = std::min(n + k + 1, by_length_.size());
  for (size_t length = lo; length < hi && !near; ++length) {
    for (const Entry& existing : by_length_[length]) {
      ++considered;
      if (n + length - 2 * existing.counts.Shared(counts) > 2 * k) continue;
      ++calls;
      if (LevenshteinWithin(name, existing.name, max_edits_)) {
        near = true;
        break;
      }
    }
  }
  Counters().name_checks->Increment(considered);
  Counters().name_kernel_calls->Increment(calls);
  return near;
}

void MinDistanceNameSet::Add(std::string name) {
  if (name.size() >= by_length_.size()) by_length_.resize(name.size() + 1);
  CharCounts counts(name);
  by_length_[name.size()].push_back({std::move(name), std::move(counts)});
  ++size_;
}

}  // namespace fairem
