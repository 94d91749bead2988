#include "src/data/dataset.h"

#include <cmath>
#include <cstring>
#include <string_view>

namespace fairem {
namespace {

/// FNV-1a over a length-prefixed field stream.
class FingerprintHasher {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void U64(uint64_t v) {
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<unsigned char>(v >> (8 * i));
    }
    Bytes(bytes, sizeof(bytes));
  }
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void Table(const fairem::Table& table) {
    Str(table.name());
    U64(table.schema().num_attributes());
    for (const std::string& attr : table.schema().names()) Str(attr);
    U64(table.num_rows());
    for (size_t r = 0; r < table.num_rows(); ++r) {
      const Record& record = table.row(r);
      U64(static_cast<uint64_t>(record.entity_id));
      U64(record.cells.size());
      for (const Cell& cell : record.cells) {
        U64(cell.has_value() ? 1 : 0);
        if (cell.has_value()) Str(*cell);
      }
    }
  }
  void Pairs(const std::vector<LabeledPair>& pairs) {
    U64(pairs.size());
    for (const LabeledPair& p : pairs) {
      U64(p.left);
      U64(p.right);
      U64(p.is_match ? 1 : 0);
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace

const char* SensitiveAttrKindName(SensitiveAttrKind kind) {
  switch (kind) {
    case SensitiveAttrKind::kBinary:
      return "binary";
    case SensitiveAttrKind::kMultiValued:
      return "multi_valued";
    case SensitiveAttrKind::kSetwise:
      return "setwise";
  }
  return "unknown";
}

double EMDataset::PositiveRate() const {
  size_t total = train.size() + valid.size() + test.size();
  if (total == 0) return 0.0;
  size_t positives = 0;
  for (const auto* split : {&train, &valid, &test}) {
    for (const auto& p : *split) {
      if (p.is_match) ++positives;
    }
  }
  return static_cast<double>(positives) / static_cast<double>(total);
}

uint64_t DatasetFingerprint(const EMDataset& dataset) {
  FingerprintHasher h;
  h.Str(dataset.name);
  h.Table(dataset.table_a);
  h.Table(dataset.table_b);
  h.Pairs(dataset.train);
  h.Pairs(dataset.valid);
  h.Pairs(dataset.test);
  h.U64(dataset.matching_attrs.size());
  for (const std::string& attr : dataset.matching_attrs) h.Str(attr);
  h.Str(dataset.sensitive_attr);
  h.U64(static_cast<uint64_t>(dataset.sensitive_kind));
  h.U64(static_cast<unsigned char>(dataset.setwise_separator));
  uint64_t threshold_bits = 0;
  std::memcpy(&threshold_bits, &dataset.default_threshold,
              sizeof(threshold_bits));
  h.U64(threshold_bits);
  h.U64(dataset.simulated_full_scale_pairs);
  return h.value();
}

std::vector<LabeledPair> EMDataset::AllPairs() const {
  std::vector<LabeledPair> all;
  all.reserve(train.size() + valid.size() + test.size());
  all.insert(all.end(), train.begin(), train.end());
  all.insert(all.end(), valid.begin(), valid.end());
  all.insert(all.end(), test.begin(), test.end());
  return all;
}

Status EMDataset::Validate() const {
  for (const auto* split : {&train, &valid, &test}) {
    for (const auto& p : *split) {
      if (p.left >= table_a.num_rows() || p.right >= table_b.num_rows()) {
        return Status::OutOfRange("pair index out of range in dataset '" +
                                  name + "'");
      }
    }
  }
  for (const auto& attr : matching_attrs) {
    if (!table_a.schema().Contains(attr) || !table_b.schema().Contains(attr)) {
      return Status::InvalidArgument("matching attribute '" + attr +
                                     "' missing from a table schema");
    }
  }
  if (!table_a.schema().Contains(sensitive_attr) ||
      !table_b.schema().Contains(sensitive_attr)) {
    return Status::InvalidArgument("sensitive attribute '" + sensitive_attr +
                                   "' missing from a table schema");
  }
  if (default_threshold < 0.0 || default_threshold > 1.0) {
    return Status::InvalidArgument("default threshold out of [0,1]");
  }
  return Status::OK();
}

Status SplitPairs(std::vector<LabeledPair> pairs, double train_frac,
                  double valid_frac, Rng* rng,
                  std::vector<LabeledPair>* train,
                  std::vector<LabeledPair>* valid,
                  std::vector<LabeledPair>* test) {
  if (train_frac < 0.0 || valid_frac < 0.0 ||
      train_frac + valid_frac > 1.0 + 1e-9) {
    return Status::InvalidArgument("invalid split fractions");
  }
  rng->Shuffle(&pairs);
  size_t n = pairs.size();
  size_t n_train = static_cast<size_t>(std::floor(train_frac * n));
  size_t n_valid = static_cast<size_t>(std::floor(valid_frac * n));
  train->assign(pairs.begin(), pairs.begin() + n_train);
  valid->assign(pairs.begin() + n_train, pairs.begin() + n_train + n_valid);
  test->assign(pairs.begin() + n_train + n_valid, pairs.end());
  return Status::OK();
}

}  // namespace fairem
