#ifndef FAIREM_SERVE_WARM_STATE_H_
#define FAIREM_SERVE_WARM_STATE_H_

#include <map>
#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/datagen/benchmark_suite.h"
#include "src/harness/experiment.h"
#include "src/matcher/matcher.h"
#include "src/robust/checkpoint.h"
#include "src/util/result.h"

namespace fairem {

// The serve daemon's warmed state: generated benchmark datasets plus a
// cache of finished audit-cell results, loaded from (and persisted to) the
// same per-cell checkpoints the batch grid sweep writes. The state lives
// only in the daemon parent; query workers are forked, so they see a
// copy-on-write snapshot and can never corrupt it — post-crash queries
// read byte-identical warm data.

struct WarmStateOptions {
  /// Dataset names (DatasetKindName) to generate at warmup. Empty warms
  /// every benchmark dataset.
  std::vector<std::string> datasets;
  /// Forwarded to GenerateDataset.
  double scale = 1.0;
  uint64_t seed = 1234;
  /// When non-empty, finished cells persist here (atomic temp+rename JSON,
  /// keys compatible with `fairem grid --checkpoint_dir`) and warmup
  /// preloads whatever a previous daemon or grid run left behind. A
  /// checkpoint the grid would reject (ParseAuditCell: truncated, or an
  /// unknown measure name) is WARNed, counted in
  /// fairem.serve.corrupt_checkpoints, and transparently re-run on demand.
  std::string checkpoint_dir;
};

class WarmState {
 public:
  /// Generates the configured datasets and preloads checkpointed cells.
  /// Fails only when a dataset cannot be generated at all.
  static Result<WarmState> Warm(const WarmStateOptions& options);

  /// The warmed dataset, or NotFound (with the warmed names listed).
  Result<const EMDataset*> Dataset(const std::string& name) const;

  /// The cached cell JSON for this key, if a finished result is warm.
  const std::string* CachedCell(const std::string& key) const;

  /// Caches a finished cell result and, with a checkpoint_dir, persists it
  /// durably. Save failures are WARNed, not fatal — the in-memory cache
  /// still serves the result.
  void StoreCell(const std::string& key, const std::string& cell_json);

  size_t num_datasets() const { return datasets_.size(); }
  size_t num_cached_cells() const { return cells_.size(); }
  const WarmStateOptions& options() const { return options_; }

 private:
  WarmStateOptions options_;
  std::map<std::string, EMDataset> datasets_;
  std::map<std::string, std::string> cells_;  // cell key -> cell JSON
};

}  // namespace fairem

#endif  // FAIREM_SERVE_WARM_STATE_H_
