#include "src/serve/warm_state.h"

#include <utility>

#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace fairem {
namespace {

Result<DatasetKind> KindForName(const std::string& name) {
  for (DatasetKind kind : AllDatasetKinds()) {
    if (name == DatasetKindName(kind)) return kind;
  }
  return Status::NotFound("unknown dataset '" + name + "'");
}

}  // namespace

Result<WarmState> WarmState::Warm(const WarmStateOptions& options) {
  static Counter* cells_preloaded = MetricsRegistry::Global().GetCounter(
      "fairem.serve.cells_preloaded");
  static Counter* corrupt_checkpoints = MetricsRegistry::Global().GetCounter(
      "fairem.serve.corrupt_checkpoints");
  Span warm_span("fairem.serve.warmup");
  WarmState state;
  state.options_ = options;

  std::vector<DatasetKind> kinds;
  if (options.datasets.empty()) {
    kinds = AllDatasetKinds();
  } else {
    for (const std::string& name : options.datasets) {
      FAIREM_ASSIGN_OR_RETURN(DatasetKind kind, KindForName(name));
      kinds.push_back(kind);
    }
  }
  for (DatasetKind kind : kinds) {
    FAIREM_ASSIGN_OR_RETURN(
        EMDataset dataset,
        GenerateDataset(kind, options.scale, options.seed));
    FAIREM_LOG(INFO) << "warmed dataset" << LogKv("dataset", dataset.name)
                     << LogKv("pairs", dataset.AllPairs().size());
    state.datasets_[dataset.name] = std::move(dataset);
  }

  // Preload whatever a previous daemon or grid run checkpointed for the
  // warmed datasets. Corrupt entries (e.g. a file truncated by a crash
  // mid-write before the durable rename, or hand-edited) are WARNed and
  // skipped — the cell transparently re-runs on first query.
  CheckpointStore store(options.checkpoint_dir);
  if (store.enabled()) {
    for (const auto& [name, dataset] : state.datasets_) {
      for (MatcherKind matcher : AllMatcherKinds()) {
        for (bool pairwise : {false, true}) {
          const std::string key = AuditCellKey(name, matcher, pairwise);
          Result<std::string> payload = store.Load(key);
          if (!payload.ok()) {
            if (!payload.status().IsNotFound()) {
              FAIREM_LOG(WARN) << "checkpoint load failed, will re-run"
                               << LogKv("key", key)
                               << LogKv("status",
                                        payload.status().ToString());
            }
            continue;
          }
          Result<GridCellCheckpoint> cell = ParseAuditCell(*payload);
          if (!cell.ok()) {
            corrupt_checkpoints->Increment();
            FAIREM_LOG(WARN) << "corrupt cell checkpoint, will re-run"
                             << LogKv("key", key)
                             << LogKv("status", cell.status().ToString());
            continue;
          }
          state.cells_[key] = std::move(*payload);
          cells_preloaded->Increment();
        }
      }
    }
  }
  FAIREM_LOG(INFO) << "warm state ready"
                   << LogKv("datasets", state.datasets_.size())
                   << LogKv("cells_preloaded", state.cells_.size());
  return state;
}

Result<const EMDataset*> WarmState::Dataset(const std::string& name) const {
  auto it = datasets_.find(name);
  if (it != datasets_.end()) return &it->second;
  std::string warmed;
  for (const auto& [warm_name, dataset] : datasets_) {
    if (!warmed.empty()) warmed += ", ";
    warmed += warm_name;
  }
  return Status::NotFound("dataset '" + name +
                          "' is not warmed (warmed: " + warmed + ")");
}

const std::string* WarmState::CachedCell(const std::string& key) const {
  auto it = cells_.find(key);
  return it == cells_.end() ? nullptr : &it->second;
}

void WarmState::StoreCell(const std::string& key,
                          const std::string& cell_json) {
  cells_[key] = cell_json;
  CheckpointStore store(options_.checkpoint_dir);
  if (!store.enabled()) return;
  if (Status st = store.Save(key, cell_json); !st.ok()) {
    FAIREM_LOG(WARN) << "cell checkpoint save failed" << LogKv("key", key)
                     << LogKv("status", st.ToString());
  }
}

}  // namespace fairem
