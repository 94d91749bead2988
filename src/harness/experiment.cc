#include "src/harness/experiment.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>

#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace.h"
#include "src/report/grid.h"
#include "src/robust/checkpoint.h"
#include "src/robust/failpoint.h"
#include "src/robust/supervisor.h"
#include "src/util/string_util.h"
#include "src/util/thread_pool.h"

namespace fairem {
namespace {

/// One report's view of the score cache (DESIGN.md §18): each supported
/// matcher's test scores under `<checkpoint_dir>/scores/`, keyed by
/// (dataset, matcher) and valid only for the same matcher seed and
/// DatasetFingerprint. Disabled without a checkpoint dir. The fingerprint
/// is computed on the first lookup, so a report replayed entirely from cell
/// checkpoints never pays for it.
class ScoreCache {
 public:
  ScoreCache(const EMDataset& dataset, const GridRunOptions& options)
      : dataset_(dataset),
        seed_(options.seed),
        store_(options.checkpoint_dir.empty()
                   ? ""
                   : options.checkpoint_dir + "/scores") {}

  bool enabled() const { return store_.enabled(); }

  uint64_t fingerprint() {
    if (!fingerprint_) fingerprint_ = DatasetFingerprint(dataset_);
    return *fingerprint_;
  }

  /// The cached test scores of `matcher`, or nullopt on a miss: no entry,
  /// or one that is corrupt, of the wrong length, or computed under another
  /// seed or dataset (stale).
  std::optional<std::vector<double>> Load(const std::string& matcher) {
    static Counter* hits = MetricsRegistry::Global().GetCounter(
        "fairem.harness.score_cache_hits");
    static Counter* misses = MetricsRegistry::Global().GetCounter(
        "fairem.harness.score_cache_misses");
    static Counter* stale = MetricsRegistry::Global().GetCounter(
        "fairem.harness.score_cache_stale");
    if (!enabled()) return std::nullopt;
    const std::string key = dataset_.name + "." + matcher;
    Result<std::string> payload = store_.Load(key);
    if (!payload.ok()) {
      misses->Increment();
      if (!payload.status().IsNotFound()) {
        FAIREM_LOG(WARN) << "score cache load failed, refitting"
                         << LogKv("key", key)
                         << LogKv("status", payload.status().ToString());
      }
      return std::nullopt;
    }
    Result<ScoreCacheEntry> entry = ScoreEntryFromJson(*payload);
    if (const char* reason = StaleReason(entry, matcher)) {
      misses->Increment();
      stale->Increment();
      FAIREM_LOG(INFO) << "stale score cache entry, refitting"
                       << LogKv("key", key)
                       << LogKv("reason", entry.ok()
                                              ? std::string(reason)
                                              : entry.status().ToString());
      return std::nullopt;
    }
    hits->Increment();
    return std::move(entry->scores);
  }

  /// Durably saves a fitted run's scores. A failed save only WARNs: it
  /// costs the next report a refit, never this cell.
  void Save(const std::string& matcher, const std::vector<double>& scores) {
    if (!enabled()) return;
    const std::string key = dataset_.name + "." + matcher;
    ScoreCacheEntry entry{dataset_.name, matcher, seed_, fingerprint(),
                          scores};
    if (Status st = store_.Save(key, ScoreEntryToJson(entry)); !st.ok()) {
      FAIREM_LOG(WARN) << "score cache save failed" << LogKv("key", key)
                       << LogKv("status", st.ToString());
    }
  }

 private:
  /// Why `entry` cannot stand in for a fit of `matcher`; nullptr if it can.
  const char* StaleReason(const Result<ScoreCacheEntry>& entry,
                          const std::string& matcher) {
    if (!entry.ok()) return "corrupt";
    if (entry->dataset != dataset_.name || entry->matcher != matcher) {
      return "wrong key";
    }
    if (entry->seed != seed_) return "seed changed";
    if (entry->fingerprint != fingerprint()) return "dataset changed";
    if (entry->scores.size() != dataset_.test.size()) return "wrong length";
    return nullptr;
  }

  const EMDataset& dataset_;
  uint64_t seed_;
  CheckpointStore store_;
  std::optional<uint64_t> fingerprint_;
};

/// RunMatcher behind the score cache: a valid cached entry stands in for
/// Fit + PredictScores (no fit span, no matcher_fit/matcher_predict
/// failpoint, no matcher_runs increment); a miss fits and then saves.
Result<MatcherRun> RunMatcherCached(const EMDataset& dataset,
                                    MatcherKind kind, uint64_t seed,
                                    ScoreCache* cache) {
  static Counter* runs =
      MetricsRegistry::Global().GetCounter("fairem.harness.matcher_runs");
  static Counter* unsupported = MetricsRegistry::Global().GetCounter(
      "fairem.harness.unsupported_runs");
  static Histogram* fit_hist =
      MetricsRegistry::Global().GetHistogram("fairem.matcher.fit_seconds");
  static Histogram* predict_hist =
      MetricsRegistry::Global().GetHistogram("fairem.matcher.predict_seconds");

  MatcherRun run;
  run.kind = kind;
  run.matcher_name = MatcherKindName(kind);
  std::unique_ptr<Matcher> matcher = CreateMatcher(kind);
  if (matcher == nullptr) {
    return Status::Internal("CreateMatcher returned null");
  }
  if (!matcher->SupportsDataset(dataset)) {
    run.supported = false;
    unsupported->Increment();
    return run;
  }
  std::optional<std::vector<double>> cached =
      cache == nullptr ? std::nullopt : cache->Load(run.matcher_name);
  if (cached) {
    run.test_scores = std::move(*cached);
  } else {
    runs->Increment();
    Rng rng(seed ^ (static_cast<uint64_t>(kind) * 0x9e3779b97f4a7c15ULL));
    // Generic and per-matcher injection sites, so fault-injection runs can
    // target "all fits" (matcher_fit=error(0.05)) or a single system
    // (matcher_fit.Ditto=crash(1)).
    FAIREM_FAILPOINT("matcher_fit");
    FAIREM_FAILPOINT("matcher_fit." + run.matcher_name);
    {
      // fit_seconds comes from the span's own monotonic clock, so the
      // harness-reported number and the trace event can never disagree.
      Span span("fairem.matcher.fit", &run.fit_seconds);
      span.AddArg("matcher", run.matcher_name);
      span.AddArg("dataset", dataset.name);
      FAIREM_RETURN_NOT_OK(matcher->Fit(dataset, &rng));
    }
    fit_hist->Observe(run.fit_seconds);
    MetricsRegistry::Global()
        .GetHistogram("fairem.matcher." + run.matcher_name + ".fit_seconds")
        ->Observe(run.fit_seconds);
    FAIREM_FAILPOINT("matcher_predict");
    FAIREM_FAILPOINT("matcher_predict." + run.matcher_name);
    {
      Span span("fairem.matcher.predict", &run.predict_seconds);
      span.AddArg("matcher", run.matcher_name);
      span.AddArg("dataset", dataset.name);
      span.AddArg("pairs", std::to_string(dataset.test.size()));
      FAIREM_ASSIGN_OR_RETURN(run.test_scores,
                              matcher->PredictScores(dataset, dataset.test));
    }
    predict_hist->Observe(run.predict_seconds);
    MetricsRegistry::Global()
        .GetHistogram("fairem.matcher." + run.matcher_name +
                      ".predict_seconds")
        ->Observe(run.predict_seconds);
  }
  FAIREM_ASSIGN_OR_RETURN(std::vector<PairOutcome> outcomes,
                          MakeOutcomes(dataset.test, run.test_scores,
                                       dataset.default_threshold));
  run.counts = OverallCounts(outcomes);
  run.accuracy = Accuracy(run.counts).value_or(0.0);
  run.f1 = F1Score(run.counts).value_or(0.0);
  // Only a fresh run that MakeOutcomes accepted (every score finite) is
  // saved, before the caller audits it.
  if (!cached && cache != nullptr) {
    cache->Save(run.matcher_name, run.test_scores);
  }
  FAIREM_LOG(DEBUG) << "matcher run complete"
                    << LogKv("matcher", run.matcher_name)
                    << LogKv("dataset", dataset.name)
                    << LogKv("cached", cached ? "true" : "false")
                    << LogKv("fit_s", FormatDouble(run.fit_seconds, 4))
                    << LogKv("predict_s", FormatDouble(run.predict_seconds, 4))
                    << LogKv("f1", FormatDouble(run.f1, 3));
  return run;
}

}  // namespace

Result<MatcherRun> RunMatcher(const EMDataset& dataset, MatcherKind kind,
                              uint64_t seed) {
  return RunMatcherCached(dataset, kind, seed, /*cache=*/nullptr);
}

Result<FairnessAuditor> MakeAuditor(const EMDataset& dataset) {
  SensitiveAttr attr;
  attr.name = dataset.sensitive_attr;
  attr.kind = dataset.sensitive_kind;
  attr.setwise_separator = dataset.setwise_separator;
  return FairnessAuditor::Make(dataset.table_a, dataset.table_b, attr);
}

Result<AuditReport> AuditRunSingle(const EMDataset& dataset,
                                   const MatcherRun& run,
                                   const AuditOptions& options) {
  FAIREM_ASSIGN_OR_RETURN(FairnessAuditor auditor, MakeAuditor(dataset));
  FAIREM_ASSIGN_OR_RETURN(std::vector<PairOutcome> outcomes,
                          MakeOutcomes(dataset.test, run.test_scores,
                                       dataset.default_threshold));
  return auditor.AuditSingle(outcomes, options);
}

Result<AuditReport> AuditRunPairwise(const EMDataset& dataset,
                                     const MatcherRun& run,
                                     const AuditOptions& options) {
  FAIREM_ASSIGN_OR_RETURN(FairnessAuditor auditor, MakeAuditor(dataset));
  FAIREM_ASSIGN_OR_RETURN(std::vector<PairOutcome> outcomes,
                          MakeOutcomes(dataset.test, run.test_scores,
                                       dataset.default_threshold));
  return auditor.AuditPairwise(outcomes, options);
}

Result<std::vector<GroupRates>> GroupBreakdown(const EMDataset& dataset,
                                               const MatcherRun& run) {
  FAIREM_ASSIGN_OR_RETURN(FairnessAuditor auditor, MakeAuditor(dataset));
  FAIREM_ASSIGN_OR_RETURN(std::vector<PairOutcome> outcomes,
                          MakeOutcomes(dataset.test, run.test_scores,
                                       dataset.default_threshold));
  std::vector<GroupRates> breakdown;
  for (const auto& group : auditor.groups()) {
    FAIREM_ASSIGN_OR_RETURN(uint64_t mask,
                            auditor.membership().encoding().Encode({group}));
    GroupRates rates;
    rates.group = group;
    rates.counts = SingleGroupCounts(auditor.membership(), outcomes, mask);
    breakdown.push_back(std::move(rates));
  }
  return breakdown;
}


namespace {

/// A checkpointed cell is only as good as its measure names; parse them all
/// before accepting it, so a corrupt checkpoint falls back to a live re-run.
Status ValidateCellMeasures(const GridCellCheckpoint& cell) {
  for (const auto& mark : cell.marks) {
    FAIREM_ASSIGN_OR_RETURN(FairnessMeasure m,
                            ParseFairnessMeasure(mark.measure));
    (void)m;
  }
  return Status::OK();
}

/// Replays a (fresh or checkpointed) cell into the grid. Validates before
/// mutating so a corrupt checkpoint can fall back to a live re-run without
/// leaving half a cell behind.
Status ApplyCellToGrid(const GridCellCheckpoint& cell, UnfairnessGrid* grid) {
  std::vector<FairnessMeasure> measures;
  measures.reserve(cell.marks.size());
  for (const auto& mark : cell.marks) {
    FAIREM_ASSIGN_OR_RETURN(FairnessMeasure m,
                            ParseFairnessMeasure(mark.measure));
    measures.push_back(m);
  }
  if (cell.error) {
    grid->AddError(cell.matcher, cell.status);
    return Status::OK();
  }
  for (size_t i = 0; i < cell.marks.size(); ++i) {
    grid->MarkCell(cell.marker, cell.marks[i].group, measures[i],
                   cell.marks[i].unfair);
  }
  return Status::OK();
}

/// One grid cell end to end: train (or read the scores from `scores`) +
/// audit, converted to the checkpointable representation. Failures
/// propagate as Status for the retry wrapper.
Result<GridCellCheckpoint> RunGridCell(const EMDataset& dataset,
                                       MatcherKind kind, bool pairwise,
                                       const GridRunOptions& options,
                                       ScoreCache* scores) {
  FAIREM_FAILPOINT("grid_cell");
  GridCellCheckpoint cell;
  cell.matcher = MatcherKindName(kind);
  FAIREM_ASSIGN_OR_RETURN(
      MatcherRun run, RunMatcherCached(dataset, kind, options.seed, scores));
  cell.marker = MatcherMarker(run.matcher_name);
  cell.supported = run.supported;
  if (!run.supported) return cell;
  FAIREM_ASSIGN_OR_RETURN(
      AuditReport report,
      pairwise ? AuditRunPairwise(dataset, run, options.audit)
               : AuditRunSingle(dataset, run, options.audit));
  cell.marks.reserve(report.entries.size());
  for (const auto& entry : report.entries) {
    cell.marks.push_back({entry.group_label, FairnessMeasureName(entry.measure),
                          entry.unfair});
  }
  FAIREM_LOG(INFO) << "audited matcher" << LogKv("matcher", run.matcher_name)
                   << LogKv("dataset", dataset.name)
                   << LogKv("mode", pairwise ? "pairwise" : "single")
                   << LogKv("unfair_cells", report.UnfairEntries().size());
  return cell;
}

/// One (matcher, mode) cell of the sweep, resolved from a checkpoint, a
/// live in-process run, or a supervised worker.
struct CellSlot {
  MatcherKind kind = MatcherKind::kDT;
  std::string key;
  bool resolved = false;
  GridCellCheckpoint cell;
};

/// jobs == 1 with no watchdog/rlimit knobs keeps the sequential in-process
/// path; anything else needs process isolation.
bool UseSupervisedExecutor(const GridRunOptions& options) {
  return options.jobs > 1 || options.cell_timeout_s > 0.0 ||
         options.cell_max_rss_mb > 0 || options.cell_max_cpu_s > 0;
}

GridCellCheckpoint MakeErrorCell(MatcherKind kind, const Status& status) {
  GridCellCheckpoint cell;
  cell.matcher = MatcherKindName(kind);
  cell.marker = MatcherMarker(cell.matcher);
  cell.error = true;
  cell.status = status.ToString();
  return cell;
}

}  // namespace

Result<GridCellCheckpoint> RunAuditCell(const EMDataset& dataset,
                                        MatcherKind kind, bool pairwise,
                                        const GridRunOptions& options) {
  ScoreCache scores(dataset, options);
  return RunGridCell(dataset, kind, pairwise, options, &scores);
}

std::string AuditCellKey(const std::string& dataset_name, MatcherKind kind,
                         bool pairwise) {
  return dataset_name + "." + (pairwise ? "pairwise" : "single") + "." +
         MatcherKindName(kind);
}

Result<std::string> UnfairnessGridReport(const EMDataset& dataset,
                                         bool pairwise,
                                         const GridRunOptions& options) {
  static Counter* checkpoint_hits = MetricsRegistry::Global().GetCounter(
      "fairem.robust.checkpoint_cells_loaded");
  static Counter* checkpoint_writes = MetricsRegistry::Global().GetCounter(
      "fairem.robust.checkpoint_cells_saved");
  static Counter* error_cells =
      MetricsRegistry::Global().GetCounter("fairem.robust.grid_error_cells");
  Span grid_span("fairem.harness.unfairness_grid");
  grid_span.AddArg("dataset", dataset.name);
  grid_span.AddArg("mode", pairwise ? "pairwise" : "single");
  // Applied before any forking so supervised workers inherit the setting;
  // they rebuild their own pool lazily (the parent's is abandoned at fork).
  SetIntraJobs(options.intra_jobs);
  const char* mode = pairwise ? "pairwise" : "single";
  CheckpointStore store(options.checkpoint_dir);
  ScoreCache scores(dataset, options);
  // SIGINT/SIGTERM now request a cooperative stop: workers are reaped,
  // completed state stays on disk, and the report returns Cancelled.
  ShutdownGuard shutdown_guard;

  std::vector<CellSlot> slots;
  for (MatcherKind kind : AllMatcherKinds()) {
    if (std::find(options.skip.begin(), options.skip.end(), kind) !=
        options.skip.end()) {
      continue;
    }
    CellSlot slot;
    slot.kind = kind;
    slot.key = dataset.name + "." + mode + "." + MatcherKindName(kind);
    slots.push_back(std::move(slot));
  }

  // Phase 1: replay whatever a previous run already persisted.
  if (store.enabled()) {
    for (CellSlot& slot : slots) {
      Result<std::string> payload = store.Load(slot.key);
      if (payload.ok()) {
        Result<GridCellCheckpoint> cell = GridCellFromJson(*payload);
        if (cell.ok() && ValidateCellMeasures(*cell).ok()) {
          slot.cell = std::move(*cell);
          slot.resolved = true;
          checkpoint_hits->Increment();
          if (slot.cell.error) error_cells->Increment();
          FAIREM_LOG(INFO) << "grid cell loaded from checkpoint"
                           << LogKv("key", slot.key);
          continue;
        }
        FAIREM_LOG(WARN)
            << "corrupt checkpoint, re-running cell" << LogKv("key", slot.key)
            << LogKv("status", cell.ok() ? "bad measure name"
                                         : cell.status().ToString());
      } else if (!payload.status().IsNotFound()) {
        FAIREM_LOG(WARN) << "checkpoint load failed, re-running cell"
                         << LogKv("key", slot.key)
                         << LogKv("status", payload.status().ToString());
      }
    }
  }

  // Live progress: gauges/ETA always, stderr line only with
  // options.progress. Checkpoint-replayed cells count as done up front.
  ProgressReporter reporter(slots.size(), options.jobs,
                            /*min_interval_seconds=*/0.5,
                            /*emit_stderr=*/options.progress);
  size_t progress_done = 0;
  size_t progress_failed = 0;
  for (const CellSlot& slot : slots) {
    if (slot.resolved) {
      ++progress_done;
      if (slot.cell.error) ++progress_failed;
    }
  }
  auto progress_base = [&]() {
    ProgressSnapshot snap;
    snap.total = slots.size();
    snap.done = progress_done;
    snap.failed = progress_failed;
    return snap;
  };
  reporter.Update(progress_base());

  // Phase 2: run the remaining cells — forked workers under the supervisor,
  // or in-process with RetryCall.
  if (UseSupervisedExecutor(options)) {
    std::vector<size_t> todo;
    for (size_t i = 0; i < slots.size(); ++i) {
      if (!slots[i].resolved) todo.push_back(i);
    }
    std::vector<Supervisor::Task> tasks;
    tasks.reserve(todo.size());
    for (size_t i : todo) {
      Supervisor::Task task;
      task.key = slots[i].key;
      task.run = [&, i]() -> Result<std::string> {
        FAIREM_ASSIGN_OR_RETURN(
            GridCellCheckpoint cell,
            RunGridCell(dataset, slots[i].kind, pairwise, options, &scores));
        std::string json = GridCellToJson(cell);
        // The worker persists its own cell (the supervisor also gets the
        // payload over the pipe, so a broken store degrades resumability
        // only).
        if (store.enabled()) {
          if (Status st = store.Save(slots[i].key, json); !st.ok()) {
            FAIREM_LOG(WARN) << "checkpoint save failed in worker"
                             << LogKv("key", slots[i].key)
                             << LogKv("status", st.ToString());
          }
        }
        return json;
      };
      tasks.push_back(std::move(task));
    }
    // Fingerprint the dataset once, before forking, rather than once per
    // worker.
    if (scores.enabled() && !todo.empty()) scores.fingerprint();
    SupervisorOptions sup;
    sup.jobs = options.jobs;
    sup.cell_timeout_s = options.cell_timeout_s;
    sup.cell_max_rss_mb = options.cell_max_rss_mb;
    sup.cell_max_cpu_s = options.cell_max_cpu_s;
    sup.max_attempts = options.retry.max_attempts;
    // The supervisor reports its own task universe; shift it by the cells
    // already replayed from checkpoints so the line reads against the full
    // grid.
    const size_t base_done = progress_done;
    const size_t base_failed = progress_failed;
    sup.on_progress = [&](const ProgressSnapshot& snap) {
      ProgressSnapshot adjusted = snap;
      adjusted.total = slots.size();
      adjusted.done += base_done;
      adjusted.failed += base_failed;
      reporter.Update(adjusted);
    };
    Supervisor supervisor(sup);
    FAIREM_ASSIGN_OR_RETURN(std::vector<TaskOutcome> outcomes,
                            supervisor.Run(tasks));
    for (size_t t = 0; t < todo.size(); ++t) {
      CellSlot& slot = slots[todo[t]];
      const TaskOutcome& outcome = outcomes[t];
      if (outcome.kind == TaskOutcome::Kind::kOk) {
        Result<GridCellCheckpoint> cell = GridCellFromJson(outcome.payload);
        if (cell.ok() && ValidateCellMeasures(*cell).ok()) {
          slot.cell = std::move(*cell);
          slot.resolved = true;
          if (store.enabled() &&
              std::filesystem::exists(store.PathFor(slot.key))) {
            checkpoint_writes->Increment();
          }
          continue;
        }
        slot.cell = MakeErrorCell(
            slot.kind, Status::Internal("worker shipped an unparseable cell: " +
                                        cell.status().ToString()));
      } else {
        // Graceful degradation, as in sequential mode: the crashed / hung /
        // failed cell becomes an error entry instead of killing the sweep.
        slot.cell = MakeErrorCell(slot.kind, outcome.status);
      }
      slot.resolved = true;
      error_cells->Increment();
      FAIREM_LOG(ERROR) << "grid cell unavailable after supervised attempts"
                        << LogKv("key", slot.key)
                        << LogKv("outcome", TaskOutcomeKindName(outcome.kind))
                        << LogKv("attempts", outcome.attempts)
                        << LogKv("status", slot.cell.status);
      if (store.enabled()) {
        if (Status st = store.Save(slot.key, GridCellToJson(slot.cell));
            !st.ok()) {
          FAIREM_LOG(WARN) << "checkpoint save failed" << LogKv("key", slot.key)
                           << LogKv("status", st.ToString());
        } else {
          checkpoint_writes->Increment();
        }
      }
    }
  } else {
    for (CellSlot& slot : slots) {
      if (slot.resolved) continue;
      if (ShutdownGuard::requested()) {
        return Status::Cancelled(
            "grid run interrupted by signal " +
            std::to_string(ShutdownGuard::signal_number()));
      }
      double cell_seconds = 0.0;
      Result<GridCellCheckpoint> cell = [&]() {
        ScopedTimer timer(&cell_seconds);
        return RetryCall(options.retry,
                         [&]() {
                           return RunGridCell(dataset, slot.kind, pairwise,
                                              options, &scores);
                         },
                         options.seed ^ (static_cast<uint64_t>(slot.kind) + 1) *
                                            0x9e3779b97f4a7c15ULL);
      }();
      if (cell.ok()) {
        slot.cell = std::move(*cell);
      } else {
        // Graceful degradation: the cell is reported as an error entry (the
        // grid's "-") instead of aborting the whole report.
        slot.cell = MakeErrorCell(slot.kind, cell.status());
        error_cells->Increment();
        FAIREM_LOG(ERROR) << "grid cell failed after retries"
                          << LogKv("key", slot.key)
                          << LogKv("status", slot.cell.status);
      }
      slot.resolved = true;
      ++progress_done;
      if (slot.cell.error) ++progress_failed;
      {
        ProgressSnapshot snap = progress_base();
        snap.last_cell_seconds = cell_seconds;
        reporter.Update(snap);
      }
      if (store.enabled()) {
        if (Status st = store.Save(slot.key, GridCellToJson(slot.cell));
            !st.ok()) {
          // A broken checkpoint dir degrades resumability, not the report.
          FAIREM_LOG(WARN) << "checkpoint save failed" << LogKv("key", slot.key)
                           << LogKv("status", st.ToString());
        } else {
          checkpoint_writes->Increment();
        }
      }
    }
  }

  // Final (forced) progress line: every slot is resolved by now.
  progress_done = 0;
  progress_failed = 0;
  for (const CellSlot& slot : slots) {
    ++progress_done;
    if (slot.cell.error) ++progress_failed;
  }
  reporter.Update(progress_base(), /*force=*/true);

  // Phase 3: apply in sweep order — column order is first-seen, so this is
  // what makes parallel and sequential reports byte-identical.
  UnfairnessGrid grid;
  for (const CellSlot& slot : slots) {
    FAIREM_RETURN_NOT_OK(ApplyCellToGrid(slot.cell, &grid));
  }
  return grid.Render();
}

Result<std::string> UnfairnessGridReport(const EMDataset& dataset,
                                         bool pairwise,
                                         const AuditOptions& options,
                                         const std::vector<MatcherKind>& skip) {
  GridRunOptions grid_options;
  grid_options.audit = options;
  grid_options.skip = skip;
  return UnfairnessGridReport(dataset, pairwise, grid_options);
}

}  // namespace fairem
