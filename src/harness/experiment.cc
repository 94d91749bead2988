#include "src/harness/experiment.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>

#include "src/matcher/ml_matchers.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace.h"
#include "src/report/grid.h"
#include "src/robust/checkpoint.h"
#include "src/robust/failpoint.h"
#include "src/robust/supervisor.h"
#include "src/util/flags.h"
#include "src/util/string_util.h"
#include "src/util/thread_pool.h"

namespace fairem {
namespace {

// Registered when the library loads, so that every snapshot carries them.
Counter* const kUnsupportedRuns = MetricsRegistry::Global().GetCounter(
    "fairem.harness.unsupported_runs");
// The shared feature tables' counters (DESIGN.md §22).
Counter* const kTablesBuilt = MetricsRegistry::Global().GetCounter(
    "fairem.harness.feature_tables_built");  // two per dataset
Counter* const kTablesReused = MetricsRegistry::Global().GetCounter(
    "fairem.harness.feature_tables_reused");  // per fit and per predict

/// Fills `run`'s confusion counts, accuracy and F1 from its test scores at
/// the dataset's default threshold; a non-finite score is an error.
Status TallyRun(const EMDataset& dataset, MatcherRun* run) {
  FAIREM_ASSIGN_OR_RETURN(std::vector<PairOutcome> outcomes,
                          MakeOutcomes(dataset.test, run->test_scores,
                                       dataset.default_threshold));
  run->counts = OverallCounts(outcomes);
  run->accuracy = Accuracy(run->counts).value_or(0.0);
  run->f1 = F1Score(run->counts).value_or(0.0);
  return Status::OK();
}

Result<std::unique_ptr<Matcher>> NewMatcher(MatcherKind kind) {
  std::unique_ptr<Matcher> matcher = CreateMatcher(kind);
  if (matcher == nullptr) {
    return Status::Internal("CreateMatcher returned null");
  }
  return matcher;
}

/// Whether `matcher` fits on a dataset's shared feature tables.
bool UsesFeatureTables(const Matcher& matcher) {
  return dynamic_cast<const FeatureClassifierMatcher*>(&matcher) != nullptr;
}

/// The `scores/` key of `kind` on `dataset`.
std::string ScoresKey(const EMDataset& dataset, MatcherKind kind) {
  return dataset.name + "." + MatcherKindName(kind);
}

/// The run of a matcher that does not support the dataset (Table 9's "-").
MatcherRun UnsupportedRun(MatcherKind kind) {
  kUnsupportedRuns->Increment();
  MatcherRun run;
  run.kind = kind;
  run.matcher_name = MatcherKindName(kind);
  run.supported = false;
  return run;
}

/// Fits `matcher` (of `kind`, already known to support `dataset`) and
/// scores the test split. `features`, when given, are handed to a
/// feature-based matcher.
Result<MatcherRun> FitAndPredict(Matcher* matcher, const EMDataset& dataset,
                                 MatcherKind kind, uint64_t seed,
                                 const DatasetFeatures* features) {
  static Counter* runs =
      MetricsRegistry::Global().GetCounter("fairem.harness.matcher_runs");
  static Histogram* fit_hist =
      MetricsRegistry::Global().GetHistogram("fairem.matcher.fit_seconds");
  static Histogram* predict_hist =
      MetricsRegistry::Global().GetHistogram("fairem.matcher.predict_seconds");

  MatcherRun run;
  run.kind = kind;
  run.matcher_name = MatcherKindName(kind);
  auto* feature_matcher = dynamic_cast<FeatureClassifierMatcher*>(matcher);
  const bool shared = features != nullptr && feature_matcher != nullptr;
  if (shared) feature_matcher->ShareFeatures(features);
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
  if (shared) kTablesReused->Increment();
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
  if (shared) kTablesReused->Increment();
  predict_hist->Observe(run.predict_seconds);
  MetricsRegistry::Global()
      .GetHistogram("fairem.matcher." + run.matcher_name + ".predict_seconds")
      ->Observe(run.predict_seconds);
  FAIREM_RETURN_NOT_OK(TallyRun(dataset, &run));
  FAIREM_LOG(DEBUG) << "matcher run complete"
                    << LogKv("matcher", run.matcher_name)
                    << LogKv("dataset", dataset.name)
                    << LogKv("fit_s", FormatDouble(run.fit_seconds, 4))
                    << LogKv("predict_s", FormatDouble(run.predict_seconds, 4))
                    << LogKv("f1", FormatDouble(run.f1, 3));
  return run;
}

}  // namespace

Result<MatcherRun> RunMatcher(const EMDataset& dataset, MatcherKind kind,
                              uint64_t seed, const DatasetFeatures* features) {
  FAIREM_ASSIGN_OR_RETURN(std::unique_ptr<Matcher> matcher, NewMatcher(kind));
  if (!matcher->SupportsDataset(dataset)) return UnsupportedRun(kind);
  return FitAndPredict(matcher.get(), dataset, kind, seed, features);
}

RunStore::RunStore(const GridRunOptions& options)
    : seed_(options.seed),
      scores_(options.checkpoint_dir.empty()
                  ? ""
                  : options.checkpoint_dir + "/scores") {}

Result<const MatcherRun*> RunStore::Run(const EMDataset& dataset,
                                        MatcherKind kind) {
  const auto key = std::make_pair(dataset.name, kind);
  auto it = runs_.find(key);
  if (it == runs_.end()) {
    Result<MatcherRun> run = Miss(dataset, kind);
    if (!run.ok() && IsRetryableStatus(run.status())) return run.status();
    it = runs_.emplace(key, std::move(run)).first;
  }
  if (!it->second.ok()) return it->second.status();
  return &*it->second;
}

void RunStore::Forget(const EMDataset& dataset, MatcherKind kind) {
  runs_.erase({dataset.name, kind});
}

void RunStore::PrepareFork(const EMDataset& dataset,
                           const std::vector<MatcherKind>& pending) {
  if (scores_.enabled()) Fingerprint(dataset);
  for (MatcherKind kind : pending) {
    std::unique_ptr<Matcher> matcher = CreateMatcher(kind);
    const bool needs_tables =
        matcher != nullptr && UsesFeatureTables(*matcher) &&
        runs_.count({dataset.name, kind}) == 0 &&
        !(scores_.enabled() && std::filesystem::exists(scores_.PathFor(
                                   ScoresKey(dataset, kind)))) &&
        matcher->SupportsDataset(dataset);
    if (!needs_tables) continue;
    // Kept, or not, as on a first fit: a worker meets a kept failure
    // again, and builds the tables itself after a retryable one.
    (void)Features(dataset);
    return;
  }
}

uint64_t RunStore::Fingerprint(const EMDataset& dataset) {
  auto [it, inserted] = fingerprints_.try_emplace(dataset.name, 0);
  if (inserted) it->second = DatasetFingerprint(dataset);
  return it->second;
}

Result<const DatasetFeatures*> RunStore::Features(const EMDataset& dataset) {
  auto it = features_.find(dataset.name);
  if (it == features_.end()) {
    Result<DatasetFeatures> built = BuildDatasetFeatures(dataset);
    if (!built.ok() && IsRetryableStatus(built.status())) {
      return built.status();
    }
    if (built.ok()) kTablesBuilt->Increment(2);
    it = features_.emplace(dataset.name, std::move(built)).first;
  }
  if (!it->second.ok()) return it->second.status();
  return &*it->second;
}

Result<MatcherRun> RunStore::FitRun(Matcher* matcher,
                                    const EMDataset& dataset,
                                    MatcherKind kind) {
  const DatasetFeatures* features = nullptr;
  if (UsesFeatureTables(*matcher)) {
    FAIREM_ASSIGN_OR_RETURN(features, Features(dataset));
  }
  return FitAndPredict(matcher, dataset, kind, seed_, features);
}

Result<MatcherRun> RunStore::Miss(const EMDataset& dataset, MatcherKind kind) {
  static Counter* hits = MetricsRegistry::Global().GetCounter(
      "fairem.harness.score_cache_hits");
  static Counter* misses = MetricsRegistry::Global().GetCounter(
      "fairem.harness.score_cache_misses");
  static Counter* stale = MetricsRegistry::Global().GetCounter(
      "fairem.harness.score_cache_stale");
  // One matcher and one SupportsDataset per miss. An unsupported matcher
  // neither reads nor writes an entry, nor builds tables.
  FAIREM_ASSIGN_OR_RETURN(std::unique_ptr<Matcher> matcher, NewMatcher(kind));
  if (!matcher->SupportsDataset(dataset)) return UnsupportedRun(kind);
  if (!scores_.enabled()) return FitRun(matcher.get(), dataset, kind);
  const std::string matcher_name = MatcherKindName(kind);
  const std::string key = ScoresKey(dataset, kind);
  // A valid entry stands in for the fit. Anything else is a miss: no entry,
  // or a stale one (corrupt, of the wrong length, or computed under another
  // seed or dataset).
  Result<std::string> payload = scores_.Load(key);
  if (payload.ok()) {
    Result<ScoreCacheEntry> entry = ScoreEntryFromJson(*payload);
    const char* reason =
        !entry.ok() ? "corrupt"
        : entry->dataset != dataset.name || entry->matcher != matcher_name
            ? "wrong key"
        : entry->seed != seed_                      ? "seed changed"
        : entry->fingerprint != Fingerprint(dataset) ? "dataset changed"
        : entry->scores.size() != dataset.test.size() ? "wrong length"
                                                      : nullptr;
    if (reason == nullptr) {
      hits->Increment();
      MatcherRun run;
      run.kind = kind;
      run.matcher_name = matcher_name;
      run.test_scores = std::move(entry->scores);
      FAIREM_RETURN_NOT_OK(TallyRun(dataset, &run));
      return run;
    }
    stale->Increment();
    FAIREM_LOG(INFO) << "stale score cache entry, refitting"
                     << LogKv("key", key)
                     << LogKv("reason", entry.ok() ? std::string(reason)
                                                   : entry.status().ToString());
  } else if (!payload.status().IsNotFound()) {
    FAIREM_LOG(WARN) << "score cache load failed, refitting"
                     << LogKv("key", key)
                     << LogKv("status", payload.status().ToString());
  }
  misses->Increment();
  // Only a run that MakeOutcomes accepted (every score finite) is saved. A
  // failed save only WARNs: it costs the next report a refit, never this run.
  FAIREM_ASSIGN_OR_RETURN(MatcherRun run,
                          FitRun(matcher.get(), dataset, kind));
  const ScoreCacheEntry entry{dataset.name, matcher_name, seed_,
                              Fingerprint(dataset), run.test_scores};
  if (Status st = scores_.Save(key, ScoreEntryToJson(entry)); !st.ok()) {
    FAIREM_LOG(WARN) << "score cache save failed" << LogKv("key", key)
                     << LogKv("status", st.ToString());
  }
  return run;
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

/// Replays a fresh or ParseAuditCell-validated cell into the grid.
Status ApplyCellToGrid(const GridCellCheckpoint& cell, UnfairnessGrid* grid) {
  if (cell.error) {
    grid->AddError(cell.matcher, cell.status);
    return Status::OK();
  }
  for (const auto& mark : cell.marks) {
    FAIREM_ASSIGN_OR_RETURN(FairnessMeasure m,
                            ParseFairnessMeasure(mark.measure));
    grid->MarkCell(cell.marker, mark.group, m, mark.unfair);
  }
  return Status::OK();
}

/// One grid cell end to end: the run from `runs` + its audit, converted to
/// the checkpointable representation. Failures propagate as Status for the
/// retry wrapper.
Result<GridCellCheckpoint> RunGridCell(const EMDataset& dataset,
                                       MatcherKind kind, bool pairwise,
                                       const GridRunOptions& options,
                                       RunStore* runs) {
  FAIREM_FAILPOINT("grid_cell");
  GridCellCheckpoint cell;
  cell.matcher = MatcherKindName(kind);
  FAIREM_ASSIGN_OR_RETURN(const MatcherRun* run, runs->Run(dataset, kind));
  cell.marker = MatcherMarker(run->matcher_name);
  cell.supported = run->supported;
  if (!run->supported) return cell;
  FAIREM_ASSIGN_OR_RETURN(
      AuditReport report,
      pairwise ? AuditRunPairwise(dataset, *run, options.audit)
               : AuditRunSingle(dataset, *run, options.audit));
  cell.marks.reserve(report.entries.size());
  for (const auto& entry : report.entries) {
    cell.marks.push_back({entry.group_label, FairnessMeasureName(entry.measure),
                          entry.unfair});
  }
  FAIREM_LOG(INFO) << "audited matcher" << LogKv("matcher", run->matcher_name)
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
         options.cell_max_rss_mb > 0;
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
  RunStore runs(options);
  return RunGridCell(dataset, kind, pairwise, options, &runs);
}

void RegisterGridRunFlags(FlagSet* flags, GridRunOptions* options) {
  flags->String("--checkpoint_dir", &options->checkpoint_dir, "DIR");
  flags->Number("--retry_attempts", &options->retry.max_attempts, "N", 1);
  flags->Number("--jobs", &options->jobs, "N", 1);
  flags->Number("--cell_timeout_s", &options->cell_timeout_s, "S", 0.0);
  flags->Number("--cell_max_rss_mb", &options->cell_max_rss_mb, "M", 0);
  flags->Bool("--progress", &options->progress);
}

Result<GridCellCheckpoint> ParseAuditCell(const std::string& json) {
  FAIREM_ASSIGN_OR_RETURN(GridCellCheckpoint cell, GridCellFromJson(json));
  for (const auto& mark : cell.marks) {
    FAIREM_RETURN_NOT_OK(ParseFairnessMeasure(mark.measure).status());
  }
  return cell;
}

std::string AuditCellKey(const std::string& dataset_name, MatcherKind kind,
                         bool pairwise) {
  return dataset_name + "." + (pairwise ? "pairwise" : "single") + "." +
         MatcherKindName(kind);
}

Result<std::string> UnfairnessGridReport(const EMDataset& dataset,
                                         bool pairwise,
                                         const GridRunOptions& options,
                                         RunStore* runs) {
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
  CheckpointStore store(options.checkpoint_dir);
  // A report that owns its store forgets each run once its cell is done, so
  // it holds one run at a time.
  std::optional<RunStore> own_runs;
  if (runs == nullptr) runs = &own_runs.emplace(options);
  // SIGINT/SIGTERM now request a cooperative stop: workers are reaped,
  // completed state stays on disk, and the report returns Cancelled.
  ShutdownGuard shutdown_guard;

  std::vector<CellSlot> slots;
  for (MatcherKind kind : AllMatcherKinds()) {
    if (std::find(options.skip.begin(), options.skip.end(), kind) !=
        options.skip.end()) {
      continue;
    }
    slots.push_back(
        {kind, AuditCellKey(dataset.name, kind, pairwise), false, {}});
  }

  // Phase 1: replay whatever a previous run already persisted.
  if (store.enabled()) {
    for (CellSlot& slot : slots) {
      Result<std::string> payload = store.Load(slot.key);
      if (payload.ok()) {
        Result<GridCellCheckpoint> cell = ParseAuditCell(*payload);
        if (cell.ok()) {
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
            << LogKv("status", cell.status().ToString());
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
  auto progress_base = [&]() {
    ProgressSnapshot snap;
    snap.total = slots.size();
    for (const CellSlot& slot : slots) {
      if (!slot.resolved) continue;
      ++snap.done;
      if (slot.cell.error) ++snap.failed;
    }
    return snap;
  };
  reporter.Update(progress_base());
  // A broken checkpoint dir degrades resumability, not the report.
  auto persist = [&](const CellSlot& slot) {
    if (!store.enabled()) return;
    if (Status st = store.Save(slot.key, GridCellToJson(slot.cell));
        !st.ok()) {
      FAIREM_LOG(WARN) << "checkpoint save failed" << LogKv("key", slot.key)
                       << LogKv("status", st.ToString());
    } else {
      checkpoint_writes->Increment();
    }
  };

  // Phase 2: run the remaining cells — forked workers under the supervisor,
  // or in-process with RetryCall.
  if (UseSupervisedExecutor(options)) {
    std::vector<size_t> todo;
    std::vector<Supervisor::Task> tasks;
    for (size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].resolved) continue;
      todo.push_back(i);
      Supervisor::Task task;
      task.key = slots[i].key;
      task.run = [&, i]() -> Result<std::string> {
        FAIREM_ASSIGN_OR_RETURN(
            GridCellCheckpoint cell,
            RunGridCell(dataset, slots[i].kind, pairwise, options, runs));
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
    // Fingerprint the dataset and build its feature tables once, before
    // forking, rather than once per worker.
    if (!todo.empty()) {
      std::vector<MatcherKind> pending;
      for (size_t i : todo) pending.push_back(slots[i].kind);
      runs->PrepareFork(dataset, pending);
    }
    SupervisorOptions sup;
    sup.jobs = options.jobs;
    sup.cell_timeout_s = options.cell_timeout_s;
    sup.cell_max_rss_mb = options.cell_max_rss_mb;
    sup.max_attempts = options.retry.max_attempts;
    // The supervisor reports its own task universe; shift it by the cells
    // already replayed from checkpoints so the line reads against the full
    // grid.
    const ProgressSnapshot base = progress_base();
    sup.on_progress = [&](const ProgressSnapshot& snap) {
      ProgressSnapshot adjusted = snap;
      adjusted.total = slots.size();
      adjusted.done += base.done;
      adjusted.failed += base.failed;
      reporter.Update(adjusted);
    };
    Supervisor supervisor(sup);
    FAIREM_ASSIGN_OR_RETURN(std::vector<TaskOutcome> outcomes,
                            supervisor.Run(tasks));
    for (size_t t = 0; t < todo.size(); ++t) {
      CellSlot& slot = slots[todo[t]];
      const TaskOutcome& outcome = outcomes[t];
      if (outcome.kind == TaskOutcome::Kind::kOk) {
        Result<GridCellCheckpoint> cell = ParseAuditCell(outcome.payload);
        if (cell.ok()) {
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
      persist(slot);
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
                                              options, runs);
                         },
                         options.seed ^ (static_cast<uint64_t>(slot.kind) + 1) *
                                            0x9e3779b97f4a7c15ULL);
      }();
      if (own_runs) runs->Forget(dataset, slot.kind);
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
      ProgressSnapshot snap = progress_base();
      snap.last_cell_seconds = cell_seconds;
      reporter.Update(snap);
      persist(slot);
    }
  }

  // Final (forced) progress line: every slot is resolved by now.
  reporter.Update(progress_base(), /*force=*/true);

  // Phase 3: apply in sweep order — column order is first-seen, so this is
  // what makes parallel and sequential reports byte-identical.
  UnfairnessGrid grid;
  for (const CellSlot& slot : slots) {
    FAIREM_RETURN_NOT_OK(ApplyCellToGrid(slot.cell, &grid));
  }
  return grid.Render();
}

}  // namespace fairem
