#ifndef FAIREM_HARNESS_EXPERIMENT_H_
#define FAIREM_HARNESS_EXPERIMENT_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/audit.h"
#include "src/data/dataset.h"
#include "src/feature/feature_gen.h"
#include "src/matcher/matcher.h"
#include "src/ml/metrics.h"
#include "src/robust/checkpoint.h"
#include "src/robust/retry.h"
#include "src/util/result.h"

namespace fairem {

class FlagSet;

/// Everything the paper's per-(matcher, dataset) cells need: the trained
/// matcher's test scores, its confusion matrix at the dataset's default
/// threshold, and the derived correctness metrics.
struct MatcherRun {
  std::string matcher_name;
  MatcherKind kind = MatcherKind::kDT;
  bool supported = true;  // false mirrors Table 9's "-" cells (Dedupe)
  std::vector<double> test_scores;
  ConfusionCounts counts;
  double accuracy = 0.0;
  double f1 = 0.0;
  /// Wall time of Fit/PredictScores, measured on the monotonic clock by the
  /// same Span (src/obs/trace.h) that records the trace event — the two can't disagree.
  double fit_seconds = 0.0;
  double predict_seconds = 0.0;
};

/// Trains `kind` on `dataset` with the given seed and scores the test
/// split. Unsupported (matcher, dataset) combinations return a MatcherRun
/// with supported = false rather than an error. Every call fits; a RunStore
/// fits each (dataset, matcher) once. `features`, when given, must be
/// BuildDatasetFeatures(dataset): a feature-based matcher then fits and
/// predicts on those tables instead of building its own (DESIGN.md §22).
Result<MatcherRun> RunMatcher(const EMDataset& dataset, MatcherKind kind,
                              uint64_t seed = 1234,
                              const DatasetFeatures* features = nullptr);

/// Convenience: the single-fairness audit of a run at the dataset's
/// default threshold.
Result<AuditReport> AuditRunSingle(const EMDataset& dataset,
                                   const MatcherRun& run,
                                   const AuditOptions& options = {});

/// Convenience: the pairwise-fairness audit of a run.
Result<AuditReport> AuditRunPairwise(const EMDataset& dataset,
                                     const MatcherRun& run,
                                     const AuditOptions& options = {});

/// Builds the FairnessAuditor for a dataset's sensitive attribute.
Result<FairnessAuditor> MakeAuditor(const EMDataset& dataset);

/// Per-group TPR/PPV/FDR-style breakdown used by Tables 5 and 6.
struct GroupRates {
  std::string group;
  ConfusionCounts counts;
};

/// Single-fairness per-group confusion matrices at the default threshold.
Result<std::vector<GroupRates>> GroupBreakdown(const EMDataset& dataset,
                                               const MatcherRun& run);

/// Fault-tolerance knobs of the batch audit (Algorithm 1's outer loop).
struct GridRunOptions {
  AuditOptions audit;
  /// Matcher kinds to leave out entirely.
  std::vector<MatcherKind> skip;
  /// Per-cell retry policy for transient (kInternal / kIOError) failures.
  RetryPolicy retry;
  /// When non-empty, each completed cell is persisted here atomically
  /// (temp + rename JSON) and an interrupted run resumes by replaying the
  /// persisted cells instead of re-running them. Cells that failed after
  /// retries are persisted too. The RunStore built from these options also
  /// keeps each fitted matcher's test scores under `scores/` (DESIGN.md
  /// §18), so the other audit mode, or a cell whose file was deleted,
  /// re-audits without a refit. Delete a cell's file to re-audit it from
  /// the stored scores; to force a refit, also delete
  /// `scores/<dataset>.<matcher>.json`.
  std::string checkpoint_dir;
  /// Seed forwarded to RunMatcher and the retry jitter.
  uint64_t seed = 1234;
  /// Parallel worker processes for the cell sweep. 1 (the default) keeps
  /// the sequential in-process path; > 1 — or any watchdog/rlimit knob
  /// below — switches to the supervised executor (src/robust/supervisor.h),
  /// which forks one worker per cell, contains crashes/hangs/OOMs, and
  /// respawns failed cells up to retry.max_attempts. Reports are
  /// byte-identical across modes for healthy cells.
  int jobs = 1;
  /// Threads inside each cell for the hot matcher loops (feature-table
  /// rows, forest trees, batch predict); applied via SetIntraJobs before
  /// the sweep, so forked workers inherit it. Composes multiplicatively
  /// with `jobs` — total concurrency is jobs x intra_jobs. Cell results
  /// are byte-identical for any value.
  int intra_jobs = 1;
  /// Wall-clock watchdog deadline per cell attempt (supervised executor
  /// only); the worker is SIGKILLed past it. 0 disables.
  double cell_timeout_s = 0.0;
  /// RLIMIT_AS cap per cell worker in MiB (supervised executor only).
  int cell_max_rss_mb = 0;
  /// Emit the live progress line on stderr (rate-limited; sequential and
  /// supervised sweeps alike). The fairem.progress.* gauges and the ETA
  /// histogram update whether or not this is set.
  bool progress = false;
};

/// The one home of fitted runs (DESIGN.md §18). `Run` fits a (dataset,
/// matcher) once and keeps the MatcherRun until the store dies or forgets
/// it, keyed by dataset name and matcher, so a store holds one draw per
/// dataset name. With a checkpoint directory a memo miss first reads
/// the run's test scores from `<checkpoint_dir>/scores/`, valid only for the
/// same matcher seed and DatasetFingerprint, and a fit writes them there.
/// Next to its runs the store keeps one DatasetFeatures per dataset name,
/// built on the first fit of a feature-based matcher (or by PrepareFork)
/// and handed to every later one (DESIGN.md §22).
/// Nothing is process-global: the memo dies with its owner (a report, a
/// bench, a serve query).
class RunStore {
 public:
  /// Fits with `options.seed`; reads and writes `scores/` only when
  /// `options.checkpoint_dir` is set.
  explicit RunStore(const GridRunOptions& options = {});
  // Run hands out pointers into the memo, and sweeps hold the store's
  // address.
  RunStore(const RunStore&) = delete;
  RunStore& operator=(const RunStore&) = delete;

  /// `kind` on `dataset`: memoized, else read from `scores/`, else fitted by
  /// RunMatcher. A retryable failure (IsRetryableStatus) is not kept, so a
  /// retry fits again; any other failure is returned again on every ask.
  /// The dataset's feature tables follow the same policy.
  Result<const MatcherRun*> Run(const EMDataset& dataset, MatcherKind kind);

  /// Drops `kind` on `dataset` from the memo, freeing its scores; a later
  /// ask reads `scores/` or fits again. The feature tables stay.
  void Forget(const EMDataset& dataset, MatcherKind kind);

  /// Readies the store for workers forked to run the `pending` matchers on
  /// `dataset`, so that they inherit, copy-on-write, what each would
  /// otherwise compute alone: the dataset's fingerprint when the store has
  /// a directory, and its feature tables when a pending feature-based
  /// matcher supports it and has neither a run in the memo nor stored
  /// scores.
  void PrepareFork(const EMDataset& dataset,
                   const std::vector<MatcherKind>& pending);

 private:
  Result<MatcherRun> Miss(const EMDataset& dataset, MatcherKind kind);
  /// Fits `matcher`, which supports `dataset`, on the dataset's feature
  /// tables when it is feature-based.
  Result<MatcherRun> FitRun(Matcher* matcher, const EMDataset& dataset,
                            MatcherKind kind);
  uint64_t Fingerprint(const EMDataset& dataset);
  Result<const DatasetFeatures*> Features(const EMDataset& dataset);

  uint64_t seed_;
  CheckpointStore scores_;
  std::map<std::pair<std::string, MatcherKind>, Result<MatcherRun>> runs_;
  std::map<std::string, uint64_t> fingerprints_;
  std::map<std::string, Result<DatasetFeatures>> features_;
};

/// Registers the grid-sweep flags into `options`: --checkpoint_dir,
/// --retry_attempts, --jobs, --cell_timeout_s, --cell_max_rss_mb and
/// --progress. --intra_jobs is RegisterIntraJobsFlag's.
void RegisterGridRunFlags(FlagSet* flags, GridRunOptions* options);

/// Renders the paper's unfairness-grid figure for one dataset: every
/// matcher is trained, audited (single or pairwise fairness), and marked
/// into the measure-by-group grid (Figures 6-13 / 17-20). Progress notes go
/// to stderr.
///
/// Fault tolerance: each (matcher, dataset, mode) cell runs under
/// `options.retry`; a cell that still fails is rendered as an error entry
/// under the grid instead of failing the whole report, and — with a
/// checkpoint_dir — every finished cell is persisted so a killed run
/// resumes where it stopped (checkpoint hits are counted in
/// fairem.robust.checkpoint_cells_loaded), and every fitted matcher's test
/// scores are stored, so the report of the other mode into the same dir
/// audits without refitting (fairem.harness.score_cache_{hits,misses,stale}).
///
/// With `options.jobs` > 1 (or a cell timeout / rlimit set) the sweep runs
/// under the process-isolated supervisor: cells execute in forked workers,
/// crashes and watchdog-killed hangs are contained and respawned, and
/// SIGINT/SIGTERM triggers a cooperative shutdown that reaps every worker
/// and returns Cancelled (callers exit with InterruptExitCode). Cells are
/// applied to the grid in deterministic sweep order regardless of worker
/// completion order, so the rendered report is byte-identical to a
/// sequential run for all healthy cells.
///
/// `runs`, when given, is the caller's store, built from the same options:
/// the report keeps its runs there, so a report of the other mode over the
/// same store audits them without a refit. Supervised workers fit in their
/// own memory, so they share runs only through a checkpoint directory.
/// Without one the report builds its own store and keeps no run past its
/// cell.
Result<std::string> UnfairnessGridReport(const EMDataset& dataset,
                                         bool pairwise,
                                         const GridRunOptions& options,
                                         RunStore* runs = nullptr);

/// One audit grid cell end to end — train `kind` (or, with a checkpoint_dir,
/// read its stored test scores), audit, and convert to the checkpointable
/// representation (the exact bytes the grid sweep persists, so serve-daemon
/// cell responses and grid checkpoints interoperate). Failures propagate as
/// Status for retry wrappers.
Result<GridCellCheckpoint> RunAuditCell(const EMDataset& dataset,
                                        MatcherKind kind, bool pairwise,
                                        const GridRunOptions& options = {});

/// Parses a cell as GridCellToJson wrote it — the JSON shape plus every
/// measure name — so grid replay, supervised payloads, the serve warm-state
/// preload and serve worker payloads accept exactly the same cells.
Result<GridCellCheckpoint> ParseAuditCell(const std::string& json);

/// The checkpoint key of one grid cell: "<dataset>.<mode>.<matcher>".
std::string AuditCellKey(const std::string& dataset_name, MatcherKind kind,
                         bool pairwise);

}  // namespace fairem

#endif  // FAIREM_HARNESS_EXPERIMENT_H_
