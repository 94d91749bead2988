// fairem — command-line front end to the library.
//
//   fairem list
//       List the built-in benchmark datasets and the 13 matchers.
//   fairem generate <dataset> <dir> [--scale S] [--seed N]
//       Generate a benchmark dataset and persist it to <dir>.
//   fairem audit <dir> <matcher> [--pairwise] [--threshold T] [--division]
//       Load a dataset directory, train the matcher, and print the
//       correctness summary plus the fairness audit.
//   fairem pipeline <dataset> <matcher> [--scale S] [--seed N] [--pairwise]
//       [--intra_jobs N]
//       Run the full audit pipeline in-process — datagen, blocking, feature
//       generation, fit, predict, audit — primarily a driver for the
//       observability layer (each stage is a traced span). --intra_jobs
//       threads the hot matcher loops; output is byte-identical for any N.
//   fairem grid <dataset> [--pairwise] [--scale S] [--seed N]
//       [--checkpoint_dir D] [--retry_attempts N] [--jobs N]
//       [--intra_jobs N] [--cell_timeout_s S] [--cell_max_rss_mb M]
//       The batch audit of Algorithm 1 for one dataset: all matchers,
//       rendered as the unfairness grid. Fault tolerant: cells retry on
//       transient failures, failed cells degrade to error entries, and with
//       --checkpoint_dir an interrupted run resumes from completed cells and
//       the other mode's grid reuses the cached matcher scores (no refit).
//       --jobs > 1 (or a cell timeout / rlimit) runs the sweep under the
//       process-isolated supervisor: each cell in a forked worker, hangs
//       SIGKILLed at --cell_timeout_s, address space capped at
//       --cell_max_rss_mb MiB, crashed cells respawned up to
//       --retry_attempts. Workers ship metrics/span telemetry back to the
//       parent, so --metrics_out/--trace_out cover the whole fleet;
//       --progress prints a live cells-done/ETA line. --intra_jobs adds
//       threads inside each cell (total concurrency jobs x intra_jobs).
//   fairem benchdiff <old.json> <new.json> [--fail_on SPEC]... [--all]
//       Compare two metrics snapshots (e.g. successive BENCH_*.json files):
//       per-metric old/new/delta/ratio table, histograms expanded to
//       .mean/.count/.sum/.p50/.p95/.p99. Each --fail_on clause
//       (e.g. 'fairem.matcher.predict_seconds.mean>1.10x' for a ratio gate,
//       'fairem.proc.peak_rss_mb>512abs' for an absolute one, '<' for
//       lower bounds) turns the diff into a regression gate: exit 2 when
//       any clause trips, 1 on usage/IO errors, 0 otherwise. --all shows
//       unchanged metrics too. When a violated histogram metric carries
//       exemplars (traced runs record the slowest query's trace id per
//       bucket), the regression line names the slowest exemplar's trace id
//       so the regression links to one concrete query.
//   fairem proftop <profile.folded> [--by stack|stage] [-n N]
//       [--compare FILE2] [--tolerance T] [--min_share S]
//       Summarize a folded profile written by --profile_out: top frames by
//       self/total samples (--by stack, default), or the per-pipeline-stage
//       breakdown with the attributed fraction (--by stage). --compare
//       checks two profiles' stage shares against each other and exits 2
//       when any stage's share drifts by more than --tolerance (default
//       0.10), considering stages above --min_share (default 0.01).
//   fairem serve <socket> [--datasets a,b,..] [--scale S] [--seed N]
//       [--checkpoint_dir D] [--max_inflight N] [--max_queue N]
//       [--deadline_s S] [--max_deadline_s S] [--io_timeout_s S]
//       [--max_attempts N] [--worker_max_rss_mb M] [--worker_max_cpu_s S]
//       [--drain_metrics_out FILE]
//       The always-on audit daemon (DESIGN.md §14): warms datasets and
//       checkpointed cells, then answers framed queries on a UNIX socket.
//       Cell queries run in crash-isolated forked workers under rlimits;
//       admission is bounded (overflow shed with a retryable reply),
//       deadlines are enforced end to end, slow clients are disconnected,
//       and SIGTERM drains cooperatively (exit 0) — flushing a final
//       durable metrics snapshot to --drain_metrics_out.
//   fairem route <socket> --backends a.sock,b.sock,..
//       [--backends_file FILE] [--health_period_s S] [--health_timeout_s S]
//       [--breaker_failures N] [--breaker_cooldown_s S] [--no_hedge]
//       [--hedge_min_delay_s S] [--max_inflight N] [--deadline_s S]
//       [--max_deadline_s S] [--io_timeout_s S] [--drain_metrics_out FILE]
//       The shard router (DESIGN.md §15): fronts N serve daemons behind one
//       socket. Routes each cell by rendezvous hash so cache warmth
//       survives membership changes, health-probes every backend, opens a
//       circuit breaker on consecutive failures, fails queries over to the
//       next replica when a backend dies or sheds, hedges slow requests
//       after a p95-derived delay, and degrades cell queries to structured
//       error-entry answers when every replica is down. SIGHUP re-reads
//       --backends_file for live add/remove; SIGTERM drains cooperatively.
//   fairem query <socket> ping|stats
//   fairem query <socket> cell <dataset> <matcher> [--pairwise]
//       [--deadline_s S] [--retries N] [--io_timeout_s S] [--trace]
//       [--verbose]
//       One query against a running daemon or router; prints the payload
//       (cell JSON, stats JSON, or "pong"). Shed/draining replies are
//       retried with jittered backoff up to --retries, honoring the
//       server's retry-after hint. --trace (implied by --trace_out or
//       --verbose) propagates a trace context through every hop; the
//       response carries back client/router/daemon/worker spans, merged
//       into one Chrome trace by --trace_out. --verbose streams the
//       server's live PROG progress frames to stderr and prints the
//       per-hop timing table (noting when a hedged duplicate won).
//   fairem slowlog <FILE>
//       Render a slow-query log (wide-event JSON lines written by serve or
//       route under --slow_query_ms): one row per slow query with its
//       trace id, hop, op, key, status, and total time.
//   fairem tracetop <FILE> [--compare FILE2] [--tolerance T]
//       [--min_share S]
//       Aggregate a slow-query log's span breakdowns: per-hop share table
//       (which hop owns the recorded time) and the critical path through
//       the slowest query. --compare gates two logs against each other and
//       exits 2 when any hop's share drifts more than --tolerance (default
//       0.10), considering hops above --min_share (default 0.01).
//
// Observability (any command): --log_level debug|info|warn|error|off,
// --trace_out FILE (Chrome trace JSON of the stage spans),
// --metrics_out FILE (metrics-registry snapshot),
// --metrics_format json|prom (format of --metrics_out),
// --profile_out FILE (sampling profiler; folded stacks for flamegraph.pl),
// --profile_hz N (default 97), --profile_mode cpu|wall.
// Fault injection (any command): --failpoints SPEC, e.g.
// "csv_read=error(0.05);grid_cell=crash(1,5)" (also: FAIREM_FAILPOINTS env).
//
// Exit status: 0 on success, 1 on usage errors or failures, 128+signal
// (130 SIGINT / 143 SIGTERM) when a supervised grid run is interrupted and
// shuts down cooperatively.

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/block/blockers.h"
#include "src/data/dataset_io.h"
#include "src/datagen/benchmark_suite.h"
#include "src/feature/feature_gen.h"
#include "src/harness/experiment.h"
#include "src/obs/benchdiff.h"
#include "src/obs/obs.h"
#include "src/obs/profiler.h"
#include "src/obs/slowlog.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace.h"
#include "src/obs/tracetop.h"
#include "src/report/table_printer.h"
#include "src/robust/failpoint.h"
#include "src/robust/supervisor.h"
#include "src/route/router.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/util/io_util.h"
#include "src/util/string_util.h"
#include "src/util/thread_pool.h"

namespace fairem {
namespace {

int Usage() {
  std::cerr <<
      "usage:\n"
      "  fairem list\n"
      "  fairem generate <dataset> <dir> [--scale S] [--seed N]\n"
      "  fairem audit <dir> <matcher> [--pairwise] [--threshold T] "
      "[--division]\n"
      "  fairem pipeline <dataset> <matcher> [--scale S] [--seed N] "
      "[--pairwise] [--intra_jobs N]\n"
      "  fairem grid <dataset> [--pairwise] [--scale S] [--seed N] "
      "[--checkpoint_dir D] [--retry_attempts N] [--jobs N] "
      "[--intra_jobs N] [--cell_timeout_s S] [--cell_max_rss_mb M] "
      "[--progress]\n"
      "  fairem benchdiff <old.json> <new.json> [--fail_on SPEC]... [--all]\n"
      "  fairem proftop <profile.folded> [--by stack|stage] [-n N] "
      "[--compare FILE2] [--tolerance T] [--min_share S]\n"
      "  fairem serve <socket> [--datasets a,b,..] [--scale S] [--seed N] "
      "[--checkpoint_dir D] [--max_inflight N] [--max_queue N] "
      "[--deadline_s S] [--max_deadline_s S] [--io_timeout_s S] "
      "[--max_attempts N] [--worker_max_rss_mb M] [--worker_max_cpu_s S] "
      "[--drain_metrics_out FILE] [--slow_query_ms MS] "
      "[--slow_query_log FILE] [--progress_interval_s S]\n"
      "  fairem route <socket> --backends a.sock,b.sock,.. "
      "[--backends_file FILE] [--health_period_s S] [--health_timeout_s S] "
      "[--breaker_failures N] [--breaker_cooldown_s S] [--no_hedge] "
      "[--hedge_min_delay_s S] [--max_inflight N] [--deadline_s S] "
      "[--max_deadline_s S] [--io_timeout_s S] [--drain_metrics_out FILE] "
      "[--slow_query_ms MS] [--slow_query_log FILE]\n"
      "  fairem query <socket> ping|stats\n"
      "  fairem query <socket> cell <dataset> <matcher> [--pairwise] "
      "[--deadline_s S] [--retries N] [--io_timeout_s S] [--trace] "
      "[--verbose]\n"
      "  fairem slowlog <FILE>\n"
      "  fairem tracetop <FILE> [--compare FILE2] [--tolerance T] "
      "[--min_share S]\n"
      "observability (any command): [--log_level L] [--trace_out FILE] "
      "[--metrics_out FILE] [--metrics_format json|prom] "
      "[--profile_out FILE] [--profile_hz N] [--profile_mode cpu|wall]\n"
      "fault injection (any command): [--failpoints SPEC]\n";
  return 1;
}

Result<DatasetKind> ParseDatasetKind(const std::string& name) {
  for (DatasetKind kind : AllDatasetKinds()) {
    if (name == DatasetKindName(kind)) return kind;
  }
  return Status::NotFound("unknown dataset '" + name +
                          "'; run `fairem list`");
}

Result<MatcherKind> ParseMatcherKind(const std::string& name) {
  for (MatcherKind kind : AllMatcherKinds()) {
    if (name == MatcherKindName(kind)) return kind;
  }
  return Status::NotFound("unknown matcher '" + name +
                          "'; run `fairem list`");
}

int List(const std::vector<std::string>& args) {
  // A typo'd flag silently doing nothing is how --trace-out style mistakes
  // hide; every subcommand rejects arguments it does not understand.
  if (!args.empty()) {
    std::cerr << "unexpected argument '" << args[0] << "'\n";
    return Usage();
  }
  std::cout << "datasets (Table 4):\n";
  for (DatasetKind kind : AllDatasetKinds()) {
    std::cout << "  " << DatasetKindName(kind) << "\n";
  }
  std::cout << "matchers (Table 3):\n";
  for (MatcherKind kind : AllMatcherKinds()) {
    std::cout << "  " << MatcherKindName(kind) << " ("
              << MatcherFamilyName(FamilyOf(kind)) << ")\n";
  }
  return 0;
}

int Generate(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  double scale = 1.0;
  uint64_t seed = 0;
  // Stride-1 parse: a trailing or unpaired flag is an error, not a no-op
  // (the old stride-2 loop silently ignored e.g. a final "--bogus").
  for (size_t i = 2; i < args.size(); ++i) {
    if (args[i] == "--scale" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &scale)) return Usage();
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      double v = 0.0;
      if (!ParseDouble(args[++i], &v)) return Usage();
      seed = static_cast<uint64_t>(v);
    } else {
      std::cerr << "unexpected argument '" << args[i] << "'\n";
      return Usage();
    }
  }
  Result<DatasetKind> kind = ParseDatasetKind(args[0]);
  if (!kind.ok()) {
    std::cerr << kind.status() << "\n";
    return 1;
  }
  Result<EMDataset> dataset = GenerateDataset(*kind, scale, seed);
  if (!dataset.ok()) {
    std::cerr << dataset.status() << "\n";
    return 1;
  }
  if (Status st = SaveDataset(*dataset, args[1]); !st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  std::cout << "wrote " << dataset->name << " (" << dataset->table_a.num_rows()
            << " x " << dataset->table_b.num_rows() << " records, "
            << dataset->AllPairs().size() << " labelled pairs) to " << args[1]
            << "\n";
  return 0;
}

int Audit(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  bool pairwise = false;
  double threshold = -1.0;
  AuditOptions options;
  for (size_t i = 2; i < args.size(); ++i) {
    if (args[i] == "--pairwise") {
      pairwise = true;
    } else if (args[i] == "--division") {
      options.mode = DisparityMode::kDivision;
    } else if (args[i] == "--threshold" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &threshold)) return Usage();
    } else {
      return Usage();
    }
  }
  Result<EMDataset> dataset = LoadDataset(args[0]);
  if (!dataset.ok()) {
    std::cerr << dataset.status() << "\n";
    return 1;
  }
  if (threshold >= 0.0) dataset->default_threshold = threshold;
  Result<MatcherKind> kind = ParseMatcherKind(args[1]);
  if (!kind.ok()) {
    std::cerr << kind.status() << "\n";
    return 1;
  }
  Result<MatcherRun> run = RunMatcher(*dataset, *kind);
  if (!run.ok()) {
    std::cerr << run.status() << "\n";
    return 1;
  }
  if (!run->supported) {
    std::cerr << run->matcher_name << " does not support this dataset\n";
    return 1;
  }
  std::cout << run->matcher_name << " on " << dataset->name << ": accuracy "
            << FormatDouble(run->accuracy, 3) << ", F1 "
            << FormatDouble(run->f1, 3) << " at threshold "
            << FormatDouble(dataset->default_threshold, 2) << "\n\n";
  Result<AuditReport> report =
      pairwise ? AuditRunPairwise(*dataset, *run, options)
               : AuditRunSingle(*dataset, *run, options);
  if (!report.ok()) {
    std::cerr << report.status() << "\n";
    return 1;
  }
  TablePrinter table({"group", "measure", "group value", "reference",
                      "disparity", "unfair"});
  for (const auto& e : report->entries) {
    if (!e.defined) continue;
    table.AddRow({e.group_label, FairnessMeasureName(e.measure),
                  FormatDouble(e.group_value, 3),
                  FormatDouble(e.overall_value, 3),
                  FormatDouble(e.disparity, 3), e.unfair ? "UNFAIR" : ""});
  }
  std::cout << table.ToString() << "\ndiscriminated groups: "
            << report->NumDiscriminatedGroups() << "\n";
  return 0;
}


/// The end-to-end audit pipeline on a generated benchmark dataset. Its
/// purpose is twofold: a one-command demo, and the canonical driver of the
/// observability layer — with --trace_out the run exports nested spans for
/// datagen -> blocking -> features -> fit -> predict -> audit.
int Pipeline(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  double scale = 1.0;
  uint64_t seed = 0;
  bool pairwise = false;
  for (size_t i = 2; i < args.size(); ++i) {
    if (args[i] == "--pairwise") {
      pairwise = true;
    } else if (args[i] == "--scale" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &scale)) return Usage();
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      double v = 0.0;
      if (!ParseDouble(args[++i], &v)) return Usage();
      seed = static_cast<uint64_t>(v);
    } else if (args[i] == "--intra_jobs" && i + 1 < args.size()) {
      double v = 0.0;
      if (!ParseDouble(args[++i], &v) || v < 1.0) return Usage();
      SetIntraJobs(static_cast<int>(v));
    } else {
      return Usage();
    }
  }
  Result<DatasetKind> kind = ParseDatasetKind(args[0]);
  if (!kind.ok()) {
    std::cerr << kind.status() << "\n";
    return 1;
  }
  Result<MatcherKind> matcher_kind = ParseMatcherKind(args[1]);
  if (!matcher_kind.ok()) {
    std::cerr << matcher_kind.status() << "\n";
    return 1;
  }

  Span pipeline_span("fairem.pipeline");
  pipeline_span.AddArg("dataset", DatasetKindName(*kind));
  pipeline_span.AddArg("matcher", MatcherKindName(*matcher_kind));

  // Stage 1: dataset generation (span fairem.datagen.generate inside).
  Result<EMDataset> dataset = GenerateDataset(*kind, scale, seed);
  if (!dataset.ok()) {
    std::cerr << dataset.status() << "\n";
    return 1;
  }

  // Stage 2: blocking over the matching key — a word-overlap blocker on
  // the first matching attribute, evaluated against the labelled pairs.
  {
    Span block_span("fairem.pipeline.blocking");
    const std::string key_attr = dataset->matching_attrs.empty()
                                     ? dataset->sensitive_attr
                                     : dataset->matching_attrs.front();
    block_span.AddArg("attr", key_attr);
    OverlapBlocker blocker(key_attr, /*min_overlap=*/1, /*use_words=*/true);
    Result<std::vector<CandidatePair>> candidates =
        blocker.Block(dataset->table_a, dataset->table_b);
    if (!candidates.ok()) {
      std::cerr << candidates.status() << "\n";
      return 1;
    }
    BlockingStats stats =
        EvaluateBlocking(*candidates, dataset->AllPairs(),
                         dataset->table_a.num_rows(),
                         dataset->table_b.num_rows());
    std::cout << "blocking: " << stats.num_candidates << " candidates, RR "
              << FormatDouble(stats.reduction_ratio, 3) << ", PC "
              << FormatDouble(stats.pair_completeness, 3) << "\n";
  }

  // Stage 3: feature generation over the training pairs (the same tables
  // and defs the feature-based matchers build internally during Fit).
  {
    Span feature_span("fairem.pipeline.features");
    Result<std::vector<FeatureDef>> defs =
        GenerateFeatures(dataset->table_a, dataset->table_b,
                         dataset->matching_attrs);
    if (!defs.ok()) {
      std::cerr << defs.status() << "\n";
      return 1;
    }
    Result<FeatureTable> features = BuildFeatureTable(
        *defs, dataset->table_a, dataset->table_b, dataset->train);
    if (!features.ok()) {
      std::cerr << features.status() << "\n";
      return 1;
    }
    std::cout << "features: " << features->rows.size() << " rows x "
              << defs->size() << " features\n";
  }

  // Stages 4+5: fit and predict (spans recorded inside RunMatcher).
  Result<MatcherRun> run = RunMatcher(*dataset, *matcher_kind);
  if (!run.ok()) {
    std::cerr << run.status() << "\n";
    return 1;
  }
  if (!run->supported) {
    std::cerr << run->matcher_name << " does not support this dataset\n";
    return 1;
  }
  std::cout << run->matcher_name << ": accuracy "
            << FormatDouble(run->accuracy, 3) << ", F1 "
            << FormatDouble(run->f1, 3) << " (fit "
            << FormatDouble(run->fit_seconds, 3) << "s, predict "
            << FormatDouble(run->predict_seconds, 3) << "s)\n";

  // Stage 6: the fairness audit (span fairem.audit.* inside).
  Result<AuditReport> report =
      pairwise ? AuditRunPairwise(*dataset, *run, AuditOptions{})
               : AuditRunSingle(*dataset, *run, AuditOptions{});
  if (!report.ok()) {
    std::cerr << report.status() << "\n";
    return 1;
  }
  std::cout << "audit: " << report->entries.size() << " cells, "
            << report->UnfairEntries().size() << " unfair, "
            << report->NumDiscriminatedGroups()
            << " discriminated groups\n";
  return 0;
}

/// The batch audit over every matcher for one dataset, with the full
/// robustness surface exposed: retries, checkpoint/resume, error cells.
int Grid(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  double scale = 1.0;
  uint64_t seed = 0;
  bool pairwise = false;
  GridRunOptions options;
  options.audit.reference = AuditReference::kComplement;
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--pairwise") {
      pairwise = true;
    } else if (args[i] == "--scale" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &scale)) return Usage();
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      double v = 0.0;
      if (!ParseDouble(args[++i], &v)) return Usage();
      seed = static_cast<uint64_t>(v);
    } else if (args[i] == "--checkpoint_dir" && i + 1 < args.size()) {
      options.checkpoint_dir = args[++i];
    } else if (args[i] == "--retry_attempts" && i + 1 < args.size()) {
      double v = 0.0;
      if (!ParseDouble(args[++i], &v) || v < 1.0) return Usage();
      options.retry.max_attempts = static_cast<int>(v);
    } else if (args[i] == "--jobs" && i + 1 < args.size()) {
      double v = 0.0;
      if (!ParseDouble(args[++i], &v) || v < 1.0) return Usage();
      options.jobs = static_cast<int>(v);
    } else if (args[i] == "--intra_jobs" && i + 1 < args.size()) {
      double v = 0.0;
      if (!ParseDouble(args[++i], &v) || v < 1.0) return Usage();
      options.intra_jobs = static_cast<int>(v);
    } else if (args[i] == "--cell_timeout_s" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &options.cell_timeout_s) ||
          options.cell_timeout_s < 0.0) {
        return Usage();
      }
    } else if (args[i] == "--cell_max_rss_mb" && i + 1 < args.size()) {
      double v = 0.0;
      if (!ParseDouble(args[++i], &v) || v < 0.0) return Usage();
      options.cell_max_rss_mb = static_cast<int>(v);
    } else if (args[i] == "--progress") {
      options.progress = true;
    } else {
      std::cerr << "unexpected argument '" << args[i] << "'\n";
      return Usage();
    }
  }
  Result<DatasetKind> kind = ParseDatasetKind(args[0]);
  if (!kind.ok()) {
    std::cerr << kind.status() << "\n";
    return 1;
  }
  Result<EMDataset> dataset = GenerateDataset(*kind, scale, seed);
  if (!dataset.ok()) {
    std::cerr << dataset.status() << "\n";
    return 1;
  }
  Result<std::string> grid = UnfairnessGridReport(*dataset, pairwise, options);
  if (!grid.ok()) {
    std::cerr << grid.status() << "\n";
    // A cooperative SIGINT/SIGTERM shutdown already reaped every worker;
    // exit with the conventional 128+signal code so scripts can tell an
    // interruption from a failure.
    return grid.status().IsCancelled()
               ? InterruptExitCode(ShutdownGuard::signal_number())
               : 1;
  }
  std::cout << "== " << dataset->name << " "
            << (pairwise ? "pairwise" : "single") << " fairness ==\n"
            << (grid->empty() ? "(no unfair cells)\n" : *grid);
  return 0;
}

/// Diff two metrics snapshots and optionally gate on --fail_on clauses.
/// Exit: 0 clean, 2 when a clause trips, 1 on usage/IO/parse errors.
int BenchDiff(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  bool show_all = false;
  std::vector<FailOnSpec> specs;
  for (size_t i = 2; i < args.size(); ++i) {
    if (args[i] == "--all") {
      show_all = true;
    } else if (args[i] == "--fail_on" && i + 1 < args.size()) {
      Result<FailOnSpec> spec = ParseFailOnSpec(args[++i]);
      if (!spec.ok()) {
        std::cerr << spec.status() << "\n";
        return 1;
      }
      specs.push_back(std::move(*spec));
    } else {
      std::cerr << "unexpected argument '" << args[i] << "'\n";
      return Usage();
    }
  }
  auto load = [](const std::string& path) -> Result<MetricsSnapshot> {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::IOError("cannot open '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    Result<MetricsSnapshot> snapshot = MetricsSnapshotFromJson(text.str());
    if (!snapshot.ok()) {
      return Status::InvalidArgument("'" + path + "': " +
                                     snapshot.status().message());
    }
    return snapshot;
  };
  Result<MetricsSnapshot> old_snap = load(args[0]);
  if (!old_snap.ok()) {
    std::cerr << old_snap.status() << "\n";
    return 1;
  }
  Result<MetricsSnapshot> new_snap = load(args[1]);
  if (!new_snap.ok()) {
    std::cerr << new_snap.status() << "\n";
    return 1;
  }
  std::vector<BenchDiffRow> rows = DiffSnapshotsForBench(*old_snap, *new_snap);
  std::cout << RenderBenchDiffTable(rows, /*changed_only=*/!show_all);
  if (specs.empty()) return 0;
  Result<std::vector<std::string>> violations = CheckFailOnSpecs(
      FlattenSnapshot(*old_snap), FlattenSnapshot(*new_snap), specs);
  if (!violations.ok()) {
    std::cerr << violations.status() << "\n";
    return 1;
  }
  if (!violations->empty()) {
    for (const std::string& v : *violations) {
      std::cerr << "REGRESSION: " << v << "\n";
      // A violated histogram metric with exemplars names the slowest
      // traced query per bucket — print the worst one so the regression
      // points at a concrete trace id to pull from the slow-query log.
      for (const FailOnSpec& spec : specs) {
        if (v.rfind(spec.raw, 0) != 0) continue;
        size_t dot = spec.metric.rfind('.');
        if (dot == std::string::npos) continue;
        auto hist = new_snap->histograms.find(spec.metric.substr(0, dot));
        if (hist == new_snap->histograms.end()) continue;
        HistogramExemplar top = hist->second.TopExemplar();
        if (top.trace_id.empty()) continue;
        std::cerr << "  slowest exemplar for " << hist->first << ": trace "
                  << top.trace_id << " (" << FormatDouble(top.value, 6)
                  << ")\n";
      }
    }
    return 2;
  }
  std::cout << "benchdiff: " << specs.size() << " gate"
            << (specs.size() == 1 ? "" : "s") << " passed\n";
  return 0;
}

/// The --compare gate shared by proftop and tracetop: every drift line on
/// stderr as "<kind> DRIFT: ..." and exit 2, else one agreement line and 0.
int DriftGate(const std::vector<std::string>& drift, const char* kind,
              const std::string& what, const std::string& a,
              const std::string& b, double tolerance) {
  for (const std::string& line : drift) {
    std::cerr << kind << " DRIFT: " << line << "\n";
  }
  if (!drift.empty()) return 2;
  std::cout << what << " of '" << a << "' and '" << b << "' agree within "
            << FormatDouble(tolerance, 2) << "\n";
  return 0;
}

/// Summarize (and optionally compare) folded profiles from --profile_out.
/// Exit: 0 clean, 2 when --compare finds stage-share drift, 1 on errors.
int ProfTop(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  std::string by = "stack";
  int top_n = 20;
  std::string compare_path;
  double tolerance = 0.10;
  double min_share = 0.01;
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--by" && i + 1 < args.size()) {
      by = args[++i];
      if (by != "stack" && by != "stage") return Usage();
    } else if (args[i] == "-n" && i + 1 < args.size()) {
      double v = 0.0;
      if (!ParseDouble(args[++i], &v) || v < 1.0) return Usage();
      top_n = static_cast<int>(v);
    } else if (args[i] == "--compare" && i + 1 < args.size()) {
      compare_path = args[++i];
    } else if (args[i] == "--tolerance" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &tolerance) || tolerance < 0.0) {
        return Usage();
      }
    } else if (args[i] == "--min_share" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &min_share) || min_share < 0.0) {
        return Usage();
      }
    } else {
      std::cerr << "unexpected argument '" << args[i] << "'\n";
      return Usage();
    }
  }
  auto load = [](const std::string& path) -> Result<FoldedProfile> {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::IOError("cannot open '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    FoldedProfile profile = FoldedProfileFromText(text.str());
    if (profile.stacks.empty()) {
      return Status::InvalidArgument("'" + path +
                                     "' contains no folded stack lines");
    }
    return profile;
  };
  Result<FoldedProfile> profile = load(args[0]);
  if (!profile.ok()) {
    std::cerr << profile.status() << "\n";
    return 1;
  }
  if (!compare_path.empty()) {
    Result<FoldedProfile> other = load(compare_path);
    if (!other.ok()) {
      std::cerr << other.status() << "\n";
      return 1;
    }
    return DriftGate(
        CompareStageShares(*profile, *other, tolerance, min_share), "STAGE",
        "proftop: stage shares", args[0], compare_path, tolerance);
  }
  std::cout << (by == "stage" ? RenderProfTopByStage(*profile)
                              : RenderProfTopByStack(*profile, top_n));
  return 0;
}

int Serve(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  ServeOptions options;
  options.socket_path = args[0];
  for (size_t i = 1; i < args.size(); ++i) {
    double v = 0.0;
    if (args[i] == "--datasets" && i + 1 < args.size()) {
      for (const std::string& name : Split(args[++i], ',')) {
        if (!name.empty()) options.warm.datasets.push_back(name);
      }
    } else if (args[i] == "--scale" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &options.warm.scale)) return Usage();
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &v)) return Usage();
      options.warm.seed = static_cast<uint64_t>(v);
    } else if (args[i] == "--checkpoint_dir" && i + 1 < args.size()) {
      options.warm.checkpoint_dir = args[++i];
    } else if (args[i] == "--max_inflight" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &v) || v < 1.0) return Usage();
      options.max_inflight = static_cast<int>(v);
    } else if (args[i] == "--max_queue" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &v) || v < 0.0) return Usage();
      options.max_queue = static_cast<int>(v);
    } else if (args[i] == "--deadline_s" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &options.default_deadline_s)) return Usage();
    } else if (args[i] == "--max_deadline_s" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &options.max_deadline_s)) return Usage();
    } else if (args[i] == "--io_timeout_s" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &options.io_timeout_s)) return Usage();
    } else if (args[i] == "--retry_after_s" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &options.retry_after_s)) return Usage();
    } else if (args[i] == "--max_attempts" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &v) || v < 1.0) return Usage();
      options.max_attempts = static_cast<int>(v);
    } else if (args[i] == "--worker_max_rss_mb" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &v) || v < 0.0) return Usage();
      options.worker_max_rss_mb = static_cast<int>(v);
    } else if (args[i] == "--worker_max_cpu_s" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &v) || v < 0.0) return Usage();
      options.worker_max_cpu_s = static_cast<int>(v);
    } else if (args[i] == "--drain_metrics_out" && i + 1 < args.size()) {
      options.metrics_path = args[++i];
    } else if (args[i] == "--slow_query_ms" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &options.slow_query_ms)) return Usage();
    } else if (args[i] == "--slow_query_log" && i + 1 < args.size()) {
      options.slow_query_log = args[++i];
    } else if (args[i] == "--progress_interval_s" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &options.progress_interval_s)) {
        return Usage();
      }
    } else {
      std::cerr << "unexpected argument '" << args[i] << "'\n";
      return Usage();
    }
  }
  if (Status st = RunServeDaemon(options); !st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  return 0;
}

int Route(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  RouteOptions options;
  options.socket_path = args[0];
  for (size_t i = 1; i < args.size(); ++i) {
    double v = 0.0;
    if (args[i] == "--backends" && i + 1 < args.size()) {
      for (const std::string& path : Split(args[++i], ',')) {
        if (!path.empty()) options.backends.push_back(path);
      }
    } else if (args[i] == "--backends_file" && i + 1 < args.size()) {
      options.backends_file = args[++i];
    } else if (args[i] == "--health_period_s" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &options.health_period_s)) return Usage();
    } else if (args[i] == "--health_timeout_s" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &options.health_timeout_s)) return Usage();
    } else if (args[i] == "--breaker_failures" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &v) || v < 1.0) return Usage();
      options.breaker_failure_threshold = static_cast<int>(v);
    } else if (args[i] == "--breaker_cooldown_s" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &options.breaker_cooldown_s)) {
        return Usage();
      }
    } else if (args[i] == "--no_hedge") {
      options.hedge = false;
    } else if (args[i] == "--hedge_min_delay_s" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &options.hedge_min_delay_s)) return Usage();
    } else if (args[i] == "--max_inflight" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &v) || v < 1.0) return Usage();
      options.max_inflight_jobs = static_cast<int>(v);
    } else if (args[i] == "--deadline_s" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &options.default_deadline_s)) return Usage();
    } else if (args[i] == "--max_deadline_s" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &options.max_deadline_s)) return Usage();
    } else if (args[i] == "--io_timeout_s" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &options.io_timeout_s)) return Usage();
    } else if (args[i] == "--retry_after_s" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &options.retry_after_s)) return Usage();
    } else if (args[i] == "--drain_metrics_out" && i + 1 < args.size()) {
      options.metrics_path = args[++i];
    } else if (args[i] == "--slow_query_ms" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &options.slow_query_ms)) return Usage();
    } else if (args[i] == "--slow_query_log" && i + 1 < args.size()) {
      options.slow_query_log = args[++i];
    } else {
      std::cerr << "unexpected argument '" << args[i] << "'\n";
      return Usage();
    }
  }
  if (Status st = RunRouteDaemon(options); !st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  return 0;
}

int Query(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  IgnoreSigpipe();  // a daemon closing mid-write must not kill us
  const std::string socket_path = args[0];
  QueryRequest request;
  request.op = args[1];
  size_t flag_start = 2;
  if (request.op == "cell") {
    if (args.size() < 4) return Usage();
    request.dataset = args[2];
    request.matcher = args[3];
    flag_start = 4;
  } else if (request.op != "ping" && request.op != "stats") {
    std::cerr << "unknown query op '" << request.op << "'\n";
    return Usage();
  }
  RetryPolicy retry;
  retry.max_attempts = 5;
  ServeClientOptions client_options;
  bool verbose = false;
  bool trace_flag = false;
  for (size_t i = flag_start; i < args.size(); ++i) {
    double v = 0.0;
    if (args[i] == "--pairwise") {
      request.mode = "pairwise";
    } else if (args[i] == "--deadline_s" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &request.deadline_s)) return Usage();
    } else if (args[i] == "--retries" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &v) || v < 0.0) return Usage();
      retry.max_attempts = 1 + static_cast<int>(v);
    } else if (args[i] == "--io_timeout_s" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &client_options.io_timeout_s)) {
        return Usage();
      }
    } else if (args[i] == "--trace") {
      trace_flag = true;
    } else if (args[i] == "--verbose") {
      verbose = true;
    } else {
      std::cerr << "unexpected argument '" << args[i] << "'\n";
      return Usage();
    }
  }
  // --trace_out wants the merged Chrome trace, --verbose wants the per-hop
  // table; both need the trace context propagated end to end.
  client_options.trace =
      trace_flag || verbose || Tracer::Global().enabled();
  if (verbose) {
    client_options.on_progress = [](const ProgressUpdate& update) {
      std::ostringstream os;
      os << "progress: " << update.stage << " "
         << FormatDouble(100.0 * update.fraction, 0) << "%";
      if (update.eta_s >= 0.0) {
        os << " (eta " << FormatDouble(update.eta_s, 1) << "s)";
      }
      std::cerr << os.str() << "\n";
    };
  }
  Result<ServeClient> client = ServeClient::Connect(socket_path,
                                                    client_options);
  if (!client.ok()) {
    std::cerr << client.status() << "\n";
    return 1;
  }
  Result<QueryResponse> response = client->CallWithRetry(request, retry);
  if (client_options.trace && client->last_trace().valid()) {
    // Hand the collected cross-process spans to the tracer so --trace_out
    // writes one merged Chrome trace (per-process tracks, shared trace id).
    Tracer::Global().RecordWireSpans(client->last_spans());
  }
  if (!response.ok()) {
    std::cerr << response.status() << "\n";
    return 1;
  }
  if (verbose && client->last_trace().valid()) {
    const std::vector<WireSpan>& spans = client->last_spans();
    int64_t origin = 0;
    for (const WireSpan& span : spans) {
      if (origin == 0 || (span.start_unix_us > 0 &&
                          span.start_unix_us < origin)) {
        origin = span.start_unix_us;
      }
    }
    TablePrinter table({"hop", "process", "pid", "start ms", "ms", "notes"});
    for (const WireSpan& span : spans) {
      std::string notes;
      for (const auto& [key, value] : span.annotations) {
        if (!notes.empty()) notes += " ";
        notes += key + "=" + value;
      }
      table.AddRow(
          {span.name, span.process, std::to_string(span.pid),
           FormatDouble(
               static_cast<double>(span.start_unix_us - origin) / 1000.0, 2),
           FormatDouble(static_cast<double>(span.duration_us) / 1000.0, 2),
           notes});
    }
    std::cerr << "trace " << client->last_trace().TraceIdHex() << " ("
              << spans.size() << " spans)\n"
              << table.ToString();
    for (const WireSpan& span : spans) {
      if (span.name != "router.request") continue;
      for (const auto& [key, value] : span.annotations) {
        if (key == "outcome" && value == "hedge_won") {
          std::cerr << "note: a hedged duplicate won this query (the "
                       "primary backend was slower or failed)\n";
        }
      }
    }
  }
  if (!response->status.ok()) {
    std::cerr << response->status << "\n";
    return 1;
  }
  std::cout << response->payload << "\n";
  return 0;
}

/// Render a slow-query log written by `serve`/`route --slow_query_log`.
int Slowlog(const std::vector<std::string>& args) {
  if (args.size() != 1) return Usage();
  Result<std::string> text = ReadFileToString(args[0]);
  if (!text.ok()) {
    std::cerr << text.status() << "\n";
    return 1;
  }
  TablePrinter table(
      {"trace", "process", "op", "key", "status", "total ms", "spans"});
  uint64_t shown = 0;
  uint64_t skipped = 0;
  for (const std::string& line : Split(*text, '\n')) {
    if (TrimAscii(line).empty()) continue;
    Result<SlowQueryEvent> event = ParseSlowQueryEvent(line);
    if (!event.ok()) {
      ++skipped;  // torn tail of a live log: render the rest anyway
      continue;
    }
    table.AddRow({event->trace_id.empty() ? "-" : event->trace_id,
                  event->process, event->op, event->key, event->status,
                  FormatDouble(event->total_ms, 2),
                  std::to_string(event->spans.size())});
    ++shown;
  }
  std::cout << shown << " slow quer" << (shown == 1 ? "y" : "ies");
  if (skipped > 0) std::cout << " (" << skipped << " unparseable skipped)";
  std::cout << "\n" << table.ToString();
  return 0;
}

/// Aggregate a slow-query log's span breakdowns; with --compare, gate on
/// per-hop share drift. Exit: 0 clean, 2 on drift, 1 on errors.
int TraceTop(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  std::string compare_path;
  double tolerance = 0.10;
  double min_share = 0.01;
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--compare" && i + 1 < args.size()) {
      compare_path = args[++i];
    } else if (args[i] == "--tolerance" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &tolerance) || tolerance < 0.0) {
        return Usage();
      }
    } else if (args[i] == "--min_share" && i + 1 < args.size()) {
      if (!ParseDouble(args[++i], &min_share) || min_share < 0.0) {
        return Usage();
      }
    } else {
      std::cerr << "unexpected argument '" << args[i] << "'\n";
      return Usage();
    }
  }
  auto load = [](const std::string& path) -> Result<TraceTopSummary> {
    FAIREM_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
    TraceTopSummary summary = SummarizeSlowLog(text);
    if (summary.events == 0) {
      return Status::InvalidArgument("'" + path +
                                     "' contains no slow-query events");
    }
    return summary;
  };
  Result<TraceTopSummary> summary = load(args[0]);
  if (!summary.ok()) {
    std::cerr << summary.status() << "\n";
    return 1;
  }
  if (!compare_path.empty()) {
    Result<TraceTopSummary> other = load(compare_path);
    if (!other.ok()) {
      std::cerr << other.status() << "\n";
      return 1;
    }
    return DriftGate(
        CompareHopShares(*summary, *other, tolerance, min_share), "HOP",
        "tracetop: hop shares", args[0], compare_path, tolerance);
  }
  std::cout << RenderHopShares(*summary);
  if (!summary->slowest_spans.empty()) {
    std::cout << "critical path of the slowest query ("
              << FormatDouble(summary->slowest_total_ms, 2) << " ms, trace "
              << (summary->slowest_trace_id.empty()
                      ? "-"
                      : summary->slowest_trace_id)
              << "):\n"
              << RenderCriticalPath(summary->slowest_spans);
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  // Peel the observability flags off first — they are valid anywhere on the
  // command line, for every subcommand, as `--flag value` or `--flag=value`.
  ObsOptions obs;
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    bool has_value = false;
    if (size_t eq = arg.find('='); eq != std::string::npos && arg[0] == '-') {
      value = arg.substr(eq + 1);
      arg.resize(eq);
      has_value = true;
    }
    auto take_value = [&]() {
      if (!has_value && i + 1 < argc) {
        value = argv[++i];
        has_value = true;
      }
      return has_value;
    };
    if (arg == "--log_level" && take_value()) {
      obs.log_level = value;
    } else if (arg == "--trace_out" && take_value()) {
      obs.trace_out = value;
    } else if (arg == "--metrics_out" && take_value()) {
      obs.metrics_out = value;
    } else if (arg == "--metrics_format" && take_value()) {
      Result<MetricsFormat> format = ParseMetricsFormat(value);
      if (!format.ok()) {
        std::cerr << format.status() << "\n";
        return Usage();
      }
      obs.metrics_format = *format;
    } else if (arg == "--profile_out" && take_value()) {
      obs.profile_out = value;
    } else if (arg == "--profile_hz" && take_value()) {
      double v = 0.0;
      if (!ParseDouble(value, &v) || v < 1.0) {
        std::cerr << "--profile_hz needs a positive integer\n";
        return Usage();
      }
      obs.profile_hz = static_cast<int>(v);
    } else if (arg == "--profile_mode" && take_value()) {
      if (!ParseProfileClock(value).ok()) {
        std::cerr << "--profile_mode must be cpu or wall\n";
        return Usage();
      }
      obs.profile_mode = value;
    } else if (arg == "--failpoints" && take_value()) {
      if (Status st = FailpointRegistry::Global().Configure(value); !st.ok()) {
        std::cerr << st << "\n";
        return Usage();
      }
    } else if (has_value) {
      // Re-split other --flag=value args so subcommand parsers, which
      // expect space-separated pairs, see them uniformly.
      args.push_back(std::move(arg));
      args.push_back(std::move(value));
    } else {
      args.push_back(std::move(arg));
    }
  }
  if (Status st = ApplyObsOptions(obs); !st.ok()) {
    std::cerr << st << "\n";
    return Usage();
  }
  int code = 1;
  if (command == "list") {
    code = List(args);
  } else if (command == "generate") {
    code = Generate(args);
  } else if (command == "audit") {
    code = Audit(args);
  } else if (command == "pipeline") {
    code = Pipeline(args);
  } else if (command == "grid") {
    code = Grid(args);
  } else if (command == "benchdiff") {
    code = BenchDiff(args);
  } else if (command == "proftop") {
    code = ProfTop(args);
  } else if (command == "serve") {
    code = Serve(args);
  } else if (command == "route") {
    code = Route(args);
  } else if (command == "query") {
    code = Query(args);
  } else if (command == "slowlog") {
    code = Slowlog(args);
  } else if (command == "tracetop") {
    code = TraceTop(args);
  } else {
    return Usage();
  }
  if (Status st = FlushObsOutputs(obs); !st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  return code;
}

}  // namespace
}  // namespace fairem

int main(int argc, char** argv) { return fairem::Main(argc, argv); }
