// fairem — command-line front end to the library.
//
//   list       the built-in benchmark datasets and the 13 matchers
//   generate   generate a benchmark dataset and persist it to a directory
//   audit      train a matcher on a dataset directory; print its
//              correctness summary and fairness audit
//   pipeline   the whole audit pipeline in-process — datagen, blocking,
//              features, fit, predict, audit — each stage a traced span
//   grid       Algorithm 1's batch audit of one dataset, all matchers,
//              rendered as the unfairness grid; cells retry, degrade to
//              error entries, checkpoint and resume, and run in supervised
//              forked workers that ship telemetry back (DESIGN.md §9-11)
//   benchdiff  per-metric diff of two metrics snapshots; --fail_on clauses
//              turn it into a regression gate
//   proftop    summarize (or gate the stage shares of) folded profiles
//   serve      the audit daemon on a UNIX socket (DESIGN.md §14)
//   route      the shard router in front of serve daemons (DESIGN.md §15)
//   query      one query against a daemon or router; prints the payload
//   slowlog    render a slow-query log written by serve or route
//   tracetop   per-hop shares and the slowest query's critical path of a
//              slow-query log; --compare gates two logs
//
// Every command also takes the observability flags and --failpoints. The
// flags of each command are registered in kCommands, which generates the
// usage text: a command-line error prints the command's synopsis, a
// missing or unknown command every command's synopsis.
//
// Exit status: 0 on success, 1 on usage errors or failures, 2 when a
// benchdiff/proftop/tracetop gate trips, 128+signal (130 SIGINT / 143
// SIGTERM) when a supervised grid run is interrupted and shuts down
// cooperatively.

#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
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
#include "src/util/flags.h"
#include "src/util/io_util.h"
#include "src/util/string_util.h"
#include "src/util/thread_pool.h"

namespace fairem {
namespace {

using Args = std::vector<std::string>;

/// Every command's flag targets, defaults included; a command registers
/// only the flags it reads.
struct CliOptions {
  double scale = 1.0;
  uint64_t seed = 0;
  bool pairwise = false;
  int intra_jobs = 1;
  double threshold = -1.0;
  bool division = false;
  GridRunOptions grid;
  std::vector<std::string> fail_on;
  bool all = false;
  bool by_stage = false;
  int top_n = 20;
  std::string compare;
  double tolerance = 0.10;
  double min_share = 0.01;
  ServeOptions serve;
  RouteOptions route;
  bool no_hedge = false;
  QueryRequest request;
  int retries = 4;
  ServeClientOptions client;
  bool trace = false;
  bool verbose = false;
};

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

int List(const CliOptions&, const Args&) {
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

int Generate(const CliOptions& o, const Args& args) {
  Result<DatasetKind> kind = ParseDatasetKind(args[0]);
  if (!kind.ok()) {
    std::cerr << kind.status() << "\n";
    return 1;
  }
  Result<EMDataset> dataset = GenerateDataset(*kind, o.scale, o.seed);
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

int Audit(const CliOptions& o, const Args& args) {
  AuditOptions options;
  if (o.division) options.mode = DisparityMode::kDivision;
  Result<EMDataset> dataset = LoadDataset(args[0]);
  if (!dataset.ok()) {
    std::cerr << dataset.status() << "\n";
    return 1;
  }
  if (o.threshold >= 0.0) dataset->default_threshold = o.threshold;
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
      o.pairwise ? AuditRunPairwise(*dataset, *run, options)
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
int Pipeline(const CliOptions& o, const Args& args) {
  SetIntraJobs(o.intra_jobs);
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
  Result<EMDataset> dataset = GenerateDataset(*kind, o.scale, o.seed);
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
      o.pairwise ? AuditRunPairwise(*dataset, *run, AuditOptions{})
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
int Grid(const CliOptions& o, const Args& args) {
  GridRunOptions options = o.grid;
  options.audit.reference = AuditReference::kComplement;
  options.intra_jobs = o.intra_jobs;
  Result<DatasetKind> kind = ParseDatasetKind(args[0]);
  if (!kind.ok()) {
    std::cerr << kind.status() << "\n";
    return 1;
  }
  Result<EMDataset> dataset = GenerateDataset(*kind, o.scale, o.seed);
  if (!dataset.ok()) {
    std::cerr << dataset.status() << "\n";
    return 1;
  }
  Result<std::string> grid =
      UnfairnessGridReport(*dataset, o.pairwise, options);
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
            << (o.pairwise ? "pairwise" : "single") << " fairness ==\n"
            << (grid->empty() ? "(no unfair cells)\n" : *grid);
  return 0;
}

/// Diff two metrics snapshots and optionally gate on --fail_on clauses.
/// Exit: 0 clean, 2 when a clause trips, 1 on usage/IO/parse errors.
int BenchDiff(const CliOptions& o, const Args& args) {
  std::vector<FailOnSpec> specs;
  for (const std::string& text : o.fail_on) {
    Result<FailOnSpec> spec = ParseFailOnSpec(text);
    if (!spec.ok()) {
      std::cerr << spec.status() << "\n";
      return 1;
    }
    specs.push_back(std::move(*spec));
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
  std::cout << RenderBenchDiffTable(rows, /*changed_only=*/!o.all);
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
int ProfTop(const CliOptions& o, const Args& args) {
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
  if (!o.compare.empty()) {
    Result<FoldedProfile> other = load(o.compare);
    if (!other.ok()) {
      std::cerr << other.status() << "\n";
      return 1;
    }
    return DriftGate(
        CompareStageShares(*profile, *other, o.tolerance, o.min_share),
        "STAGE", "proftop: stage shares", args[0], o.compare, o.tolerance);
  }
  std::cout << (o.by_stage ? RenderProfTopByStage(*profile)
                           : RenderProfTopByStack(*profile, o.top_n));
  return 0;
}

int Serve(const CliOptions& o, const Args& args) {
  ServeOptions options = o.serve;
  options.socket_path = args[0];
  if (Status st = RunServeDaemon(options); !st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  return 0;
}

int Route(const CliOptions& o, const Args& args) {
  RouteOptions options = o.route;
  options.socket_path = args[0];
  options.hedge = !o.no_hedge;
  if (Status st = RunRouteDaemon(options); !st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  return 0;
}

int Query(const CliOptions& o, const Args& args) {
  IgnoreSigpipe();  // a daemon closing mid-write must not kill us
  const std::string socket_path = args[0];
  QueryRequest request = o.request;
  request.op = args[1];
  const bool cell = request.op == "cell";
  if (args.size() != (cell ? 4u : 2u) ||
      (!cell && request.op != "ping" && request.op != "stats")) {
    std::cerr << "query wants <socket> ping|stats or <socket> cell "
                 "<dataset> <matcher>\n";
    return 1;
  }
  if (cell) {
    request.dataset = args[2];
    request.matcher = args[3];
  }
  if (o.pairwise) request.mode = "pairwise";
  RetryPolicy retry;
  retry.max_attempts = 1 + o.retries;
  ServeClientOptions client_options = o.client;
  // --trace_out wants the merged Chrome trace, --verbose wants the per-hop
  // table; both need the trace context propagated end to end.
  client_options.trace = o.trace || o.verbose || Tracer::Global().enabled();
  if (o.verbose) {
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
  if (o.verbose && client->last_trace().valid()) {
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
int Slowlog(const CliOptions&, const Args& args) {
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
int TraceTop(const CliOptions& o, const Args& args) {
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
  if (!o.compare.empty()) {
    Result<TraceTopSummary> other = load(o.compare);
    if (!other.ok()) {
      std::cerr << other.status() << "\n";
      return 1;
    }
    return DriftGate(
        CompareHopShares(*summary, *other, o.tolerance, o.min_share), "HOP",
        "tracetop: hop shares", args[0], o.compare, o.tolerance);
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

/// proftop's and tracetop's share-drift gate.
void DriftFlags(FlagSet* f, CliOptions* o) {
  f->String("--compare", &o->compare, "FILE2");
  f->Number("--tolerance", &o->tolerance, "T", 0.0);
  f->Number("--min_share", &o->min_share, "S", 0.0);
}

/// The front-end knobs `serve` and `route` share.
template <typename DaemonOptions>
void DaemonFlags(FlagSet* f, DaemonOptions* o) {
  f->Number("--deadline_s", &o->default_deadline_s, "S");
  f->Number("--max_deadline_s", &o->max_deadline_s, "S");
  f->Number("--io_timeout_s", &o->io_timeout_s, "S");
  f->Number("--retry_after_s", &o->retry_after_s, "S");
  f->String("--drain_metrics_out", &o->metrics_path, "FILE");
  f->Number("--slow_query_ms", &o->slow_query_ms, "MS");
  f->String("--slow_query_log", &o->slow_query_log, "FILE");
}

/// A command: its positional synopsis and count, the flags it reads
/// (registered into CliOptions), and its body.
struct Command {
  const char* name;
  const char* args;
  size_t min_args;
  size_t max_args;
  void (*flags)(FlagSet*, CliOptions*);
  int (*run)(const CliOptions&, const Args&);
};

const Command kCommands[] = {
    {"list", "", 0, 0, [](FlagSet*, CliOptions*) {}, List},
    {"generate", "<dataset> <dir>", 2, 2,
     [](FlagSet* f, CliOptions* o) {
       RegisterDatagenFlags(f, &o->scale, &o->seed);
     },
     Generate},
    {"audit", "<dir> <matcher>", 2, 2,
     [](FlagSet* f, CliOptions* o) {
       f->Bool("--pairwise", &o->pairwise);
       f->Number("--threshold", &o->threshold, "T");  // < 0: the dataset's
       f->Bool("--division", &o->division);
     },
     Audit},
    {"pipeline", "<dataset> <matcher>", 2, 2,
     [](FlagSet* f, CliOptions* o) {
       RegisterDatagenFlags(f, &o->scale, &o->seed);
       f->Bool("--pairwise", &o->pairwise);
       RegisterIntraJobsFlag(f, &o->intra_jobs);
     },
     Pipeline},
    {"grid", "<dataset>", 1, 1,
     [](FlagSet* f, CliOptions* o) {
       f->Bool("--pairwise", &o->pairwise);
       RegisterDatagenFlags(f, &o->scale, &o->seed);
       RegisterGridRunFlags(f, &o->grid);
       RegisterIntraJobsFlag(f, &o->intra_jobs);
     },
     Grid},
    {"benchdiff", "<old.json> <new.json>", 2, 2,
     [](FlagSet* f, CliOptions* o) {
       f->Repeated("--fail_on", &o->fail_on, "SPEC");
       f->Bool("--all", &o->all);
     },
     BenchDiff},
    {"proftop", "<profile.folded>", 1, 1,
     [](FlagSet* f, CliOptions* o) {
       f->Choice("--by", &o->by_stage, {{"stack", false}, {"stage", true}});
       f->Number("-n", &o->top_n, "N", 1);
       DriftFlags(f, o);
     },
     ProfTop},
    {"serve", "<socket>", 1, 1,
     [](FlagSet* f, CliOptions* o) {
       ServeOptions& s = o->serve;
       f->List("--datasets", &s.warm.datasets, "a,b,..");
       RegisterDatagenFlags(f, &s.warm.scale, &s.warm.seed);
       f->String("--checkpoint_dir", &s.warm.checkpoint_dir, "DIR");
       f->Number("--max_inflight", &s.max_inflight, "N", 1);
       f->Number("--max_queue", &s.max_queue, "N", 0);
       f->Number("--max_attempts", &s.max_attempts, "N", 1);
       f->Number("--worker_max_rss_mb", &s.worker_max_rss_mb, "M", 0);
       f->Number("--worker_max_cpu_s", &s.worker_max_cpu_s, "S", 0);
       f->Number("--progress_interval_s", &s.progress_interval_s, "S");
       DaemonFlags(f, &s);
     },
     Serve},
    {"route", "<socket>", 1, 1,
     [](FlagSet* f, CliOptions* o) {
       RouteOptions& r = o->route;
       f->List("--backends", &r.backends, "a.sock,b.sock,..");
       f->String("--backends_file", &r.backends_file, "FILE");
       f->Number("--health_period_s", &r.health_period_s, "S");
       f->Number("--health_timeout_s", &r.health_timeout_s, "S");
       f->Number("--breaker_failures", &r.breaker_failure_threshold, "N", 1);
       f->Number("--breaker_cooldown_s", &r.breaker_cooldown_s, "S");
       f->Bool("--no_hedge", &o->no_hedge);
       f->Number("--hedge_min_delay_s", &r.hedge_min_delay_s, "S");
       f->Number("--max_inflight", &r.max_inflight_jobs, "N", 1);
       DaemonFlags(f, &r);
     },
     Route},
    {"query", "<socket> (ping | stats | cell <dataset> <matcher>)", 2, 4,
     [](FlagSet* f, CliOptions* o) {
       f->Bool("--pairwise", &o->pairwise);
       f->Number("--deadline_s", &o->request.deadline_s, "S");
       f->Number("--retries", &o->retries, "N", 0);
       f->Number("--io_timeout_s", &o->client.io_timeout_s, "S");
       f->Bool("--trace", &o->trace);
       f->Bool("--verbose", &o->verbose);
     },
     Query},
    {"slowlog", "<FILE>", 1, 1, [](FlagSet*, CliOptions*) {}, Slowlog},
    {"tracetop", "<FILE>", 1, 1, DriftFlags, TraceTop},
};

/// "fairem <command> <args> [--flag V]...".
std::string Synopsis(const Command& command, const FlagSet& flags) {
  std::string line = std::string("fairem ") + command.name;
  for (const std::string& part : {std::string(command.args),
                                  flags.Synopsis()}) {
    if (!part.empty()) line += " " + part;
  }
  return line;
}

/// Every command's synopsis, then the flags all of them take.
int Usage() {
  std::cerr << "usage:\n";
  for (const Command& command : kCommands) {
    FlagSet flags;
    CliOptions defaults;
    command.flags(&flags, &defaults);
    std::cerr << "  " << Synopsis(command, flags) << "\n";
  }
  FlagSet common;
  ObsOptions obs;
  std::optional<std::string> failpoints;
  RegisterObsFlags(&common, &obs, &failpoints);
  std::cerr << "every command also takes:\n  " << common.Synopsis() << "\n";
  return 1;
}

int Main(int argc, char** argv) {
  const Command* command = nullptr;
  for (const Command& candidate : kCommands) {
    if (argc >= 2 && std::string_view(argv[1]) == candidate.name) {
      command = &candidate;
    }
  }
  if (command == nullptr) return Usage();
  CliOptions options;
  ObsOptions obs;
  std::optional<std::string> failpoints;
  FlagSet flags;
  command->flags(&flags, &options);
  RegisterObsFlags(&flags, &obs, &failpoints);
  Args args;
  Status st = flags.Parse(Args(argv + 2, argv + argc), &args);
  if (st.ok() && args.size() < command->min_args) {
    st = Status::InvalidArgument("missing arguments");
  } else if (st.ok() && args.size() > command->max_args) {
    st = Status::InvalidArgument("unexpected argument '" +
                                 args[command->max_args] + "'");
  }
  if (st.ok() && failpoints) {
    st = FailpointRegistry::Global().Configure(*failpoints);
  }
  if (st.ok()) st = ApplyObsOptions(obs);
  if (!st.ok()) {
    std::cerr << st.message() << "\nusage: " << Synopsis(*command, flags)
              << "\n";
    return 1;
  }
  const int code = command->run(options, args);
  if (Status flushed = FlushObsOutputs(obs); !flushed.ok()) {
    std::cerr << flushed << "\n";
    return 1;
  }
  return code;
}

}  // namespace
}  // namespace fairem

int main(int argc, char** argv) { return fairem::Main(argc, argv); }
