#ifndef FAIREM_BENCH_PAPER_BENCH_H_
#define FAIREM_BENCH_PAPER_BENCH_H_

// The one driver under every table and figure bench that generates a paper
// dataset from --scale/--seed. RunPaperBench parses the shared bench flags
// (ParseBenchFlags) plus the bench's own, runs the bench body inside a
// fairem.bench.<name> span, and ends every run by writing a
// BENCH_<name>.json metrics snapshot (atomic and durable: temp + fsync +
// rename, profiler and fairem.proc.* resource gauges included) into the
// working directory; `fairem benchdiff A.json B.json` diffs two snapshots.
//
// The body reads its datasets, auditors and matcher runs from a
// PaperBench, which generates each dataset, builds each auditor and fits
// each (dataset, matcher) once per bench (its RunStore). A grid bench fits
// its runs once for both of its grids. One policy covers a failed run:
// it is printed on stderr and listed in an "errors (runs unavailable):"
// block after the bench's stdout, the bench draws or leaves out its cell,
// and the bench still exits 0. A failure the body returns (datagen, audit,
// sweep) exits 1, and a grid sweep cancelled by SIGINT/SIGTERM exits
// 128+signal.

#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/disparity.h"
#include "src/datagen/benchmark_suite.h"
#include "src/harness/bench_flags.h"
#include "src/harness/experiment.h"
#include "src/obs/obs.h"
#include "src/obs/profiler.h"
#include "src/report/table_printer.h"
#include "src/robust/supervisor.h"
#include "src/util/string_util.h"

namespace fairem {

/// One bench's datasets, auditors and matcher runs, each made on first use
/// and kept for the rest of the run.
class PaperBench {
 public:
  explicit PaperBench(BenchFlags flags) : flags_(std::move(flags)) {}

  const BenchFlags& flags() const { return flags_; }

  /// `kind` at the bench's --scale and --seed, generated on first use.
  Result<const EMDataset*> Dataset(DatasetKind kind) {
    auto it = datasets_.find(kind);
    if (it == datasets_.end()) {
      FAIREM_ASSIGN_OR_RETURN(
          EMDataset dataset,
          GenerateDataset(kind, flags_.scale, flags_.seed_offset));
      it = datasets_.emplace(kind, std::move(dataset)).first;
    }
    return &it->second;
  }

  /// The auditor of `dataset`'s sensitive attribute, built on first use.
  Result<const FairnessAuditor*> Auditor(const EMDataset& dataset) {
    auto it = auditors_.find(dataset.name);
    if (it == auditors_.end()) {
      FAIREM_ASSIGN_OR_RETURN(FairnessAuditor auditor, MakeAuditor(dataset));
      it = auditors_.emplace(dataset.name, std::move(auditor)).first;
    }
    return &it->second;
  }

  /// `kind` fitted on `dataset` and scored on its test split, on first use.
  /// A failed run is printed on stderr and listed in the errors block once;
  /// asking again returns the same failure without a refit.
  Result<const MatcherRun*> Run(const EMDataset& dataset, MatcherKind kind) {
    const std::string run_name =
        std::string(MatcherKindName(kind)) + " on " + dataset.name;
    for (const auto& [failed, status] : errors_) {
      if (failed == run_name) return status;
    }
    Result<const MatcherRun*> run = runs_.Run(dataset, kind);
    if (!run.ok()) {
      errors_.emplace_back(run_name, run.status());
      std::cerr << run_name << ": " << run.status() << "\n";
    }
    return run;
  }

  /// The failed runs, one per line under a heading; empty when none failed.
  std::string ErrorsBlock() const {
    if (errors_.empty()) return "";
    std::string out = "errors (runs unavailable):\n";
    for (const auto& [failed, status] : errors_) {
      out += "  " + failed + ": " + status.ToString() + "\n";
    }
    return out;
  }

 private:
  BenchFlags flags_;
  std::map<DatasetKind, EMDataset> datasets_;
  std::map<std::string, FairnessAuditor> auditors_;
  RunStore runs_;  // memory only, matcher seed 1234 as RunMatcher's default
  std::vector<std::pair<std::string, Status>> errors_;
};

/// Parses the flags, runs `body` and writes the snapshot; returns the
/// bench's exit code. `extra_flags` are the bench's own flags, bound to
/// variables the body reads.
inline int RunPaperBench(int argc, char** argv,
                         const std::function<Status(PaperBench&)>& body,
                         FlagSet extra_flags = {}) {
  PaperBench bench(ParseBenchFlags(argc, argv, std::move(extra_flags)));
  Status status;
  {
    Span bench_span("fairem.bench." + bench.flags().bench_name);
    status = body(bench);
  }
  std::cout << bench.ErrorsBlock();
  int exit_code = 0;
  if (!status.ok()) {
    std::cerr << status << "\n";
    // Cancelled means SIGINT/SIGTERM stopped a grid sweep: any workers are
    // already reaped, so the snapshot is still written below.
    exit_code = status.IsCancelled()
                    ? InterruptExitCode(ShutdownGuard::signal_number())
                    : 1;
  }
  Profiler::Global().ExportMetrics();
  Profiler::Global().ExportStageCpuGauges();
  EmitProcessResourceGauges();
  const std::string path = "BENCH_" + bench.flags().bench_name + ".json";
  if (Status st = MetricsRegistry::Global().WriteJsonFile(path); !st.ok()) {
    FAIREM_LOG(WARN) << "could not write bench metrics snapshot"
                     << LogKv("path", path) << LogKv("status", st.ToString());
  } else {
    FAIREM_LOG(INFO) << "wrote bench metrics snapshot" << LogKv("path", path);
  }
  return exit_code;
}

/// Prints one unfairness-grid figure (UnfairnessGridReport, keeping its
/// runs in `runs` when given) under `title`.
inline Status PrintGrid(const EMDataset& dataset, bool pairwise,
                        const GridRunOptions& options, const char* title,
                        RunStore* runs = nullptr) {
  FAIREM_ASSIGN_OR_RETURN(
      std::string grid, UnfairnessGridReport(dataset, pairwise, options, runs));
  std::cout << "== " << title << " ==\n"
            << (grid.empty() ? "(no unfair cells)\n" : grid) << "\n";
  return Status::OK();
}

/// The legend under the grid figures.
inline constexpr char kGridMarkers[] =
    "markers: BR BooleanRule, DD Dedupe, DT/SV/RF/LO/LI/NB Magellan "
    "classifiers, DM DeepMatcher, DI Ditto, GN GNEM, HM HierMatcher, MC "
    "MCAN\n";

/// A grid figure bench (Figures 6-13 and 17-20): the single- and, with a
/// `pairwise_title`, pairwise-fairness grids of one dataset. On top of the
/// shared bench flags it takes the grid-sweep flags of `fairem grid`
/// (RegisterGridRunFlags): --checkpoint_dir resumes an interrupted run
/// from its completed cells, and --jobs/--cell_timeout_s/--cell_max_rss_mb
/// run the sweep under the process-isolated supervisor
/// (src/robust/supervisor.h), whose workers ship their metrics and spans
/// back (DESIGN.md §11), so the snapshot is the same under --jobs 1 and N.
/// Both grids read one RunStore built from the same options: in process
/// the pairwise grid audits the single grid's runs; supervised workers
/// share them only through --checkpoint_dir's `scores/`.
inline int RunGridBench(int argc, char** argv, DatasetKind kind,
                        const char* single_title,
                        const char* pairwise_title) {
  // Audit each group against everyone else (AuditReference::kComplement):
  // with the overall matcher as reference, a group's own false positives
  // drag the reference down and mask the disparity.
  GridRunOptions options;
  options.audit.reference = AuditReference::kComplement;
  FlagSet grid_flags;
  RegisterGridRunFlags(&grid_flags, &options);
  auto body = [&](PaperBench& bench) -> Status {
    options.intra_jobs = bench.flags().intra_jobs;
    FAIREM_ASSIGN_OR_RETURN(const EMDataset* dataset, bench.Dataset(kind));
    RunStore runs(options);
    FAIREM_RETURN_NOT_OK(
        PrintGrid(*dataset, false, options, single_title, &runs));
    if (pairwise_title != nullptr) {
      FAIREM_RETURN_NOT_OK(
          PrintGrid(*dataset, true, options, pairwise_title, &runs));
    }
    std::cout << kGridMarkers;
    return Status::OK();
  };
  return RunPaperBench(argc, argv, body, std::move(grid_flags));
}

/// Tables 5 and 6: for two groups of a social dataset, each matcher's TPR
/// and a second rate with their between-group sub and div disparities
/// (BetweenGroupDisparity; negative = the suspect group does better), then
/// accuracy and F1.
struct RateTableSpec {
  DatasetKind dataset;
  const char* heading;  // the title block above the table
  const char* suspect;  // group names in the breakdown
  const char* other;
  const char* suspect_column;  // their column labels
  const char* other_column;
  FairnessMeasure second;  // the parity of the second rate
  bool skip_boolean_rule = false;
};

inline int RunRateTable(int argc, char** argv, const RateTableSpec& spec) {
  auto body = [&](PaperBench& bench) -> Status {
    FAIREM_ASSIGN_OR_RETURN(const EMDataset* dataset,
                            bench.Dataset(spec.dataset));
    std::cout << spec.heading;
    const FairnessMeasure measures[] = {
        FairnessMeasure::kTruePositiveRateParity, spec.second};
    std::vector<std::string> headers = {"Matcher"};
    for (FairnessMeasure m : measures) {
      std::string rate = FairnessMeasureName(m);
      rate.pop_back();  // the parity's statistic: TPRP -> TPR
      for (const char* column :
           {spec.suspect_column, spec.other_column, "sub", "div"}) {
        headers.push_back(rate + " " + column);
      }
    }
    headers.push_back("Acc");
    headers.push_back("F1");
    const size_t width = headers.size();
    TablePrinter table(std::move(headers));
    auto fmt = [](const Result<double>& v) {
      return v.ok() ? FormatDouble(*v, 2) : std::string("-");
    };
    for (MatcherKind kind : AllMatcherKinds()) {
      if (spec.skip_boolean_rule && kind == MatcherKind::kBooleanRule) {
        continue;
      }
      Result<const MatcherRun*> run = bench.Run(*dataset, kind);
      if (!run.ok()) continue;
      std::vector<std::string> row = {MatcherKindName(kind)};
      if (!(*run)->supported) {
        row.resize(width, "-");
        table.AddRow(std::move(row));
        continue;
      }
      FAIREM_ASSIGN_OR_RETURN(std::vector<GroupRates> breakdown,
                              GroupBreakdown(*dataset, **run));
      const ConfusionCounts* suspect = nullptr;
      const ConfusionCounts* other = nullptr;
      for (const GroupRates& g : breakdown) {
        if (g.group == spec.suspect) suspect = &g.counts;
        if (g.group == spec.other) other = &g.counts;
      }
      if (suspect == nullptr || other == nullptr) {
        return Status::NotFound("a table group is missing from the breakdown");
      }
      for (FairnessMeasure m : measures) {
        const Result<double> s = MeasureStatistic(m, *suspect);
        const Result<double> o = MeasureStatistic(m, *other);
        row.push_back(fmt(s));
        row.push_back(fmt(o));
        // A disparity is undefined when either group's rate is.
        for (DisparityMode mode :
             {DisparityMode::kSubtraction, DisparityMode::kDivision}) {
          row.push_back(s.ok() && o.ok()
                            ? fmt(BetweenGroupDisparity(m, *s, *o, mode))
                            : "-");
        }
      }
      row.push_back(FormatDouble((*run)->accuracy, 2));
      row.push_back(FormatDouble((*run)->f1, 2));
      table.AddRow(std::move(row));
    }
    std::cout << table.ToString() << "\n";
    return Status::OK();
  };
  return RunPaperBench(argc, argv, body);
}

}  // namespace fairem

#endif  // FAIREM_BENCH_PAPER_BENCH_H_
