#ifndef FAIREM_BENCH_GRID_BENCH_COMMON_H_
#define FAIREM_BENCH_GRID_BENCH_COMMON_H_

// Shared driver for the unfairness-grid figure benches (Figures 6-13 and
// 17-20): generates one benchmark dataset, trains all matchers, and prints
// the single- (and optionally pairwise-) fairness grids. On top of the
// shared bench flags (ParseBenchFlags) a grid bench takes the grid-sweep
// flags of `fairem grid` (RegisterGridRunFlags): --checkpoint_dir resumes
// an interrupted run from its completed cells, and --jobs/--cell_timeout_s/
// --cell_max_rss_mb run the sweep under the process-isolated supervisor
// (src/robust/supervisor.h), where Ctrl-C shuts down cooperatively and the
// bench exits with the conventional 128+signal code. Workers ship their
// metrics deltas and spans back over the pipe (DESIGN.md §11), so the
// counters and the Chrome trace are equivalent between --jobs 1 and
// --jobs N. Every run ends by writing a BENCH_<name>.json metrics snapshot
// (atomic and durable: temp + fsync + rename) into the working directory,
// so the perf/counter trajectory of successive commits accumulates;
// `fairem benchdiff A.json B.json` diffs two snapshots.

#include <iostream>
#include <utility>

#include "src/datagen/benchmark_suite.h"
#include "src/harness/bench_flags.h"
#include "src/harness/experiment.h"
#include "src/obs/obs.h"
#include "src/obs/profiler.h"
#include "src/robust/supervisor.h"

namespace fairem {

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
  const BenchFlags flags =
      ParseBenchFlags(argc, argv, std::move(grid_flags));
  options.intra_jobs = flags.intra_jobs;
  int exit_code = 0;
  {
    Span bench_span("fairem.bench." + flags.bench_name);
    Result<EMDataset> dataset =
        GenerateDataset(kind, flags.scale, flags.seed_offset);
    if (!dataset.ok()) {
      std::cerr << dataset.status() << "\n";
      return 1;
    }
    // A Cancelled report means SIGINT/SIGTERM arrived: workers are already
    // reaped, so fall through to the snapshot write and exit 128+signal.
    auto grid_exit = [&](const Status& st) {
      std::cerr << st << "\n";
      return st.IsCancelled() ? InterruptExitCode(ShutdownGuard::signal_number())
                              : 1;
    };
    Result<std::string> single =
        UnfairnessGridReport(*dataset, false, options);
    if (!single.ok()) {
      exit_code = grid_exit(single.status());
    } else {
      std::cout << "== " << single_title << " ==\n"
                << (single->empty() ? "(no unfair cells)\n" : *single) << "\n";
    }
    if (exit_code == 0 && pairwise_title != nullptr) {
      Result<std::string> pairwise =
          UnfairnessGridReport(*dataset, true, options);
      if (!pairwise.ok()) {
        exit_code = grid_exit(pairwise.status());
      } else {
        std::cout << "== " << pairwise_title << " ==\n"
                  << (pairwise->empty() ? "(no unfair cells)\n" : *pairwise)
                  << "\n";
      }
    }
    if (exit_code == 0) {
      std::cout << "markers: BR BooleanRule, DD Dedupe, DT/SV/RF/LO/LI/NB "
                   "Magellan classifiers, DM DeepMatcher, DI Ditto, GN GNEM, "
                   "HM HierMatcher, MC MCAN\n";
    }
  }
  // Fold profiler sample counters (no-ops while the profiler is off) and
  // the fairem.proc.* rusage gauges into the BENCH snapshot below, so every
  // bench records its peak RSS and CPU split alongside its counters.
  Profiler::Global().ExportMetrics();
  Profiler::Global().ExportStageCpuGauges();
  EmitProcessResourceGauges();
  std::string snapshot_path = "BENCH_" + flags.bench_name + ".json";
  if (Status st = MetricsRegistry::Global().WriteJsonFile(snapshot_path);
      !st.ok()) {
    FAIREM_LOG(WARN) << "could not write bench metrics snapshot"
                     << LogKv("path", snapshot_path)
                     << LogKv("status", st.ToString());
  } else {
    FAIREM_LOG(INFO) << "wrote bench metrics snapshot"
                     << LogKv("path", snapshot_path);
  }
  return exit_code;
}

}  // namespace fairem

#endif  // FAIREM_BENCH_GRID_BENCH_COMMON_H_
