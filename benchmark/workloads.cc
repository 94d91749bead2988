#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>

#include "bench_stats.h"
#include "fleet.h"
#include "src/core/audit.h"
#include "src/core/confusion.h"
#include "src/datagen/benchmark_suite.h"
#include "src/embed/subword_embedding.h"
#include "src/feature/feature_gen.h"
#include "src/harness/experiment.h"
#include "src/matcher/matcher.h"
#include "src/matcher/serialize.h"
#include "src/ml/decision_tree.h"
#include "src/ml/linear_models.h"
#include "src/ml/naive_bayes.h"
#include "src/ml/random_forest.h"
#include "src/obs/benchdiff.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace.h"
#include "src/report/grid.h"
#include "src/robust/checkpoint.h"
#include "src/text/similarity.h"
#include "src/text/simd.h"
#include "src/util/io_util.h"

namespace fairem::bench {
namespace {

namespace fs = std::filesystem;

// The matcher seed every grid uses (GridRunOptions' default, as the CLI's
// `fairem grid` leaves it); the benchmark seed moves the data, not this.
constexpr uint64_t kMatcherSeed = 1234;
// Set-ups per run at least; setup_s is their median. Batch set-up is
// datagen alone, cheap enough to repeat more.
constexpr int kSetupRepeats = 3;
constexpr int kBatchSetupRepeats = 9;
// Windows of kWarmWindow warm rounds (every report replayed from
// checkpoints) per batch run at least.
constexpr size_t kMinWarmWindows = 5;
// Windows after each report of a cold pass.
constexpr int kWarmWindowsPerReport = 2;
// Warm fetches of every served cell after each serve cycle.
constexpr int kServeWarmRounds = 50;
// Cold passes per batch run at least; more while --seconds allows.
constexpr int kMinColdPasses = 2;
// A window of hits whose generator ran later than this at p99 measured the
// host, and the hit percentiles leave it out.
constexpr double kGenLateLimitMs = 1.0;
// Time a fleet may take to warm up before the run is declared invalid.
constexpr double kFleetReadyTimeoutS = 60.0;
// The hit-rate ladder: routed hit-only rungs, p99 against the limit.
constexpr double kLadderLimitMs = 2.0;
constexpr double kLadderRungS = 0.5;
const std::vector<double> kLadderRates = {2000, 4000, 8000, 16000};

// ------------------------------------------------------------- inputs --

struct GridInput {
  DatasetKind kind;
  double scale;
  bool in_setup;  // generated in set-up, else inside every cold pass
  int draw = 0;   // > 0: another independent dataset of the same kind
};

// Datagen seed distance between two draws of one dataset kind in a run.
constexpr uint64_t kDrawStride = 1000003;

struct BatchSpec {
  std::vector<GridInput> inputs;
  std::vector<bool> modes;  // pairwise?
  std::vector<MatcherKind> skip;
  int jobs = 1;
};

// Cricket runs at x2 wherever it appears: at x1, 8 seeds in 1000 leave its
// training split without a single non-match, and NBMatcher fails the cell.
constexpr double kCricketScale = 2.0;
// A daemon warms all its datasets at one scale, so every served dataset
// follows Cricket's.
constexpr double kServeScale = kCricketScale;

/// One grid of served cells: a dataset in one mode.
struct ServedGrid {
  DatasetKind kind;
  bool pairwise;
};

/// A fleet's cells: the hot grid, always Cricket single-mode, prewarmed in
/// set-up; and the miss grids, whose cells are each asked once per
/// measured phase.
struct ServeSpec {
  std::vector<ServedGrid> miss_grids;
  /// The hit stream's least length per measured phase.
  double min_phase_s = 5.5;

  /// Every grid, the hot one first.
  std::vector<ServedGrid> Grids() const {
    std::vector<ServedGrid> grids = {{DatasetKind::kCricket, false}};
    grids.insert(grids.end(), miss_grids.begin(), miss_grids.end());
    return grids;
  }
  /// The datasets the daemons warm, each once.
  std::vector<DatasetKind> Datasets() const {
    std::vector<DatasetKind> kinds;
    for (const ServedGrid& g : Grids()) {
      if (std::find(kinds.begin(), kinds.end(), g.kind) == kinds.end()) {
        kinds.push_back(g.kind);
      }
    }
    return kinds;
  }
};

BatchSpec BatchSpecFor(const std::string& workload, bool smoke) {
  BatchSpec spec;
  if (workload == "paper_grid") {
    // Cameras at x0.5 has every brand in every seed's sample; at x0.25 the
    // pairwise grid's width (and cost) swings with the seed.
    spec.inputs = {{DatasetKind::kDblpScholar, 0.25, true},
                   {DatasetKind::kItunesAmazon, 0.25, true}};
    if (!smoke) {
      spec.inputs.insert(spec.inputs.begin(),
                         {DatasetKind::kDblpAcm, 0.25, true});
      spec.inputs.push_back({DatasetKind::kCricket, kCricketScale, true});
      spec.inputs.push_back({DatasetKind::kCameras, 0.5, true});
    }
    spec.modes = {false, true};
  } else if (workload == "features_large") {
    // Two independent x8 draws rather than one x16: the classifiers' fit
    // time swings with the data a seed draws, and a sum over two draws
    // swings less.
    for (int draw : {0, 1}) {
      spec.inputs.push_back(
          {DatasetKind::kItunesAmazon, smoke ? 0.5 : 8.0, true, draw});
    }
    spec.modes = {false};
    spec.skip = NeuralMatcherKinds();
    spec.jobs = 2;
  } else {  // scale_sweep
    const std::vector<double> scales =
        smoke ? std::vector<double>{0.25, 0.5}
              : std::vector<double>{0.5, 1.0, 2.0};
    for (DatasetKind kind : {DatasetKind::kDblpAcm, DatasetKind::kFacultyMatch,
                             DatasetKind::kNoFlyCompas}) {
      for (double scale : scales) {
        spec.inputs.push_back({kind, scale, scale == scales.front()});
      }
    }
    spec.modes = {false};
    spec.skip = NeuralMatcherKinds();
  }
  return spec;
}

/// The serve workload's cells: Cricket's pairwise grid and DBLP-Scholar's
/// single grid are the misses. DBLP-ACM, and DBLP-Scholar's pairwise grid,
/// stay out: their neural misses would stretch one measured phase well past
/// 15 s. A small fleet (smoke runs, and the probe fleet of a batch
/// workload's traced run) serves Cricket alone.
ServeSpec ServeSpecFor(bool small, bool smoke) {
  ServeSpec spec;
  spec.min_phase_s = smoke ? 1.0 : 5.5;
  if (!small) spec.miss_grids.push_back({DatasetKind::kDblpScholar, false});
  spec.miss_grids.push_back({DatasetKind::kCricket, true});
  return spec;
}

std::string ScaleLabel(double scale) {
  std::ostringstream os;
  os << "x" << scale;
  return os.str();
}

std::string InputLabel(const GridInput& input) {
  return std::string(DatasetKindName(input.kind)) + "." +
         ScaleLabel(input.scale) +
         (input.draw > 0 ? ".draw" + std::to_string(input.draw) : "");
}

Result<EMDataset> GenerateInput(const GridInput& input, uint64_t seed) {
  const uint64_t shift = static_cast<uint64_t>(input.draw) * kDrawStride;
  return GenerateDataset(input.kind, input.scale, seed + shift);
}

std::string ReportKey(const GridInput& input, bool pairwise) {
  return InputLabel(input) + (pairwise ? ".pairwise" : ".single");
}

size_t CellsPerReport(const BatchSpec& spec) {
  return AllMatcherKinds().size() - spec.skip.size();
}

std::vector<CellQuery> CellsOf(DatasetKind kind, bool pairwise) {
  std::vector<CellQuery> out;
  for (MatcherKind m : AllMatcherKinds()) {
    CellQuery q;
    q.dataset = DatasetKindName(kind);
    q.matcher = MatcherKindName(m);
    q.pairwise = pairwise;
    q.key = AuditCellKey(q.dataset, m, pairwise);
    out.push_back(std::move(q));
  }
  return out;
}

MatcherKind MatcherByName(const std::string& name) {
  for (MatcherKind m : AllMatcherKinds()) {
    if (name == MatcherKindName(m)) return m;
  }
  return MatcherKind::kDT;
}

// ------------------------------------------------------------ helpers --

double ProcessCpuS() {
  rusage self, children;
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  auto secs = [](const rusage& r) {
    return static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) +
           static_cast<double>(r.ru_utime.tv_usec + r.ru_stime.tv_usec) / 1e6;
  };
  return secs(self) + secs(children);
}

/// A metric of this process's registry by its flattened name (counters by
/// name, histograms as "<name>.count" / "<name>.sum"); 0 when unregistered.
/// Read through a snapshot so the benchmark never registers a product
/// metric itself.
double RegistryValue(const std::string& flat_name) {
  const std::map<std::string, double> flat =
      FlattenSnapshot(MetricsRegistry::Global().Snapshot());
  auto it = flat.find(flat_name);
  return it == flat.end() ? 0.0 : it->second;
}

std::string FormatCount(double n) {
  return std::to_string(static_cast<uint64_t>(n));
}

void Problem(RunOutcome* out, const std::string& what) {
  out->problems.push_back(what);
}

/// Reports in order, as (key, rendered text).
using Reports = std::vector<std::pair<std::string, std::string>>;

/// Compares `reports` with the twin run `reference`; every differing report
/// is one failure.
void CompareReports(const Reports& reference, const Reports& reports,
                    const std::string& what, RunOutcome* out) {
  for (size_t i = 0; i < reports.size(); ++i) {
    if (i >= reference.size() || reports[i] != reference[i]) {
      ++out->failed;
      Problem(out, what + " report " + reports[i].first +
                       " differs from its twin run");
    }
  }
}

std::string GoldenText(const Reports& blocks) {
  std::string text;
  for (const auto& [key, body] : blocks) {
    text += "### " + key + "\n" + body;
    if (body.empty() || body.back() != '\n') text += "\n";
  }
  return text;
}

/// Seed-0 outputs are compared byte for byte with benchmark/golden; any
/// other seed has no golden (its data differ) and relies on the twin-run
/// checks.
void CheckGolden(const RunConfig& config, const Reports& blocks,
                 RunOutcome* out) {
  if (config.seed != 0 || config.smoke) return;
  const std::string path =
      config.golden_dir + "/" + config.workload + ".txt";
  const std::string text = GoldenText(blocks);
  if (config.write_golden) {
    std::ofstream(path, std::ios::binary) << text;
    out->notes.push_back("golden written: " + path);
    return;
  }
  Result<std::string> golden = ReadFileToString(path);
  if (!golden.ok()) {
    ++out->failed;
    Problem(out, "golden missing: " + path);
    return;
  }
  if (*golden == text) return;
  size_t differing = 0;
  for (const auto& [key, body] : blocks) {
    if (golden->find("### " + key + "\n" + body) == std::string::npos) {
      ++differing;
      Problem(out, "output " + key + " differs from the seed-0 golden");
    }
  }
  if (differing == 0) {
    differing = 1;
    Problem(out, "golden file " + path + " differs in layout");
  }
  out->failed += differing;
}

void SetMetric(RunOutcome* out, const std::string& name, double value) {
  out->metrics[name] = value;
}

// ------------------------------------------------- batch: product path --

/// The datasets of one pass: set-up inputs are borrowed, pass-generated
/// ones owned here.
struct PassData {
  std::vector<std::unique_ptr<EMDataset>> owned;
  std::vector<const EMDataset*> by_input;
};

Result<std::vector<std::unique_ptr<EMDataset>>> GenerateSetupInputs(
    const BatchSpec& spec, uint64_t seed) {
  std::vector<std::unique_ptr<EMDataset>> data(spec.inputs.size());
  for (size_t i = 0; i < spec.inputs.size(); ++i) {
    if (!spec.inputs[i].in_setup) continue;
    FAIREM_ASSIGN_OR_RETURN(EMDataset ds, GenerateInput(spec.inputs[i], seed));
    data[i] = std::make_unique<EMDataset>(std::move(ds));
  }
  return data;
}

GridRunOptions GridOptions(const BatchSpec& spec, const std::string& ckpt,
                           int jobs) {
  GridRunOptions options;
  // The paper's grids audit each group against everyone else, as
  // `fairem grid` and the figure benches do.
  options.audit.reference = AuditReference::kComplement;
  options.skip = spec.skip;
  options.checkpoint_dir = ckpt;
  options.jobs = jobs;
  options.seed = kMatcherSeed;
  return options;
}

std::string InputCheckpointDir(const std::string& root, size_t input) {
  return root + "/in" + std::to_string(input);
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

struct ColdPass {
  Reports reports;
  std::vector<double> answer_s;  // per report; a pass-generated input's
                                 // datagen counts toward its first report
  std::vector<double> answer_cpu_s;  // the same, in process-tree CPU time
  double wall_s = 0.0;               // the sum of answer_s
  double error_cells = 0;
  PassData data;
};

/// One cold pass through the product entry points: every grid report of
/// the workload into a fresh checkpoint root. `after_report`, when set, runs
/// after each report, outside its timing.
Result<ColdPass> RunColdPass(
    const BatchSpec& spec,
    const std::vector<std::unique_ptr<EMDataset>>& setup, uint64_t seed,
    const std::string& ckpt_root, int jobs,
    const std::function<Status()>& after_report = nullptr) {
  ColdPass pass;
  const double errors0 = RegistryValue("fairem.robust.grid_error_cells");
  for (size_t i = 0; i < spec.inputs.size(); ++i) {
    const GridInput& input = spec.inputs[i];
    double r0 = NowS();
    double c0 = ProcessCpuS();
    const EMDataset* ds = setup[i].get();
    if (!input.in_setup) {
      FAIREM_ASSIGN_OR_RETURN(EMDataset generated,
                              GenerateInput(input, seed));
      pass.data.owned.push_back(
          std::make_unique<EMDataset>(std::move(generated)));
      ds = pass.data.owned.back().get();
    }
    pass.data.by_input.push_back(ds);
    for (bool pairwise : spec.modes) {
      FAIREM_ASSIGN_OR_RETURN(
          std::string report,
          UnfairnessGridReport(
              *ds, pairwise,
              GridOptions(spec, InputCheckpointDir(ckpt_root, i), jobs)));
      pass.answer_s.push_back(NowS() - r0);
      pass.answer_cpu_s.push_back(ProcessCpuS() - c0);
      pass.reports.emplace_back(ReportKey(input, pairwise),
                                std::move(report));
      if (after_report) FAIREM_RETURN_NOT_OK(after_report());
      r0 = NowS();
      c0 = ProcessCpuS();
    }
  }
  pass.wall_s = Sum(pass.answer_s);
  pass.error_cells = RegistryValue("fairem.robust.grid_error_cells") - errors0;
  return pass;
}

/// Keeps the element-wise minimum of `samples` in `best` (same order).
void KeepFastest(const std::vector<double>& samples,
                 std::vector<double>* best) {
  if (best->empty()) {
    *best = samples;
    return;
  }
  for (size_t i = 0; i < samples.size() && i < best->size(); ++i) {
    (*best)[i] = std::min((*best)[i], samples[i]);
  }
}

/// One warm round: every report replayed from the cold pass's checkpoints;
/// `answer_s` gets each report's replay time.
Result<Reports> RunWarmRound(const BatchSpec& spec, const PassData& data,
                             const std::string& ckpt_root,
                             std::vector<double>* answer_s) {
  Reports reports;
  answer_s->clear();
  for (size_t i = 0; i < spec.inputs.size(); ++i) {
    for (bool pairwise : spec.modes) {
      const double t0 = NowS();
      FAIREM_ASSIGN_OR_RETURN(
          std::string report,
          UnfairnessGridReport(
              *data.by_input[i], pairwise,
              GridOptions(spec, InputCheckpointDir(ckpt_root, i), 1)));
      answer_s->push_back(NowS() - t0);
      reports.emplace_back(ReportKey(spec.inputs[i], pairwise),
                           std::move(report));
    }
  }
  return reports;
}

std::string Join(const std::vector<double>& values) {
  std::string text;
  for (double v : values) text += " " + std::to_string(v);
  return text;
}

/// One window of warm rounds over a finished pass's checkpoints, each round
/// replaying every report and checked against `reference`. Each report's
/// fastest replay is kept in `best`; returns the window's p50 round time.
Result<double> RunWarmWindow(const BatchSpec& spec, const ColdPass& pass,
                             const std::string& ckpt_root,
                             const Reports& reference,
                             std::vector<double>* best, RunOutcome* out) {
  std::vector<double> round, window;
  for (int r = 0; r < kWarmWindow; ++r) {
    FAIREM_ASSIGN_OR_RETURN(Reports warm,
                            RunWarmRound(spec, pass.data, ckpt_root, &round));
    KeepFastest(round, best);
    window.push_back(Sum(round));
    out->attempted += warm.size() * CellsPerReport(spec);
    CompareReports(reference, warm, "warm replay", out);
  }
  return Median(window);
}

// Batch timings are best-of-N within a run. On a shared host, interference
// from other tenants only ever slows work down, and it comes in bursts that
// can cover a whole pass; a process can also run a third slower than
// another for seconds at a time. So every report keeps its fastest cold
// time (and CPU time) over the run's passes and its fastest replay over the
// run's warm rounds; wall_s, cpu_s and warm_wall_s are sums over the
// workload's reports of those. hit_p50_ms times whole replays: a warm round
// replays every report (a percentile over single replays would land on the
// boundary between two reports' sizes), rounds come in windows of
// kWarmWindow, and hit_p50_ms is the lowest window p50 of the run, as on
// the serve workload. So that the windows sample the whole run, they follow
// each report of a cold pass, replaying the previous pass. Raw pass times
// are printed as notes.
void RunBatch(const RunConfig& config, RunOutcome* out) {
  const BatchSpec spec = BatchSpecFor(config.workload, config.smoke);
  std::vector<double> setup_s;
  std::vector<std::unique_ptr<EMDataset>> setup;
  for (int k = 0; k < (config.smoke ? 1 : kBatchSetupRepeats); ++k) {
    const double t0 = NowS();
    Result<std::vector<std::unique_ptr<EMDataset>>> data =
        GenerateSetupInputs(spec, config.seed);
    setup_s.push_back(NowS() - t0);
    if (!data.ok()) {
      Problem(out, "set-up failed: " + data.status().ToString());
      return;
    }
    setup = std::move(*data);
  }

  const size_t cells = CellsPerReport(spec);
  const size_t min_windows = config.smoke ? 1 : kMinWarmWindows;
  std::vector<double> wall, best_cold, best_cold_cpu, best_warm, window_p50;
  Reports reference;
  // The last finished pass, replayed while the next one runs.
  std::unique_ptr<ColdPass> previous;
  std::string previous_root;
  auto warm_window = [&]() -> Status {
    for (int w = 0; previous != nullptr && w < kWarmWindowsPerReport; ++w) {
      FAIREM_ASSIGN_OR_RETURN(double p50,
                              RunWarmWindow(spec, *previous, previous_root,
                                            reference, &best_warm, out));
      window_p50.push_back(p50);
    }
    return Status::OK();
  };
  const double measure0 = NowS();
  for (int p = 0;; ++p) {
    const std::string root = "ckpt" + std::to_string(p);
    Result<ColdPass> pass =
        RunColdPass(spec, setup, config.seed, root, spec.jobs, warm_window);
    if (!pass.ok()) {
      Problem(out, "cold pass failed: " + pass.status().ToString());
      return;
    }
    wall.push_back(pass->wall_s);
    KeepFastest(pass->answer_s, &best_cold);
    KeepFastest(pass->answer_cpu_s, &best_cold_cpu);
    out->attempted += pass->reports.size() * cells;
    if (pass->error_cells > 0) {
      out->failed += static_cast<uint64_t>(pass->error_cells);
      Problem(out, FormatCount(pass->error_cells) + " error cell(s)");
    }
    if (reference.empty()) {
      reference = pass->reports;
    } else {
      CompareReports(reference, pass->reports, "cold pass", out);
    }
    if (previous != nullptr) fs::remove_all(previous_root);
    previous = std::make_unique<ColdPass>(std::move(*pass));
    previous_root = root;
    const bool last = p + 1 >= (config.smoke ? 1 : kMinColdPasses) &&
                      NowS() - measure0 >= config.seconds * 0.9;
    // The first pass had nothing to replay while it ran.
    while (window_p50.empty() || (last && window_p50.size() < min_windows)) {
      if (Status st = warm_window(); !st.ok()) {
        Problem(out, "warm round failed: " + st.ToString());
        return;
      }
    }
    if (last) break;
  }
  fs::remove_all(previous_root);
  CheckGolden(config, reference, out);

  SetMetric(out, "setup_s", Median(setup_s));
  SetMetric(out, "wall_s", Sum(best_cold));
  SetMetric(out, "warm_wall_s", Sum(best_warm));
  SetMetric(out, "cpu_s", Sum(best_cold_cpu));
  SetMetric(out, "hit_p50_ms", Percentile(window_p50, 0) * 1e3);
  out->notes.push_back(
      "samples: " + std::to_string(setup_s.size()) + " set-ups, " +
      std::to_string(wall.size()) + " cold passes, " +
      std::to_string(window_p50.size()) + " windows of " +
      std::to_string(kWarmWindow) + " warm rounds of " +
      std::to_string(reference.size()) + " reports");
  out->notes.push_back("cold pass wall (s):" + Join(wall) + "; median " +
                       std::to_string(Median(wall)));
  out->notes.push_back("warm window p50 (ms), median over windows " +
                       std::to_string(Median(window_p50) * 1e3));
}

// --------------------------------------------------- serve: product path --

std::vector<std::string> DatasetNames(const std::vector<DatasetKind>& kinds) {
  std::vector<std::string> names;
  for (DatasetKind k : kinds) names.push_back(DatasetKindName(k));
  return names;
}

struct ServeCells {
  Mix mix;
  std::vector<CellQuery> all;  // hot first, then the misses
};

ServeCells ServeCellsFor(const ServeSpec& spec) {
  ServeCells cells;
  cells.mix.hot = CellsOf(DatasetKind::kCricket, false);
  for (const ServedGrid& g : spec.miss_grids) {
    for (CellQuery& q : CellsOf(g.kind, g.pairwise)) {
      cells.mix.misses.push_back(std::move(q));
    }
  }
  cells.all = cells.mix.hot;
  cells.all.insert(cells.all.end(), cells.mix.misses.begin(),
                   cells.mix.misses.end());
  cells.mix.min_phase_s = spec.min_phase_s;
  return cells;
}

FleetOptions FleetFor(const ServeSpec& spec, uint64_t seed) {
  FleetOptions options;
  options.datasets = DatasetNames(spec.Datasets());
  options.scale = kServeScale;
  options.seed = seed;
  return options;
}

/// Starts a fleet and prewarms the hot set through `target`; the whole is
/// the serve workload's set-up.
Result<std::unique_ptr<Fleet>> SetUpFleet(const ServeSpec& spec,
                                          const ServeCells& cells,
                                          uint64_t seed, Target target,
                                          PayloadBook* book, RunOutcome* out) {
  Span span("serve.setup");
  FAIREM_ASSIGN_OR_RETURN(std::unique_ptr<Fleet> fleet,
                          Fleet::Start(FleetFor(spec, seed),
                                       kFleetReadyTimeoutS));
  size_t failed = 0;
  AskEach(*fleet, target, cells.mix.hot, book, &failed);
  out->attempted += cells.mix.hot.size();
  out->failed += failed;
  if (failed > 0) return Status::Internal("prewarm queries failed");
  return fleet;
}

void AccountPhase(const PhaseResult& phase, RunOutcome* out) {
  out->attempted += phase.sent;
  out->failed += phase.failed;
  if (phase.failed > 0) {
    Problem(out, std::to_string(phase.failed) + " failed request(s)");
  }
}

void CheckServeGolden(const RunConfig& config, const PayloadBook& book,
                      const ServeCells& cells, RunOutcome* out) {
  Reports digests;
  for (const CellQuery& q : cells.all) {
    auto it = book.payloads().find(q.key);
    digests.emplace_back(
        q.key, (it == book.payloads().end() ? std::string("missing")
                                            : Fnv1aHex(it->second)) +
                   "\n");
  }
  CheckGolden(config, digests, out);
}

/// Serve timings follow the batch rule where a workload answers a fixed set
/// of cells: each miss keeps its fastest computation over the run's cycles
/// and each cell its fastest warm fetch. The hit stream follows it too: its
/// hits are cut into windows of kHitWindow in due order, a window whose
/// generator ran late is dropped (it measured the host), and hit_p50_ms is
/// the lowest window p50 of the run. Host interference comes in bursts of
/// seconds and only ever slows hits down. The hit tail is printed as a note
/// and is no end-to-end metric: while other tenants steal CPU it moves by
/// several times between runs.
void RunServe(const RunConfig& config, RunOutcome* out) {
  const ServeSpec spec = ServeSpecFor(config.smoke, config.smoke);
  const ServeCells cells = ServeCellsFor(spec);
  PayloadBook book;  // spans every cycle: recomputed cells must agree
  std::vector<double> setup_s, cpu, best_warm;
  std::vector<std::vector<HitSample>> phases;
  std::map<std::string, double> best_miss_ms;
  // One timed set-up; null (and a problem) when the fleet never got ready.
  auto set_up = [&](double* seconds) -> std::unique_ptr<Fleet> {
    const double t0 = NowS();
    Result<std::unique_ptr<Fleet>> fleet =
        SetUpFleet(spec, cells, config.seed, Target::kRouted, &book, out);
    *seconds = NowS() - t0;
    if (fleet.ok()) return std::move(*fleet);
    Problem(out, "fleet set-up failed: " + fleet.status().ToString());
    return nullptr;
  };
  auto tear_down = [&](Fleet* fleet) {
    if (Status st = fleet->Stop(); !st.ok()) {
      Problem(out, "fleet teardown: " + st.ToString());
    }
  };
  const double measure0 = NowS();
  for (int c = 0;; ++c) {
    double cycle_setup_s = 0.0;
    std::unique_ptr<Fleet> fleet = set_up(&cycle_setup_s);
    if (fleet == nullptr) return;
    setup_s.push_back(cycle_setup_s);
    const PhaseResult phase =
        RunMixedPhase(*fleet, Target::kRouted, cells.mix,
                      config.seed * 1000003 + static_cast<uint64_t>(c), &book);
    AccountPhase(phase, out);
    cpu.push_back(phase.cpu_s);
    phases.push_back(phase.hits);
    for (const auto& [key, ms] : phase.miss_ms_by_key) {
      auto [it, inserted] = best_miss_ms.emplace(key, ms);
      if (!inserted) it->second = std::min(it->second, ms);
    }
    // Every cell is warm now: fetch them all, one client, several rounds.
    for (int r = 0; r < (config.smoke ? 2 : kServeWarmRounds); ++r) {
      size_t failed = 0;
      KeepFastest(AskEach(*fleet, Target::kRouted, cells.all, &book, &failed),
                  &best_warm);
      out->attempted += cells.all.size();
      out->failed += failed;
    }
    tear_down(fleet.get());
    if (NowS() - measure0 >= config.seconds) break;
  }
  // Set-up is timed several times even when one measured cycle fills the
  // window: extra fleets are started, prewarmed and stopped.
  while (!config.smoke &&
         setup_s.size() < static_cast<size_t>(kSetupRepeats)) {
    double seconds = 0.0;
    std::unique_ptr<Fleet> fleet = set_up(&seconds);
    if (fleet == nullptr) return;
    setup_s.push_back(seconds);
    tear_down(fleet.get());
  }
  out->failed += book.problems.size();
  for (const std::string& p : book.problems) Problem(out, p);
  CheckServeGolden(config, book, cells, out);

  std::vector<HitSample> hits;
  for (const auto& phase : phases) {
    hits.insert(hits.end(), phase.begin(), phase.end());
  }
  auto windows = [&](double p, double late_limit_ms) {
    std::vector<double> values;
    for (const auto& phase : phases) {
      for (double v : OnTimeWindowPercentiles(phase, p, late_limit_ms)) {
        values.push_back(v);
      }
    }
    return values;
  };
  // Windows with an on-time generator; when host interference left none,
  // every window, with a note.
  std::vector<double> window_p50 = windows(0.5, kGenLateLimitMs);
  if (!config.smoke && window_p50.empty()) {
    window_p50 = windows(0.5, HUGE_VAL);
    out->notes.push_back(
        "no window of hits had an on-time generator: hit_p50_ms includes "
        "its lateness");
  }
  const std::vector<double> latency = Latencies(hits);
  if (window_p50.empty()) {  // a smoke run: fewer hits than a window
    window_p50 = {Percentile(latency, 0.5)};
  }
  std::vector<double> best_miss, late;
  for (const auto& [key, ms] : best_miss_ms) best_miss.push_back(ms);
  for (const HitSample& h : hits) late.push_back(h.late_ms);
  SetMetric(out, "setup_s", Median(setup_s));
  SetMetric(out, "wall_s", Sum(best_miss) / 1e3);
  SetMetric(out, "warm_wall_s", Sum(best_warm) / 1e3);
  SetMetric(out, "cpu_s", Percentile(cpu, 0));
  SetMetric(out, "hit_p50_ms", Percentile(window_p50, 0));
  out->notes.push_back(
      "samples: " + std::to_string(cpu.size()) + " cycles, " +
      std::to_string(setup_s.size()) + " set-ups, " +
      std::to_string(hits.size()) + " hits, " +
      std::to_string(window_p50.size()) + " windows of " +
      std::to_string(kHitWindow) + ", " + std::to_string(best_miss.size()) +
      " distinct misses");
  out->notes.push_back(
      "over every hit: p50/p90/p95 (ms) " +
      std::to_string(Percentile(latency, 0.5)) + " " +
      std::to_string(Percentile(latency, 0.9)) + " " +
      std::to_string(Percentile(latency, 0.95)) +
      ", generator lateness p99 (ms) " +
      std::to_string(Percentile(late, 0.99)) +
      "; fastest-miss p50/p80 (ms) " +
      std::to_string(Percentile(best_miss, 0.5)) + " " +
      std::to_string(Percentile(best_miss, 0.8)));
}

// ---------------------------------------------------- traced run: spans --
//
// The traced run records on the product's global tracer: the spans the
// product emits itself (fairem.datagen.generate, fairem.feature.*,
// fairem.matcher.fit/predict, fairem.audit.*,
// fairem.harness.unfairness_grid) and the benchmark's own around the calls
// it makes into a layer directly. Forked fleet processes trace nothing.

/// The spans recorded since construction.
class SpanWindow {
 public:
  SpanWindow() : start_(Tracer::Global().EventCount()) {}
  std::vector<TraceEvent> Events() const {
    return Tracer::Global().EventsSince(start_);
  }

 private:
  size_t start_;
};

/// Turns the tracer off for an untraced reference timing.
class TracerPaused {
 public:
  TracerPaused() { Tracer::Global().set_enabled(false); }
  ~TracerPaused() { Tracer::Global().set_enabled(true); }
};

void Append(std::vector<TraceEvent> more, std::vector<TraceEvent>* events) {
  events->insert(events->end(), std::make_move_iterator(more.begin()),
                 std::make_move_iterator(more.end()));
}

/// Total seconds of the spans named `name` among `events`; with `arg` set,
/// only of those carrying the argument `arg` = `value`.
double SpanSeconds(const std::vector<TraceEvent>& events,
                   const std::string& name, const std::string& arg = "",
                   const std::string& value = "") {
  const std::pair<std::string, std::string> wanted(arg, value);
  double total = 0.0;
  for (const TraceEvent& e : events) {
    if (e.name != name) continue;
    if (!arg.empty() &&
        std::find(e.args.begin(), e.args.end(), wanted) == e.args.end()) {
      continue;
    }
    total += static_cast<double>(e.duration_ns) / 1e9;
  }
  return total;
}

/// The layer times read off `events`: the traced grid work (product spans)
/// and the replay probe's spans.
void SetSpanMetrics(const std::vector<TraceEvent>& events, RunOutcome* out) {
  SetMetric(out, "datagen.generate_s",
            SpanSeconds(events, "fairem.datagen.generate"));
  for (MatcherKind kind : AllMatcherKinds()) {
    const std::string name = MatcherKindName(kind);
    SetMetric(out, "matcher.fit_s." + name,
              SpanSeconds(events, "fairem.matcher.fit", "matcher", name));
    SetMetric(out, "matcher.predict_s." + name,
              SpanSeconds(events, "fairem.matcher.predict", "matcher", name));
  }
  SetMetric(out, "core.audit_single_s",
            SpanSeconds(events, "fairem.audit.single"));
  SetMetric(out, "core.audit_pairwise_s",
            SpanSeconds(events, "fairem.audit.pairwise"));
  SetMetric(out, "report.render_s", SpanSeconds(events, "report.render"));
  SetMetric(out, "robust.checkpoint_save_s",
            SpanSeconds(events, "robust.checkpoint_save"));
  SetMetric(out, "robust.checkpoint_load_s",
            SpanSeconds(events, "robust.checkpoint_load"));
}

double Records(const EMDataset& ds) {
  return static_cast<double>(ds.table_a.num_rows() + ds.table_b.num_rows());
}

// ------------------------------------------------- traced run: probes --

bool IsSkipped(const GridRunOptions& options, MatcherKind kind) {
  return std::find(options.skip.begin(), options.skip.end(), kind) !=
         options.skip.end();
}

/// Applies a checkpointed cell to `grid` as UnfairnessGridReport does; the
/// replay probe's render must match the product's, which pins this.
Status ApplyCell(const GridCellCheckpoint& cell, UnfairnessGrid* grid) {
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

/// The replay path's layers by direct call, on one report whose cells
/// `options.checkpoint_dir` holds: each cell loaded and parsed, saved again
/// into a fresh store, then all applied to a grid and rendered, each step
/// in a span. The rendered grid must equal the product's `report`.
Status ProbeReplay(const EMDataset& ds, bool pairwise,
                   const GridRunOptions& options, const std::string& report,
                   double* checkpoint_bytes, RunOutcome* out) {
  const CheckpointStore cold(options.checkpoint_dir);
  const CheckpointStore fresh(options.checkpoint_dir + "-resaved");
  std::vector<GridCellCheckpoint> cells;
  for (MatcherKind kind : AllMatcherKinds()) {
    if (IsSkipped(options, kind)) continue;
    const std::string key = AuditCellKey(ds.name, kind, pairwise);
    std::string payload;
    {
      Span span("robust.checkpoint_load");
      span.AddArg("cell", key);
      FAIREM_ASSIGN_OR_RETURN(payload, cold.Load(key));
      FAIREM_ASSIGN_OR_RETURN(GridCellCheckpoint cell,
                              GridCellFromJson(payload));
      cells.push_back(std::move(cell));
    }
    {
      Span span("robust.checkpoint_save");
      span.AddArg("cell", key);
      FAIREM_RETURN_NOT_OK(fresh.Save(key, payload));
    }
    *checkpoint_bytes += static_cast<double>(payload.size());
  }
  const std::string report_key = ds.name + (pairwise ? ".pairwise" : ".single");
  std::string rendered;
  {
    Span span("report.render");
    span.AddArg("report", report_key);
    UnfairnessGrid grid;
    for (const GridCellCheckpoint& cell : cells) {
      FAIREM_RETURN_NOT_OK(ApplyCell(cell, &grid));
    }
    rendered = grid.Render();
  }
  ++out->attempted;
  if (rendered != report) {
    ++out->failed;
    Problem(out, "re-rendered " + report_key +
                     " grid differs from the product's report");
  }
  return Status::OK();
}

/// Feature, text, ml, embed and core probes on one dataset, each layer's
/// public functions called directly on prebuilt inputs. The feature and
/// core times come from the product's spans, the rest from the benchmark's.
/// The probe's spans are appended to `events`.
Status ProbeLayers(const EMDataset& ds, std::vector<TraceEvent>* events,
                   RunOutcome* out) {
  const SpanWindow window;
  std::vector<FeatureDef> defs;
  FAIREM_ASSIGN_OR_RETURN(
      defs, GenerateFeatures(ds.table_a, ds.table_b, ds.matching_attrs));
  FlushSimdTelemetry();
  const double values0 = RegistryValue("fairem.feature.values_computed");
  const double kernels0 = RegistryValue("fairem.simd.kernel_calls");
  FAIREM_ASSIGN_OR_RETURN(
      FeatureTable train,
      BuildFeatureTable(defs, ds.table_a, ds.table_b, ds.train));
  FAIREM_ASSIGN_OR_RETURN(
      FeatureTable test,
      BuildFeatureTable(defs, ds.table_a, ds.table_b, ds.test));
  FlushSimdTelemetry();
  SetMetric(out, "feature.values",
            RegistryValue("fairem.feature.values_computed") - values0);
  SetMetric(out, "text.kernel_calls",
            RegistryValue("fairem.simd.kernel_calls") - kernels0);
  // The text layer alone: every feature's similarity measure over the test
  // pairs' raw values, as ExtractFeatures scores one pair.
  double similarity_sum = 0.0;
  for (const FeatureDef& def : defs) {
    std::vector<std::pair<std::string, std::string>> values;
    for (const LabeledPair& p : ds.test) {
      Result<std::string> va = ds.table_a.ValueByName(p.left, def.attr);
      Result<std::string> vb = ds.table_b.ValueByName(p.right, def.attr);
      if (va.ok() && vb.ok()) values.emplace_back(*va, *vb);
    }
    Span span("text.similarity");
    span.AddArg("feature", def.name());
    for (const auto& [va, vb] : values) {
      similarity_sum += ComputeSimilarity(def.measure, va, vb);
    }
  }
  if (!std::isfinite(similarity_sum)) {
    return Status::Internal("non-finite similarity");
  }

  struct Probe {
    const char* name;
    std::unique_ptr<Classifier> classifier;
  };
  std::vector<Probe> probes;
  probes.push_back({"DT", std::make_unique<DecisionTree>()});
  probes.push_back({"SVM", std::make_unique<Svm>()});
  probes.push_back({"RF", std::make_unique<RandomForest>()});
  probes.push_back({"LogReg", std::make_unique<LogisticRegression>()});
  probes.push_back({"LinReg", std::make_unique<LinearRegression>()});
  probes.push_back({"NB", std::make_unique<GaussianNaiveBayes>()});
  std::vector<double> dt_scores;
  for (Probe& probe : probes) {
    Rng rng(kMatcherSeed);
    {
      Span span("ml.fit");
      span.AddArg("classifier", probe.name);
      FAIREM_RETURN_NOT_OK(
          probe.classifier->Fit(train.rows, train.labels, &rng));
    }
    std::vector<double> scores;
    {
      Span span("ml.predict");
      span.AddArg("classifier", probe.name);
      scores = probe.classifier->PredictScores(test.rows);
    }
    if (dt_scores.empty()) dt_scores = std::move(scores);
  }

  // The audit core on the DT probe's outcomes, once per mode, so both
  // modes are timed on every workload.
  FAIREM_ASSIGN_OR_RETURN(FairnessAuditor auditor, MakeAuditor(ds));
  FAIREM_ASSIGN_OR_RETURN(
      std::vector<PairOutcome> outcomes,
      MakeOutcomes(ds.test, dt_scores, ds.default_threshold));
  FAIREM_RETURN_NOT_OK(auditor.AuditSingle(outcomes, {}).status());
  FAIREM_RETURN_NOT_OK(auditor.AuditPairwise(outcomes, {}).status());

  // Every record serialized and every token embedded once, as the neural
  // matchers' encoders do per pair.
  SubwordEmbedding embedding;
  std::vector<std::string> tokens;
  float checksum = 0.0f;
  {
    Span span("embed.encode");
    span.AddArg("dataset", ds.name);
    for (const Table* table : {&ds.table_a, &ds.table_b}) {
      for (size_t r = 0; r < table->num_rows(); ++r) {
        FAIREM_ASSIGN_OR_RETURN(
            std::vector<std::string> record,
            SerializeRecord(*table, r, ds.matching_attrs));
        for (std::string& token : record) {
          checksum += embedding.Embed(token)[0];
          tokens.push_back(std::move(token));
        }
      }
    }
  }
  if (!std::isfinite(checksum)) return Status::Internal("embedding overflow");
  const std::set<std::string> distinct(tokens.begin(), tokens.end());
  SetMetric(out, "embed.tokens", static_cast<double>(tokens.size()));
  SetMetric(out, "embed.distinct_tokens", static_cast<double>(distinct.size()));

  const std::vector<TraceEvent> probe = window.Events();
  SetMetric(out, "feature.generate_s",
            SpanSeconds(probe, "fairem.feature.generate_defs"));
  SetMetric(out, "feature.build_s",
            SpanSeconds(probe, "fairem.feature.build_table"));
  SetMetric(out, "text.similarity_s", SpanSeconds(probe, "text.similarity"));
  for (const Probe& p : probes) {
    SetMetric(out, std::string("ml.fit_s.") + p.name,
              SpanSeconds(probe, "ml.fit", "classifier", p.name));
    SetMetric(out, std::string("ml.predict_s.") + p.name,
              SpanSeconds(probe, "ml.predict", "classifier", p.name));
  }
  SetMetric(out, "embed.encode_s", SpanSeconds(probe, "embed.encode"));
  Append(probe, events);
  return Status::OK();
}

/// log2 of the ×2 generation time over the ×1 time, per scale-sweep
/// dataset: 1 is linear, 2 quadratic.
Status ProbeDatagenGrowth(uint64_t seed, bool smoke, RunOutcome* out) {
  for (DatasetKind kind : {DatasetKind::kDblpAcm, DatasetKind::kFacultyMatch,
                           DatasetKind::kNoFlyCompas}) {
    const double base = smoke ? 0.25 : 1.0;
    double t[2] = {0.0, 0.0};
    for (int i = 0; i < 2; ++i) {
      Span span("datagen.probe", &t[i]);
      span.AddArg("input", std::string(DatasetKindName(kind)) + "." +
                               ScaleLabel(base * (i + 1)));
      FAIREM_RETURN_NOT_OK(
          GenerateDataset(kind, base * (i + 1), seed).status());
    }
    SetMetric(out, std::string("datagen.growth_exp.") + DatasetKindName(kind),
              std::log2(t[1] / t[0]));
  }
  return Status::OK();
}

/// The supervisor's fork-per-cell cost: one report under the supervisor
/// (jobs 2), its task wall time summed, minus the same report's in-process
/// time `inprocess_s`. The supervised report must equal the in-process one.
Status ProbeHarness(const EMDataset& ds, bool pairwise, GridRunOptions options,
                    const std::string& report, double inprocess_s,
                    RunOutcome* out) {
  options.checkpoint_dir = "ckpt-supervised";
  options.jobs = 2;
  const double wall0 = RegistryValue("fairem.supervisor.task_wall_seconds.sum");
  std::string supervised;
  {
    Span span("harness.supervised_grid");
    span.AddArg("dataset", ds.name);
    FAIREM_ASSIGN_OR_RETURN(supervised,
                            UnfairnessGridReport(ds, pairwise, options));
  }
  ++out->attempted;
  if (supervised != report) {
    ++out->failed;
    Problem(out, "supervised report differs from the in-process one");
  }
  SetMetric(out, "harness.fork_overhead_s",
            RegistryValue("fairem.supervisor.task_wall_seconds.sum") - wall0 -
                inprocess_s);
  return Status::OK();
}

/// How much of the grid's work the product path did, counted by the
/// product's own metrics: feature tables built, matcher runs, audit cells.
class GridWork {
 public:
  GridWork() : start_(Read()) {}
  /// Per-layer metric name -> work done since construction.
  std::map<std::string, double> Deltas() const {
    std::map<std::string, double> now = Read();
    for (auto& [name, v] : now) v -= start_.at(name);
    return now;
  }

 private:
  static std::map<std::string, double> Read() {
    return {{"feature.builds_in_grid",
             RegistryValue("fairem.feature.build_table_seconds.count")},
            {"matcher.runs", RegistryValue("fairem.harness.matcher_runs")},
            {"core.cells", RegistryValue("fairem.audit.cells_evaluated")}};
  }
  std::map<std::string, double> start_;
};

// ------------------------------------------------ traced run: serve layers --

/// A fleet's counters summed over its daemons (or its router), as a delta
/// between two `stats` snapshots.
struct FleetCounters {
  std::map<std::string, double> flat;
  MetricsSnapshot::HistogramData request_seconds;
};

Result<FleetCounters> SnapshotFleet(const Fleet& fleet) {
  FleetCounters c;
  MetricsRegistry merged;
  for (const std::string& socket : fleet.backend_sockets()) {
    FAIREM_ASSIGN_OR_RETURN(MetricsSnapshot snap, FetchStats(socket));
    merged.Merge(snap);
  }
  FAIREM_ASSIGN_OR_RETURN(MetricsSnapshot router,
                          FetchStats(fleet.router_socket()));
  merged.Merge(router);
  const MetricsSnapshot snap = merged.Snapshot();
  for (const auto& [name, v] : snap.counters) {
    c.flat[name] = static_cast<double>(v);
  }
  auto it = snap.histograms.find("fairem.serve.request_seconds");
  if (it != snap.histograms.end()) c.request_seconds = it->second;
  return c;
}

double Delta(const FleetCounters& before, const FleetCounters& after,
             const std::string& name) {
  auto a = after.flat.find(name);
  auto b = before.flat.find(name);
  return (a == after.flat.end() ? 0.0 : a->second) -
         (b == before.flat.end() ? 0.0 : b->second);
}

using DatasetsByName = std::map<std::string, std::unique_ptr<EMDataset>>;

/// Computes each query in process through RunAuditCell, each in a
/// "serve.inprocess_cell" span, and checks every answer against `book`.
/// Returns the total seconds, and each query's in `per_key`.
Result<double> ComputeInProcess(const std::vector<CellQuery>& queries,
                                const DatasetsByName& data,
                                const GridRunOptions& options,
                                PayloadBook* book,
                                std::map<std::string, double>* per_key,
                                RunOutcome* out) {
  double total = 0.0;
  for (const CellQuery& q : queries) {
    double seconds = 0.0;
    GridCellCheckpoint cell;
    {
      Span span("serve.inprocess_cell", &seconds);
      span.AddArg("cell", q.key);
      FAIREM_ASSIGN_OR_RETURN(cell, RunAuditCell(*data.at(q.dataset),
                                                 MatcherByName(q.matcher),
                                                 q.pairwise, options));
    }
    (*per_key)[q.key] = seconds;
    total += seconds;
    ++out->attempted;
    if (!book->Check(q.key, GridCellToJson(cell))) ++out->failed;
  }
  return total;
}

/// What the traced serve layers leave behind.
struct ServeTrace {
  std::map<std::string, std::string> payloads;  // key -> the fleet's answer
  DatasetsByName data;                          // the served datasets
  std::map<std::string, double> grid_work;      // GridWork, untraced misses
  std::vector<TraceEvent> events;  // datagen of `data`, the traced misses
  double untraced_s = 0.0;         // the misses in process, untraced
  double traced_s = 0.0;           // and traced
};

/// The serve and route layers, traced: the mixed phase routed, then on a
/// fresh fleet direct to each key's owning backend, then the hit ladder,
/// then each miss computed in process through RunAuditCell, untraced and
/// traced; every answer must equal the fleet's.
Result<ServeTrace> TraceServe(const ServeSpec& spec, const RunConfig& config,
                              RunOutcome* out) {
  const ServeCells cells = ServeCellsFor(spec);
  PayloadBook book;
  PhaseResult routed, direct;
  FleetCounters before, after;
  // The traced run's serve numbers are diagnostics with no bound: one
  // routed phase stands, and bench.gen_late_p99_ms shows how late its
  // generator ran.
  {
    FAIREM_ASSIGN_OR_RETURN(
        std::unique_ptr<Fleet> fleet,
        SetUpFleet(spec, cells, config.seed, Target::kRouted, &book, out));
    FAIREM_ASSIGN_OR_RETURN(before, SnapshotFleet(*fleet));
    {
      Span span("route.phase.mixed");
      routed = RunMixedPhase(*fleet, Target::kRouted, cells.mix, config.seed,
                             &book);
    }
    FAIREM_ASSIGN_OR_RETURN(after, SnapshotFleet(*fleet));
    AccountPhase(routed, out);
    FAIREM_RETURN_NOT_OK(fleet->Stop());
  }
  double ladder_max = 0.0;
  {
    FAIREM_ASSIGN_OR_RETURN(
        std::unique_ptr<Fleet> fleet,
        SetUpFleet(spec, cells, config.seed, Target::kDirect, &book, out));
    {
      Span span("serve.phase.direct");
      direct = RunMixedPhase(*fleet, Target::kDirect, cells.mix, config.seed,
                             &book);
    }
    AccountPhase(direct, out);
    std::vector<bool> passed;
    for (size_t r = 0; r < kLadderRates.size(); ++r) {
      Span span("route.ladder_rung");
      span.AddArg("rate", std::to_string(static_cast<int>(kLadderRates[r])));
      std::vector<double> lat;
      size_t sent = 0, failed = 0;
      RunHitRung(*fleet, cells.mix.hot, kLadderRates[r], 4, kLadderRungS,
                 config.seed + r, &book, &lat, &sent, &failed);
      out->attempted += sent;
      passed.push_back(RungPasses(lat, sent, failed, 0.99, kLadderLimitMs));
    }
    ladder_max = LadderMaxRate(kLadderRates, passed);
    FAIREM_RETURN_NOT_OK(fleet->Stop());
  }

  ServeTrace trace;
  {
    const SpanWindow window;
    for (DatasetKind kind : spec.Datasets()) {
      FAIREM_ASSIGN_OR_RETURN(EMDataset ds,
                              GenerateDataset(kind, kServeScale, config.seed));
      const std::string name = ds.name;
      trace.data[name] = std::make_unique<EMDataset>(std::move(ds));
    }
    Append(window.Events(), &trace.events);
  }
  GridRunOptions cell_options;
  cell_options.seed = config.seed;  // the daemons' cell seed
  std::map<std::string, double> untraced_s, traced_s;
  {
    const TracerPaused paused;
    const GridWork work;
    FAIREM_ASSIGN_OR_RETURN(
        trace.untraced_s, ComputeInProcess(cells.mix.misses, trace.data,
                                           cell_options, &book, &untraced_s,
                                           out));
    trace.grid_work = work.Deltas();
  }
  {
    const SpanWindow window;
    FAIREM_ASSIGN_OR_RETURN(
        trace.traced_s, ComputeInProcess(cells.mix.misses, trace.data,
                                         cell_options, &book, &traced_s, out));
    Append(window.Events(), &trace.events);
  }
  std::vector<double> overhead_ms;
  for (const auto& [key, s] : untraced_s) {
    auto it = routed.miss_ms_by_key.find(key);
    if (it != routed.miss_ms_by_key.end()) {
      overhead_ms.push_back(it->second - s * 1e3);
    }
  }
  trace.payloads = book.payloads();
  out->failed += book.problems.size();
  for (const std::string& p : book.problems) Problem(out, p);

  const double hits = Delta(before, after, "fairem.serve.cell_cache_hits");
  const double computed = Delta(before, after, "fairem.serve.cells_computed");
  const double hedges = Delta(before, after, "fairem.route.hedges_started");
  MetricsSnapshot::HistogramData requests = after.request_seconds;
  for (size_t b = 0; b < requests.bucket_counts.size() &&
                     b < before.request_seconds.bucket_counts.size();
       ++b) {
    requests.bucket_counts[b] -= before.request_seconds.bucket_counts[b];
  }
  requests.count -= before.request_seconds.count;
  const std::vector<double> routed_ms = Latencies(routed.hits);
  const std::vector<double> direct_ms = Latencies(direct.hits);
  SetMetric(out, "serve.direct_hit_p50_ms", Percentile(direct_ms, 0.5));
  SetMetric(out, "serve.direct_hit_p95_ms", Percentile(direct_ms, 0.95));
  SetMetric(out, "route.hit_p95_ms", Percentile(routed_ms, 0.95));
  if (!config.smoke && (!PercentileSupported(direct_ms.size(), 0.95) ||
                        !PercentileSupported(routed_ms.size(), 0.95))) {
    Problem(out, "too few hits in a traced phase for p95");
  }
  SetMetric(out, "route.hop_p50_ms",
            Percentile(routed_ms, 0.5) - Percentile(direct_ms, 0.5));
  SetMetric(out, "serve.miss_p50_ms", Percentile(routed.miss_ms, 0.5));
  SetMetric(out, "serve.miss_p80_ms", Percentile(routed.miss_ms, 0.8));
  SetMetric(out, "serve.miss_overhead_p50_ms", Median(overhead_ms));
  SetMetric(out, "serve.request_p50_ms", requests.Quantile(0.5) * 1e3);
  SetMetric(out, "serve.cache_hit_ratio",
            hits + computed > 0 ? hits / (hits + computed) : 0.0);
  SetMetric(out, "serve.cells_computed", computed);
  SetMetric(out, "serve.shed",
            Delta(before, after, "fairem.serve.shed_queue_full") +
                Delta(before, after, "fairem.serve.shed_draining"));
  SetMetric(out, "route.hedges_started", hedges);
  SetMetric(out, "route.hedge_win_ratio",
            hedges > 0 ? Delta(before, after, "fairem.route.hedges_won") /
                             hedges
                       : 0.0);
  SetMetric(out, "route.failovers",
            Delta(before, after, "fairem.route.failovers"));
  SetMetric(out, "route.ladder_max_hit_qps", ladder_max);
  std::vector<double> late;
  for (const HitSample& h : routed.hits) late.push_back(h.late_ms);
  SetMetric(out, "bench.gen_late_p99_ms", Percentile(late, 0.99));
  return trace;
}

// ------------------------------------------------------ traced runs --

/// The batch workloads' traced run: an untraced in-process cold pass, the
/// same set-up and pass traced plus one warm replay (the product's spans
/// give datagen, matcher and core times), then the layer probes and a
/// Cricket-only serve fleet.
Status TraceBatch(const RunConfig& config, RunOutcome* out) {
  const BatchSpec spec = BatchSpecFor(config.workload, config.smoke);
  const size_t cells = CellsPerReport(spec);

  // 1. The untraced reference: set-up and one in-process cold pass.
  FAIREM_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<EMDataset>> setup,
                          GenerateSetupInputs(spec, config.seed));
  const GridWork work;
  FAIREM_ASSIGN_OR_RETURN(
      ColdPass base, RunColdPass(spec, setup, config.seed, "ckpt-base", 1));
  out->attempted += base.reports.size() * cells;
  out->failed += static_cast<uint64_t>(base.error_cells);
  for (const auto& [name, v] : work.Deltas()) SetMetric(out, name, v);

  // 2. The same set-up and cold pass traced, then one warm replay.
  Tracer::Global().set_enabled(true);
  std::vector<std::unique_ptr<EMDataset>> traced_setup;
  ColdPass traced;
  Reports warm;
  std::vector<double> replay_s;
  const SpanWindow grid_window;
  {
    Span span("bench.traced_grid");
    FAIREM_ASSIGN_OR_RETURN(traced_setup,
                            GenerateSetupInputs(spec, config.seed));
    FAIREM_ASSIGN_OR_RETURN(traced, RunColdPass(spec, traced_setup,
                                                config.seed, "ckpt-traced", 1));
    FAIREM_ASSIGN_OR_RETURN(
        warm, RunWarmRound(spec, traced.data, "ckpt-traced", &replay_s));
  }
  std::vector<TraceEvent> events = grid_window.Events();
  out->attempted += 2 * base.reports.size() * cells;
  out->failed += static_cast<uint64_t>(traced.error_cells);
  CompareReports(base.reports, traced.reports, "traced pass", out);
  CompareReports(base.reports, warm, "traced replay", out);
  CheckGolden(config, base.reports, out);
  SetMetric(out, "bench.trace_overhead_frac",
            traced.wall_s / base.wall_s - 1.0);
  double records = 0.0;
  for (const EMDataset* ds : traced.data.by_input) records += Records(*ds);
  SetMetric(out, "datagen.records", records);

  // 3. Probes, outside the overhead.
  double checkpoint_bytes = 0.0;
  {
    const SpanWindow window;
    for (size_t i = 0; i < spec.inputs.size(); ++i) {
      for (size_t m = 0; m < spec.modes.size(); ++m) {
        FAIREM_RETURN_NOT_OK(ProbeReplay(
            *traced.data.by_input[i], spec.modes[m],
            GridOptions(spec, InputCheckpointDir("ckpt-traced", i), 1),
            base.reports[i * spec.modes.size() + m].second, &checkpoint_bytes,
            out));
      }
    }
    Append(window.Events(), &events);
  }
  SetMetric(out, "robust.checkpoint_bytes", checkpoint_bytes);
  const EMDataset& primary = *traced.data.by_input.front();
  FAIREM_RETURN_NOT_OK(ProbeLayers(primary, &events, out));
  // The matchers the grid leaves out, through the product's RunMatcher on
  // the first dataset at x1, so every matcher is timed on every workload.
  if (!spec.skip.empty()) {
    FAIREM_ASSIGN_OR_RETURN(
        EMDataset probe,
        GenerateDataset(spec.inputs.front().kind, 1.0, config.seed));
    const SpanWindow window;
    for (MatcherKind kind : spec.skip) {
      FAIREM_RETURN_NOT_OK(RunMatcher(probe, kind, kMatcherSeed).status());
    }
    Append(window.Events(), &events);
  }
  SetSpanMetrics(events, out);
  FAIREM_RETURN_NOT_OK(ProbeHarness(primary, spec.modes.front(),
                                    GridOptions(spec, "", 1),
                                    base.reports.front().second,
                                    base.answer_s.front(), out));
  FAIREM_RETURN_NOT_OK(
      ProbeDatagenGrowth(config.seed, config.smoke, out));
  return TraceServe(ServeSpecFor(/*small=*/true, config.smoke), config, out)
      .status();
}

/// The serve workload's traced run: the serve layers on its own fleets,
/// then the hot grid in process as one report (each cell must equal the
/// fleet's answer), and the layer probes.
Status TraceServeWorkload(const RunConfig& config, RunOutcome* out) {
  Tracer::Global().set_enabled(true);
  const ServeSpec spec = ServeSpecFor(config.smoke, config.smoke);
  FAIREM_ASSIGN_OR_RETURN(ServeTrace served, TraceServe(spec, config, out));
  for (const auto& [name, v] : served.grid_work) SetMetric(out, name, v);
  SetMetric(out, "bench.trace_overhead_frac",
            served.traced_s / served.untraced_s - 1.0);
  double records = 0.0;
  for (const auto& [name, ds] : served.data) records += Records(*ds);
  SetMetric(out, "datagen.records", records);

  const EMDataset& hot =
      *served.data.at(DatasetKindName(DatasetKind::kCricket));
  GridRunOptions options;
  options.seed = config.seed;  // the daemons' cell options
  options.checkpoint_dir = "ckpt-hot";
  std::string report;
  double report_s = 0.0;
  {
    const TracerPaused paused;
    const ScopedTimer timer(&report_s);
    FAIREM_ASSIGN_OR_RETURN(report,
                            UnfairnessGridReport(hot, false, options));
  }
  const CheckpointStore store(options.checkpoint_dir);
  for (MatcherKind m : AllMatcherKinds()) {
    const std::string key = AuditCellKey(hot.name, m, false);
    Result<std::string> cell = store.Load(key);
    auto it = served.payloads.find(key);
    ++out->attempted;
    if (!cell.ok() || it == served.payloads.end() || *cell != it->second) {
      ++out->failed;
      Problem(out, "in-process cell " + key +
                       " differs from the fleet's answer");
    }
  }

  std::vector<TraceEvent> events = std::move(served.events);
  double checkpoint_bytes = 0.0;
  {
    const SpanWindow window;
    FAIREM_RETURN_NOT_OK(
        ProbeReplay(hot, false, options, report, &checkpoint_bytes, out));
    Append(window.Events(), &events);
  }
  SetMetric(out, "robust.checkpoint_bytes", checkpoint_bytes);
  FAIREM_RETURN_NOT_OK(ProbeLayers(
      *served.data.at(DatasetKindName(spec.miss_grids.front().kind)), &events,
      out));
  SetSpanMetrics(events, out);
  FAIREM_RETURN_NOT_OK(
      ProbeHarness(hot, false, options, report, report_s, out));
  return ProbeDatagenGrowth(config.seed, config.smoke, out);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "paper_grid", "features_large", "scale_sweep", "serve_mixed"};
  return names;
}

const std::vector<MetricInfo>& EndToEndMetrics() {
  static const std::vector<MetricInfo> metrics = {
      {"setup_s", "s"},        {"wall_s", "s"},
      {"warm_wall_s", "s"},    {"cpu_s", "s"},
      {"peak_rss_mb", "MB"},   {"hit_p50_ms", "ms"}};
  return metrics;
}

const std::vector<MetricInfo>& PerLayerMetrics() {
  static const std::vector<MetricInfo> metrics = [] {
    std::vector<MetricInfo> m = {
        {"datagen.generate_s", "s"},
        {"datagen.records", "count"},
        {"datagen.growth_exp.DBLP-ACM", "ratio"},
        {"datagen.growth_exp.FacultyMatch", "ratio"},
        {"datagen.growth_exp.NoFlyCompas", "ratio"},
        {"feature.generate_s", "s"},
        {"feature.build_s", "s"},
        {"feature.values", "count"},
        {"feature.builds_in_grid", "count"},
        {"text.kernel_calls", "count"},
        {"text.similarity_s", "s"}};
    for (const char* c : {"DT", "SVM", "RF", "LogReg", "LinReg", "NB"}) {
      m.push_back({std::string("ml.fit_s.") + c, "s"});
      m.push_back({std::string("ml.predict_s.") + c, "s"});
    }
    for (MatcherKind kind : AllMatcherKinds()) {
      m.push_back({std::string("matcher.fit_s.") + MatcherKindName(kind), "s"});
      m.push_back(
          {std::string("matcher.predict_s.") + MatcherKindName(kind), "s"});
    }
    const std::vector<MetricInfo> rest = {
        {"matcher.runs", "count"},
        {"embed.encode_s", "s"},
        {"embed.tokens", "count"},
        {"embed.distinct_tokens", "count"},
        {"core.audit_single_s", "s"},
        {"core.audit_pairwise_s", "s"},
        {"core.cells", "count"},
        {"report.render_s", "s"},
        {"robust.checkpoint_save_s", "s"},
        {"robust.checkpoint_load_s", "s"},
        {"robust.checkpoint_bytes", "bytes"},
        {"harness.fork_overhead_s", "s"},
        {"serve.direct_hit_p50_ms", "ms"},
        {"serve.direct_hit_p95_ms", "ms"},
        {"route.hit_p95_ms", "ms"},
        {"route.hop_p50_ms", "ms"},
        {"serve.miss_p50_ms", "ms"},
        {"serve.miss_p80_ms", "ms"},
        {"serve.miss_overhead_p50_ms", "ms"},
        {"serve.request_p50_ms", "ms"},
        {"serve.cache_hit_ratio", "ratio"},
        {"serve.cells_computed", "count"},
        {"serve.shed", "count"},
        {"route.hedges_started", "count"},
        {"route.hedge_win_ratio", "ratio"},
        {"route.failovers", "count"},
        {"route.ladder_max_hit_qps", "1/s"},
        {"bench.gen_late_p99_ms", "ms"},
        {"bench.trace_overhead_frac", "ratio"}};
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return metrics;
}

RunOutcome RunWorkload(const RunConfig& config) {
  RunOutcome out;
  if (!config.trace) {
    if (config.workload == "serve_mixed") {
      RunServe(config, &out);
    } else {
      RunBatch(config, &out);
    }
    return out;
  }
  const Status st = config.workload == "serve_mixed"
                        ? TraceServeWorkload(config, &out)
                        : TraceBatch(config, &out);
  if (!st.ok()) Problem(&out, "traced run failed: " + st.ToString());
  Tracer& tracer = Tracer::Global();
  tracer.set_enabled(false);
  if (!config.trace_out.empty()) {
    if (Status w = tracer.WriteChromeTrace(config.trace_out); !w.ok()) {
      Problem(&out, "trace not written: " + w.ToString());
    } else {
      out.notes.push_back("trace: " + config.trace_out + " (" +
                          std::to_string(tracer.EventCount()) + " spans)");
    }
  }
  return out;
}

}  // namespace fairem::bench
