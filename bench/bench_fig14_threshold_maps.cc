// Reproduces Figure 14 and Figures 21-27: the matching-threshold heat-maps.
// For each of the four datasets the paper sweeps (iTunes-Amazon, DBLP-ACM,
// DBLP-Scholar, Cameras) and each probed measure (TPRP with TPR utility;
// PPVP with PPV utility), every matcher is swept over thresholds
// 0.30..0.95 and each cell prints "utility(#discriminated groups)".
//   Figure 14: iTunes-Amazon TPRP    Figure 24: iTunes-Amazon PPVP
//   Figure 21: DBLP-ACM TPRP         Figure 25: DBLP-ACM PPVP
//   Figure 22: DBLP-Scholar TPRP     Figure 26: DBLP-Scholar PPVP
//   Figure 23: Cameras TPRP          Figure 27: Cameras PPVP

#include "bench/paper_bench.h"
#include "src/core/threshold.h"
#include "src/report/heatmap.h"

namespace fairem {
namespace {

struct MapSpec {
  DatasetKind kind;
  FairnessMeasure measure;
  const char* title;
};

Status Run(PaperBench& bench) {
  const std::vector<MapSpec> specs = {
      {DatasetKind::kItunesAmazon, FairnessMeasure::kTruePositiveRateParity,
       "Figure 14: iTunes-Amazon — TPR(threshold) with #TPRP-unfair groups"},
      {DatasetKind::kDblpAcm, FairnessMeasure::kTruePositiveRateParity,
       "Figure 21: DBLP-ACM — TPR / TPRP"},
      {DatasetKind::kDblpScholar, FairnessMeasure::kTruePositiveRateParity,
       "Figure 22: DBLP-Scholar — TPR / TPRP"},
      {DatasetKind::kCameras, FairnessMeasure::kTruePositiveRateParity,
       "Figure 23: Cameras — TPR / TPRP"},
      {DatasetKind::kItunesAmazon,
       FairnessMeasure::kPositivePredictiveValueParity,
       "Figure 24: iTunes-Amazon — PPV / PPVP"},
      {DatasetKind::kDblpAcm, FairnessMeasure::kPositivePredictiveValueParity,
       "Figure 25: DBLP-ACM — PPV / PPVP"},
      {DatasetKind::kDblpScholar,
       FairnessMeasure::kPositivePredictiveValueParity,
       "Figure 26: DBLP-Scholar — PPV / PPVP"},
      {DatasetKind::kCameras, FairnessMeasure::kPositivePredictiveValueParity,
       "Figure 27: Cameras — PPV / PPVP"},
  };
  const std::vector<double> thresholds = ThresholdGrid(0.30, 0.95, 0.05);

  for (const MapSpec& spec : specs) {
    FAIREM_ASSIGN_OR_RETURN(const EMDataset* dataset, bench.Dataset(spec.kind));
    FAIREM_ASSIGN_OR_RETURN(const FairnessAuditor* auditor,
                            bench.Auditor(*dataset));
    ThresholdHeatmap heatmap(thresholds);
    for (MatcherKind kind : AllMatcherKinds()) {
      Result<const MatcherRun*> run = bench.Run(*dataset, kind);
      if (!run.ok() || !(*run)->supported) continue;
      FAIREM_ASSIGN_OR_RETURN(
          std::vector<ThresholdPoint> sweep,
          SweepThresholds(*auditor, dataset->test, (*run)->test_scores,
                          spec.measure, thresholds, AuditOptions{}));
      heatmap.AddRow((*run)->matcher_name, sweep);
    }
    std::cout << "== " << spec.title << " ==\n"
              << "cell = overall utility (number of discriminated groups)\n"
              << heatmap.Render() << "\n";
  }
  return Status::OK();
}

}  // namespace
}  // namespace fairem

int main(int argc, char** argv) {
  return fairem::RunPaperBench(argc, argv, fairem::Run);
}
