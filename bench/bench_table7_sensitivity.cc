// Reproduces Table 7: the threshold sensitivity of each matcher's fairness
// — the L2 norm of the changes in the number of discriminated groups
// between adjacent matching thresholds, for TPRP and PPVP on the four
// swept datasets. Expected shape: neural matchers are more sensitive
// (larger values) than non-neural ones on the structured datasets (§5.3.4).

#include "bench/paper_bench.h"
#include "src/core/threshold.h"

namespace fairem {
namespace {

Status Run(PaperBench& bench) {
  const std::vector<DatasetKind> kinds = {
      DatasetKind::kItunesAmazon, DatasetKind::kCameras,
      DatasetKind::kDblpAcm, DatasetKind::kDblpScholar};
  const std::vector<FairnessMeasure> measures = {
      FairnessMeasure::kTruePositiveRateParity,
      FairnessMeasure::kPositivePredictiveValueParity};
  const std::vector<double> thresholds = ThresholdGrid(0.30, 0.95, 0.05);

  std::vector<std::string> headers = {"measure", "dataset"};
  for (MatcherKind kind : AllMatcherKinds()) {
    if (kind == MatcherKind::kDedupe) continue;  // Table 7 omits Dedupe
    headers.push_back(MatcherKindName(kind));
  }
  TablePrinter table(std::move(headers));

  for (FairnessMeasure measure : measures) {
    for (DatasetKind dk : kinds) {
      FAIREM_ASSIGN_OR_RETURN(const EMDataset* dataset, bench.Dataset(dk));
      FAIREM_ASSIGN_OR_RETURN(const FairnessAuditor* auditor,
                              bench.Auditor(*dataset));
      std::vector<std::string> row = {FairnessMeasureName(measure),
                                      DatasetKindName(dk)};
      for (MatcherKind kind : AllMatcherKinds()) {
        if (kind == MatcherKind::kDedupe) continue;
        Result<const MatcherRun*> run = bench.Run(*dataset, kind);
        if (!run.ok() || !(*run)->supported) {
          row.push_back("-");
          continue;
        }
        FAIREM_ASSIGN_OR_RETURN(
            std::vector<ThresholdPoint> sweep,
            SweepThresholds(*auditor, dataset->test, (*run)->test_scores,
                            measure, thresholds, AuditOptions{}));
        row.push_back(FormatDouble(ThresholdSensitivityL2(sweep), 1));
      }
      table.AddRow(std::move(row));
    }
  }
  std::cout << "== Table 7: threshold sensitivity (L2 of adjacent-threshold "
               "unfair-group deltas) ==\n\n"
            << table.ToString() << "\n";
  return Status::OK();
}

}  // namespace
}  // namespace fairem

int main(int argc, char** argv) {
  return fairem::RunPaperBench(argc, argv, fairem::Run);
}
