// Extension experiment: the threshold-free AUC-based fairness definition of
// the paper's cited parallel work [46] (Nilforoushan et al.), evaluated on
// the two social datasets. A group with lower AUC is worse-ranked by the
// matcher *regardless of any threshold* — it complements the 11
// thresholded measures of Table 2.

#include "bench/paper_bench.h"
#include "src/core/auc.h"

namespace fairem {
namespace {

Status Run(PaperBench& bench) {
  std::cout << "== AUC parity on the social datasets (threshold-free) ==\n"
            << "cell = group AUC (overall AUC); * marks disparity > 0.05\n\n";
  for (DatasetKind kind :
       {DatasetKind::kNoFlyCompas, DatasetKind::kFacultyMatch}) {
    FAIREM_ASSIGN_OR_RETURN(const EMDataset* dataset, bench.Dataset(kind));
    FAIREM_ASSIGN_OR_RETURN(const FairnessAuditor* auditor,
                            bench.Auditor(*dataset));
    std::vector<std::string> headers = {"Matcher"};
    for (const auto& g : auditor->groups()) headers.push_back(g);
    TablePrinter table(std::move(headers));
    for (MatcherKind mk : AllMatcherKinds()) {
      Result<const MatcherRun*> run = bench.Run(*dataset, mk);
      if (!run.ok() || !(*run)->supported) continue;
      FAIREM_ASSIGN_OR_RETURN(
          std::vector<GroupAuc> report,
          AuditAucParity(auditor->membership(), dataset->test,
                         (*run)->test_scores));
      std::vector<std::string> row = {(*run)->matcher_name};
      for (const auto& g : report) {
        if (!g.defined) {
          row.push_back("-");
          continue;
        }
        std::string cell = FormatDouble(g.auc, 3) + " (" +
                           FormatDouble(g.overall_auc, 3) + ")";
        if (g.unfair) cell += " *";
        row.push_back(std::move(cell));
      }
      table.AddRow(std::move(row));
    }
    std::cout << "-- " << dataset->name << " --\n"
              << table.ToString() << "\n";
  }
  return Status::OK();
}

}  // namespace
}  // namespace fairem

int main(int argc, char** argv) {
  return fairem::RunPaperBench(argc, argv, fairem::Run);
}
