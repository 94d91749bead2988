// Reproduces Table 9: overall accuracy and F-1 of all 13 matchers across
// all 8 datasets. Expected shape (§5.3.1 / Appendix D.1): non-neural
// matchers win on structured data, neural matchers win on textual and
// dirty data, non-neural F1 collapses on Shoes/Cameras, Dedupe does not
// scale to the two social and two textual datasets ("-").

#include "bench/paper_bench.h"

namespace fairem {
namespace {

Status Run(PaperBench& bench) {
  std::vector<const EMDataset*> datasets;
  std::vector<std::string> headers = {"Matcher"};
  for (DatasetKind kind : AllDatasetKinds()) {
    FAIREM_ASSIGN_OR_RETURN(const EMDataset* dataset, bench.Dataset(kind));
    headers.push_back(std::string(DatasetKindName(kind)) + " Acc");
    headers.push_back("F1");
    datasets.push_back(dataset);
  }
  std::cout << "== Table 9: overall performance (Acc / F1), all matchers x "
               "all datasets ==\n\n";
  TablePrinter table(std::move(headers));
  for (MatcherKind kind : AllMatcherKinds()) {
    std::vector<std::string> row = {MatcherKindName(kind)};
    for (const EMDataset* dataset : datasets) {
      Result<const MatcherRun*> run = bench.Run(*dataset, kind);
      if (!run.ok()) {
        row.insert(row.end(), {"ERR", "ERR"});
      } else if (!(*run)->supported) {
        row.insert(row.end(), {"-", "-"});
      } else {
        row.push_back(FormatDouble((*run)->accuracy, 2));
        row.push_back(FormatDouble((*run)->f1, 2));
      }
    }
    table.AddRow(std::move(row));
  }
  std::cout << table.ToString() << "\n";
  return Status::OK();
}

}  // namespace
}  // namespace fairem

int main(int argc, char** argv) {
  return fairem::RunPaperBench(argc, argv, fairem::Run);
}
