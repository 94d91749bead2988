// Reproduces Figure 4 / Figure 16: fairness-accuracy synergies. Every
// (matcher, dataset) run is placed into one of four quadrants by whether it
// is accurate (F1 >= 0.8) and fair (no discriminated group under single
// fairness at the 20% rule). The paper's headline: all four quadrants are
// populated, including inaccurate-but-fair (equally bad for everyone).

#include "bench/paper_bench.h"

namespace fairem {
namespace {

constexpr double kAccurateF1 = 0.8;

Status Run(PaperBench& bench) {
  std::map<std::pair<bool, bool>, std::vector<std::string>> quadrants;
  for (DatasetKind dk : AllDatasetKinds()) {
    FAIREM_ASSIGN_OR_RETURN(const EMDataset* dataset, bench.Dataset(dk));
    for (MatcherKind mk : AllMatcherKinds()) {
      Result<const MatcherRun*> run = bench.Run(*dataset, mk);
      if (!run.ok() || !(*run)->supported) continue;
      FAIREM_ASSIGN_OR_RETURN(AuditReport report,
                              AuditRunSingle(*dataset, **run));
      bool accurate = (*run)->f1 >= kAccurateF1;
      bool fair = report.NumDiscriminatedGroups() == 0;
      std::string evidence = (*run)->matcher_name + ": " + dataset->name +
                             " (F1 " + FormatDouble((*run)->f1, 2) + ")";
      auto& bucket = quadrants[{accurate, fair}];
      if (bucket.size() < 6) bucket.push_back(std::move(evidence));
    }
  }
  std::cout << "== Figure 4: fairness and accuracy synergies (selected "
               "evidence per quadrant) ==\n\n";
  TablePrinter table({"Accurate", "Fair", "Evidence"});
  for (bool accurate : {false, true}) {
    for (bool fair : {false, true}) {
      auto it = quadrants.find({accurate, fair});
      std::string evidence =
          it == quadrants.end() ? "(none)" : Join(it->second, "; ");
      table.AddRow({accurate ? "yes" : "no", fair ? "yes" : "no", evidence});
    }
  }
  std::cout << table.ToString() << "\n";
  return Status::OK();
}

}  // namespace
}  // namespace fairem

int main(int argc, char** argv) {
  return fairem::RunPaperBench(argc, argv, fairem::Run);
}
