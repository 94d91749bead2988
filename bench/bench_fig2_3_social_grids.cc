// Reproduces Figures 2 and 3: the unfairness grids (measure x group, cells
// = markers of unfair matchers) for the two social datasets under single
// fairness. Because race/country are disjoint binary attributes, single
// and pairwise results coincide (§5.2.1), so only single fairness is shown.

#include "bench/paper_bench.h"

namespace fairem {
namespace {

Status Run(PaperBench& bench) {
  // The paper flags the social matchers with division disparity against
  // the *other* group (the bolding in Tables 5/6 matches div > 0.2 with
  // the between-group reference, e.g. Ditto FDR div 0.41 bold,
  // DeepMatcher 0.11 not bold).
  GridRunOptions options;
  options.audit.mode = DisparityMode::kDivision;
  options.audit.reference = AuditReference::kComplement;
  options.intra_jobs = bench.flags().intra_jobs;
  const std::pair<DatasetKind, const char*> figures[] = {
      {DatasetKind::kNoFlyCompas,
       "Figure 2: NoFlyCompas — unfair matchers per (measure, group)"},
      {DatasetKind::kFacultyMatch,
       "Figure 3: FacultyMatch — unfair matchers per (measure, group)"}};
  for (const auto& [kind, title] : figures) {
    FAIREM_ASSIGN_OR_RETURN(const EMDataset* dataset, bench.Dataset(kind));
    FAIREM_RETURN_NOT_OK(PrintGrid(*dataset, false, options, title));
  }
  std::cout << kGridMarkers;
  return Status::OK();
}

}  // namespace
}  // namespace fairem

int main(int argc, char** argv) {
  return fairem::RunPaperBench(argc, argv, fairem::Run);
}
