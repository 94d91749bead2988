// Ablation: the NoFlyCompas unfairness mechanism. The paper attributes the
// neural FDR disparity to concentrated names producing similar non-match
// candidates (§5.2.1). Removing the surname-blocked hard negatives from the
// candidate set should collapse that disparity — this bench runs the
// neural matchers with and without them and prints the FDR gap.

#include <iostream>

#include "src/datagen/social.h"
#include "src/harness/experiment.h"
#include "src/report/table_printer.h"
#include "src/util/flags.h"
#include "src/util/string_util.h"

namespace fairem {
namespace {

struct GapRow {
  std::string matcher;
  double fdr_afr = 0.0;
  double fdr_cauc = 0.0;
  bool ok = false;
};

Result<GapRow> Gap(const EMDataset& ds, MatcherKind kind) {
  GapRow row;
  row.matcher = MatcherKindName(kind);
  FAIREM_ASSIGN_OR_RETURN(MatcherRun run, RunMatcher(ds, kind));
  FAIREM_ASSIGN_OR_RETURN(std::vector<GroupRates> breakdown,
                          GroupBreakdown(ds, run));
  for (const auto& g : breakdown) {
    Result<double> fdr = FalseDiscoveryRate(g.counts);
    if (!fdr.ok()) continue;
    if (g.group == "African-American") {
      row.fdr_afr = *fdr;
      row.ok = true;
    } else if (g.group == "Caucasian") {
      row.fdr_cauc = *fdr;
    }
  }
  return row;
}

int Run() {
  NoFlyCompasOptions with;
  NoFlyCompasOptions without = with;
  without.include_blocked_negatives = false;
  Result<EMDataset> ds_with = GenerateNoFlyCompas(with);
  Result<EMDataset> ds_without = GenerateNoFlyCompas(without);
  if (!ds_with.ok() || !ds_without.ok()) {
    std::cerr << "generation failed\n";
    return 1;
  }
  std::cout << "== Ablation: surname-blocked hard negatives on NoFlyCompas "
               "==\ngap = FDR(African-American) - FDR(Caucasian); the "
               "mechanism predicts the gap collapses without the blocked "
               "candidates\n\n";
  TablePrinter table({"Matcher", "FDR gap (with)", "FDR gap (without)"});
  for (MatcherKind kind : NeuralMatcherKinds()) {
    Result<GapRow> w = Gap(*ds_with, kind);
    Result<GapRow> wo = Gap(*ds_without, kind);
    if (!w.ok() || !wo.ok()) {
      std::cerr << MatcherKindName(kind) << " failed\n";
      continue;
    }
    table.AddRow({w->matcher,
                  w->ok ? FormatDouble(w->fdr_afr - w->fdr_cauc, 3) : "-",
                  wo->ok ? FormatDouble(wo->fdr_afr - wo->fdr_cauc, 3) : "-"});
    std::cerr << "done " << w->matcher << "\n";
  }
  std::cout << table.ToString() << "\n";
  return 0;
}

}  // namespace
}  // namespace fairem

int main(int argc, char** argv) {
  fairem::FlagSet().ParseOrExit(argc, argv);  // takes no arguments
  return fairem::Run();
}
