// Reproduces Table 5: NoFlyCompas — TPR and FDR per race group with
// subtraction and division disparities for every matcher. The paper's
// findings: non-neural matchers are (near-)perfect; neural matchers show
// FDR disparity against the over-represented African-American group.

#include "bench/paper_bench.h"

int main(int argc, char** argv) {
  return fairem::RunRateTable(
      argc, argv,
      {.dataset = fairem::DatasetKind::kNoFlyCompas,
       .heading = "== Table 5: NoFlyCompas — TPR / FDR per race ==\n"
                  "groups: Afr = African-American, Cauc = Caucasian; "
                  "disparities sub/div per Eq. 1 and Eq. 3\n\n",
       .suspect = "African-American",
       .other = "Caucasian",
       .suspect_column = "Afr",
       .other_column = "Cauc",
       .second = fairem::FairnessMeasure::kFalseDiscoveryRateParity});
}
