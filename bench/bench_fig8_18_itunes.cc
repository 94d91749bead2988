// Reproduces Figures 8 and 18: iTunes-Amazon single and pairwise grids
// over the setwise genre groups. Expected shape: neural matchers unfair on
// the country-family groups (Country / Cont. Country / Honky Tonk) via
// TPRP/PPVP/FPRP; the French-Pop column fires only on SP (its ground truth
// has no true matches — the SP false flag of §5.3.2).

#include "bench/paper_bench.h"

int main(int argc, char** argv) {
  return fairem::RunGridBench(argc, argv, fairem::DatasetKind::kItunesAmazon,
                              "Figure 8: iTunes-Amazon single fairness",
                              "Figure 18: iTunes-Amazon pairwise fairness");
}
