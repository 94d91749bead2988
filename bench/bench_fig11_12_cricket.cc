// Reproduces Figures 11 and 12: Cricket single and pairwise grids over
// batting style. The dataset is 96.5% positive (negative imbalance), so
// NPVP/FPRP are the informative measures; the abbreviated left-handed
// profiles drive FN-based unfairness that propagates to the
// Left Handed | Left Handed pairwise cell (§5.3.2).

#include "bench/paper_bench.h"

int main(int argc, char** argv) {
  return fairem::RunGridBench(argc, argv, fairem::DatasetKind::kCricket,
                              "Figure 11: Cricket single fairness",
                              "Figure 12: Cricket pairwise fairness");
}
