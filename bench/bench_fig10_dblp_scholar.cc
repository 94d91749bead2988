// Reproduces Figure 10: DBLP-Scholar (dirty) single-fairness grid over the
// entry-type groups.

#include "bench/paper_bench.h"

int main(int argc, char** argv) {
  return fairem::RunGridBench(argc, argv, fairem::DatasetKind::kDblpScholar,
                              "Figure 10: DBLP-Scholar single fairness",
                              nullptr);
}
