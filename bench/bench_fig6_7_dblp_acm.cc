// Reproduces Figures 6 and 7: DBLP-ACM single and pairwise unfairness
// grids over the venue groups. Expected shape: PPVP/TPRP cells for the
// editorial venues (SIGMOD Rec., VLDBJ) from the identical-title traps,
// with the same venues flagged pairwise (§5.3.3).

#include "bench/paper_bench.h"

int main(int argc, char** argv) {
  return fairem::RunGridBench(argc, argv, fairem::DatasetKind::kDblpAcm,
                              "Figure 6: DBLP-ACM single fairness",
                              "Figure 7: DBLP-ACM pairwise fairness");
}
