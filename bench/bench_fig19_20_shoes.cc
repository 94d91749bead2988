// Reproduces Figures 19 and 20: Shoes (textual) single and pairwise grids
// over the extracted company groups.

#include "bench/grid_bench_common.h"

int main(int argc, char** argv) {
  return fairem::RunGridBench(argc, argv, fairem::DatasetKind::kShoes,
                              "Figure 19: Shoes single fairness",
                              "Figure 20: Shoes pairwise fairness");
}
