// Reproduces Figures 13 and 17: Cameras (textual) single and pairwise
// grids over the extracted company groups. Expected shape: extensive
// TPRP/PPVP unfairness from the non-neural matchers (they largely fail on
// the textual data, unevenly across brands).

#include "bench/paper_bench.h"

int main(int argc, char** argv) {
  return fairem::RunGridBench(argc, argv, fairem::DatasetKind::kCameras,
                              "Figure 13: Cameras single fairness",
                              "Figure 17: Cameras pairwise fairness");
}
