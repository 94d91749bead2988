// Reproduces Table 6: FacultyMatch — TPR and PPV per country group (cn /
// de) with subtraction and division disparities for all 11 ML matchers.
// The paper's findings: neural matchers show 12-31% TPR disparity against
// cn (similar pinyin names => more FNs) and 5-17% PPV disparity (more FPs);
// non-neural matchers mostly match or exceed the cn TPR but NBMatcher's PPV
// collapses for cn.

#include "bench/paper_bench.h"

int main(int argc, char** argv) {
  return fairem::RunRateTable(
      argc, argv,
      {.dataset = fairem::DatasetKind::kFacultyMatch,
       .heading = "== Table 6: FacultyMatch — TPR / PPV per country ==\n"
                  "cn pairs outnumber de pairs ~6x; cn names are "
                  "intrinsically more similar\n\n",
       .suspect = "cn",
       .other = "de",
       .suspect_column = "cn",
       .other_column = "de",
       .second = fairem::FairnessMeasure::kPositivePredictiveValueParity,
       .skip_boolean_rule = true});  // Table 6 covers the ML matchers
}
