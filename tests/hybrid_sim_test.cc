#include "src/text/hybrid_sim.h"

#include <gtest/gtest.h>

#include "src/text/edit_distance.h"

namespace fairem {
namespace {

using Doc = std::vector<std::string>;

TEST(MongeElkanTest, AveragesBestInnerMatches) {
  // Jaro("jon", "john") = (3/3 + 3/4 + 3/3) / 3 = 11/12; "smith" shares no
  // character with either. ME(a, b) = 11/12 over a's one token, ME(b, a) =
  // (11/12 + 0) / 2 over b's two, and the symmetric value is their mean.
  Doc a = {"jon"};
  Doc b = {"john", "smith"};
  EXPECT_NEAR(SymmetricMongeElkan(a, b, &JaroSimilarity),
              0.5 * (11.0 / 12.0 + 11.0 / 24.0), 1e-12);
  EXPECT_DOUBLE_EQ(SymmetricMongeElkan({}, {}, &JaroSimilarity), 1.0);
  EXPECT_DOUBLE_EQ(SymmetricMongeElkan(a, {}, &JaroSimilarity), 0.0);
}

TEST(MongeElkanTest, SymmetricVariantIsSymmetric) {
  Doc a = {"jon"};
  Doc b = {"john", "smith", "junior"};
  EXPECT_DOUBLE_EQ(SymmetricMongeElkan(a, b, &JaroSimilarity),
                   SymmetricMongeElkan(b, a, &JaroSimilarity));
}

}  // namespace
}  // namespace fairem
