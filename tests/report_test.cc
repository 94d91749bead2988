#include <gtest/gtest.h>

#include "src/report/grid.h"
#include "src/report/heatmap.h"
#include "src/report/table_printer.h"

namespace fairem {
namespace {

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter printer({"name", "v"});
  printer.AddRow({"short", "1"});
  printer.AddRow({"a much longer cell", "2"});
  std::string out = printer.ToString();
  // Header, separator, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_NE(out.find("a much longer cell"), std::string::npos);
  EXPECT_EQ(printer.num_rows(), 2u);
}

TEST(TablePrinterTest, ShortRowsArePadded) {
  TablePrinter printer({"a", "b", "c"});
  printer.AddRow({"only one"});
  EXPECT_NO_FATAL_FAILURE(printer.ToString());
}

TEST(UnfairnessGridTest, MarksOnlyUnfairCells) {
  UnfairnessGrid grid;
  const FairnessMeasure m = FairnessMeasure::kTruePositiveRateParity;
  grid.MarkCell("DI", "Country", m, /*unfair=*/true);
  grid.MarkCell("DI", "Country_fair", m, /*unfair=*/false);
  EXPECT_EQ(grid.num_marks(), 1u);
  std::string out = grid.Render();
  EXPECT_NE(out.find("Country"), std::string::npos);
  EXPECT_NE(out.find("DI"), std::string::npos);
  // The fair column renders as dots, not markers.
  EXPECT_NE(out.find("Country_fair"), std::string::npos);
}

TEST(UnfairnessGridTest, MultipleMarkersJoinWithCommas) {
  UnfairnessGrid grid;
  const FairnessMeasure m = FairnessMeasure::kAccuracyParity;
  grid.MarkCell("DI", "G", m, /*unfair=*/true);
  grid.MarkCell("GN", "G", m, /*unfair=*/true);
  grid.MarkCell("DI", "G", m, /*unfair=*/true);  // duplicate ignored
  EXPECT_EQ(grid.num_marks(), 2u);
  EXPECT_NE(grid.Render().find("DI,GN"), std::string::npos);
}

TEST(UnfairnessGridTest, EmptyGridRendersEmpty) {
  UnfairnessGrid grid;
  EXPECT_EQ(grid.Render(), "");
}

TEST(MatcherMarkerTest, KnownAndFallback) {
  EXPECT_EQ(MatcherMarker("Ditto"), "DI");
  EXPECT_EQ(MatcherMarker("BooleanRuleMatcher"), "BR");
  EXPECT_EQ(MatcherMarker("MCAN"), "MC");
  EXPECT_EQ(MatcherMarker("zz_custom"), "ZZ");
}

TEST(HeatmapTest, RendersUtilityAndCounts) {
  ThresholdHeatmap heatmap({0.5, 0.6});
  std::vector<ThresholdPoint> sweep(2);
  sweep[0] = {0.5, 0.84, true, 3};
  sweep[1] = {0.6, 0.71, true, 5};
  heatmap.AddRow("Ditto", sweep);
  std::string out = heatmap.Render();
  EXPECT_NE(out.find("0.84(3)"), std::string::npos);
  EXPECT_NE(out.find("0.71(5)"), std::string::npos);
  EXPECT_NE(out.find("Ditto"), std::string::npos);
}

TEST(HeatmapTest, UndefinedUtilityRendersDash) {
  ThresholdHeatmap heatmap({0.5});
  std::vector<ThresholdPoint> sweep(1);
  sweep[0] = {0.5, 0.0, false, 0};
  heatmap.AddRow("X", sweep);
  EXPECT_NE(heatmap.Render().find("-(0)"), std::string::npos);
}

}  // namespace
}  // namespace fairem
