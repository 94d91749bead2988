#include "src/report/grid.h"

#include <algorithm>

#include "src/report/table_printer.h"

namespace fairem {

void UnfairnessGrid::MarkCell(const std::string& marker,
                              const std::string& group,
                              FairnessMeasure measure, bool unfair) {
  if (std::find(group_order_.begin(), group_order_.end(), group) ==
      group_order_.end()) {
    group_order_.push_back(group);
  }
  if (!unfair) return;
  auto& markers = cells_[group][measure];
  if (markers.insert(marker).second) ++num_marks_;
}

void UnfairnessGrid::AddError(const std::string& matcher_name,
                              const std::string& status) {
  errors_.emplace_back(matcher_name, status);
}

std::string UnfairnessGrid::Render() const {
  if (group_order_.empty() && errors_.empty()) return "";
  if (group_order_.empty()) return RenderErrors();
  std::vector<std::string> headers = {"measure"};
  headers.insert(headers.end(), group_order_.begin(), group_order_.end());
  TablePrinter printer(std::move(headers));
  for (FairnessMeasure m : kAllFairnessMeasures) {
    std::vector<std::string> row = {FairnessMeasureName(m)};
    bool any = false;
    for (const auto& group : group_order_) {
      auto git = cells_.find(group);
      std::string cell = ".";
      if (git != cells_.end()) {
        auto mit = git->second.find(m);
        if (mit != git->second.end() && !mit->second.empty()) {
          cell.clear();
          for (const auto& marker : mit->second) {
            if (!cell.empty()) cell += ",";
            cell += marker;
          }
          any = true;
        }
      }
      row.push_back(cell);
    }
    (void)any;
    printer.AddRow(std::move(row));
  }
  return printer.ToString() + RenderErrors();
}

std::string UnfairnessGrid::RenderErrors() const {
  if (errors_.empty()) return "";
  std::string out = "errors (cells unavailable after retries):\n";
  for (const auto& [matcher, status] : errors_) {
    out += "  " + matcher + ": " + status + "\n";
  }
  return out;
}

std::string MatcherMarker(const std::string& matcher_name) {
  // Figure 5-style short codes, stable per Table 3 name.
  struct Marker {
    const char* name;
    const char* marker;
  };
  static constexpr Marker kMarkers[] = {
      {"BooleanRuleMatcher", "BR"}, {"Dedupe", "DD"},
      {"DTMatcher", "DT"},          {"SVMMatcher", "SV"},
      {"RFMatcher", "RF"},          {"LogRegMatcher", "LO"},
      {"LinRegMatcher", "LI"},      {"NBMatcher", "NB"},
      {"DeepMatcher", "DM"},        {"Ditto", "DI"},
      {"GNEM", "GN"},               {"HierMatcher", "HM"},
      {"MCAN", "MC"},
  };
  for (const auto& m : kMarkers) {
    if (matcher_name == m.name) return m.marker;
  }
  // Fallback: first two characters, upper-cased.
  std::string marker = matcher_name.substr(0, 2);
  for (char& c : marker) c = static_cast<char>(std::toupper(c));
  return marker;
}

}  // namespace fairem
