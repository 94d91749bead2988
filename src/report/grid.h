#ifndef FAIREM_REPORT_GRID_H_
#define FAIREM_REPORT_GRID_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/core/measures.h"

namespace fairem {

/// Text rendering of the paper's unfairness-grid figures (Figures 6-13,
/// 17-20): rows are fairness measures, columns are (single or pairwise)
/// groups, and a cell lists the plot markers of the matchers that are
/// unfair for that (group, measure).
class UnfairnessGrid {
 public:
  /// Columns are the group labels passed to MarkCell, in first-seen order.
  UnfairnessGrid() = default;

  /// One audit entry: registers `group` in column order and, when
  /// `unfair`, marks the (group, measure) cell under the matcher's marker
  /// (MatcherMarker gives the paper's Figure 5 codes). The grid sweep
  /// (src/harness) replays every cell through this, fresh or checkpointed,
  /// so a resumed grid renders byte-identically without re-auditing.
  void MarkCell(const std::string& marker, const std::string& group,
                FairnessMeasure measure, bool unfair);

  /// Records a matcher whose cells could not be computed (failed even after
  /// retries). Render() lists these under the grid, the analogue of
  /// Table 9's "-" entries: the report survives, the hole is visible.
  void AddError(const std::string& matcher_name, const std::string& status);

  /// Renders the grid; empty cells print ".". Errored matchers are listed
  /// under the table. Returns "" when nothing was marked or errored.
  std::string Render() const;

  /// Count of distinct (matcher, group, measure) unfair marks.
  size_t num_marks() const { return num_marks_; }

  /// Count of matchers recorded via AddError.
  size_t num_errors() const { return errors_.size(); }

 private:
  std::string RenderErrors() const;

  std::vector<std::string> group_order_;
  std::map<std::string, std::map<FairnessMeasure, std::set<std::string>>>
      cells_;  // group -> measure -> markers
  std::vector<std::pair<std::string, std::string>> errors_;  // matcher, status
  size_t num_marks_ = 0;
};

/// Two-letter plot marker for a matcher display name (Figure 5), e.g.
/// "Ditto" -> "DI".
std::string MatcherMarker(const std::string& matcher_name);

}  // namespace fairem

#endif  // FAIREM_REPORT_GRID_H_
