#include "src/report/table_printer.h"

#include <algorithm>

namespace fairem {

void TablePrinter::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::vector<size_t> TablePrinter::ColumnWidths() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  return widths;
}

std::string TablePrinter::ToString() const {
  std::vector<size_t> widths = ColumnWidths();
  auto append_row = [&](std::string* out,
                        const std::vector<std::string>& cells) {
    for (size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string();
      out->append(cell);
      out->append(widths[c] - cell.size() + 2, ' ');
    }
    while (!out->empty() && out->back() == ' ') out->pop_back();
    out->push_back('\n');
  };
  std::string out;
  append_row(&out, headers_);
  std::string sep;
  for (size_t c = 0; c < headers_.size(); ++c) {
    sep.append(widths[c], '-');
    sep.append(2, ' ');
  }
  while (!sep.empty() && sep.back() == ' ') sep.pop_back();
  out += sep + "\n";
  for (const auto& row : rows_) append_row(&out, row);
  return out;
}

}  // namespace fairem
