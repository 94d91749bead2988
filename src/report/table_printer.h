#ifndef FAIREM_REPORT_TABLE_PRINTER_H_
#define FAIREM_REPORT_TABLE_PRINTER_H_

#include <string>
#include <vector>

namespace fairem {

/// Column-aligned ASCII tables for the bench harnesses that regenerate the
/// paper's tables.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  /// Rows shorter than the header are right-padded with "".
  void AddRow(std::vector<std::string> cells);

  /// Aligned plain-text rendering with a header separator.
  std::string ToString() const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<size_t> ColumnWidths() const;

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace fairem

#endif  // FAIREM_REPORT_TABLE_PRINTER_H_
