// Plain-text table formatter for the bench harness and the examples.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"

namespace anton {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) {
    ANTON_CHECK(cells.size() == headers_.size());
    rows_.push_back(std::move(cells));
  }

  // Convenience for numeric cells.
  static std::string fmt(double v, int precision = 2) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
  }
  static std::string fmt_int(int64_t v) { return std::to_string(v); }

  void print(std::ostream& os) const {
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      os << "|";
      for (size_t c = 0; c < row.size(); ++c) {
        os << " " << std::setw(static_cast<int>(widths[c])) << std::left
           << row[c] << " |";
      }
      os << "\n";
    };
    print_row(headers_);
    os << "|";
    for (size_t c = 0; c < headers_.size(); ++c) {
      os << std::string(widths[c] + 2, '-') << "|";
    }
    os << "\n";
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace anton
