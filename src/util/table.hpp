// Plain-text table rendering for benchmark outputs.
//
// Every bench binary reproduces a paper table or figure as rows of text;
// TextTable gives them a consistent, aligned look without pulling in a
// formatting library.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace hemo {

/// Column alignment inside a TextTable.
enum class Align { kLeft, kRight };

/// A simple monospace table: set a header, append rows of strings, print.
class TextTable {
 public:
  TextTable() = default;

  /// Replaces the header row. Column count of the table is fixed by the
  /// longest row seen (header included); shorter rows are padded.
  void set_header(std::vector<std::string> header);

  /// Appends one data row.
  void add_row(std::vector<std::string> row);

  /// Convenience: format a double with the given precision.
  static std::string num(double v, int precision = 2);

  /// Convenience: format an integer.
  static std::string num(index_t v);

  /// Renders the table. Numeric-looking cells are right-aligned unless
  /// `force_left` is set.
  void print(std::ostream& os) const;

  /// Renders to a string (used by tests).
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] index_t row_count() const noexcept {
    return static_cast<index_t>(rows_.size());
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace hemo
