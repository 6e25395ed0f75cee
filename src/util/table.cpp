#include "util/table.hpp"

#include <algorithm>
#include <cctype>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace hemo {

namespace {

bool looks_numeric(const std::string& cell) {
  if (cell.empty()) return false;
  bool digit_seen = false;
  for (char c : cell) {
    if (std::isdigit(static_cast<unsigned char>(c))) {
      digit_seen = true;
    } else if (c != '.' && c != '-' && c != '+' && c != 'e' && c != 'E' &&
               c != '%' && c != ',' && c != 'x') {
      return false;
    }
  }
  return digit_seen;
}

}  // namespace

void TextTable::set_header(std::vector<std::string> header) {
  header_ = std::move(header);
}

void TextTable::add_row(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

std::string TextTable::num(double v, int precision) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << v;
  return oss.str();
}

std::string TextTable::num(index_t v) { return std::to_string(v); }

void TextTable::print(std::ostream& os) const {
  // Determine the column count and widths.
  index_t ncols = static_cast<index_t>(header_.size());
  for (const auto& row : rows_) {
    ncols = std::max(ncols, static_cast<index_t>(row.size()));
  }
  if (ncols == 0) return;

  std::vector<index_t> widths(static_cast<std::size_t>(ncols), 0);
  auto widen = [&](const std::vector<std::string>& row) {
    for (index_t c = 0; c < static_cast<index_t>(row.size()); ++c) {
      widths[static_cast<std::size_t>(c)] =
          std::max(widths[static_cast<std::size_t>(c)],
                   static_cast<index_t>(row[static_cast<std::size_t>(c)].size()));
    }
  };
  widen(header_);
  for (const auto& row : rows_) widen(row);

  auto print_row = [&](const std::vector<std::string>& row, bool is_header) {
    os << "|";
    for (index_t c = 0; c < ncols; ++c) {
      const std::string cell = c < static_cast<index_t>(row.size())
                                   ? row[static_cast<std::size_t>(c)]
                                   : std::string{};
      const index_t w = widths[static_cast<std::size_t>(c)];
      const bool right = !is_header && looks_numeric(cell);
      os << ' ';
      if (right) {
        os << std::setw(static_cast<int>(w)) << std::right << cell;
      } else {
        os << std::setw(static_cast<int>(w)) << std::left << cell;
      }
      os << " |";
    }
    os << '\n';
  };

  if (!header_.empty()) {
    print_row(header_, /*is_header=*/true);
    os << "|";
    for (index_t c = 0; c < ncols; ++c) {
      os << std::string(static_cast<std::size_t>(
                            widths[static_cast<std::size_t>(c)] + 2),
                        '-')
         << "|";
    }
    os << '\n';
  }
  for (const auto& row : rows_) print_row(row, /*is_header=*/false);
}

std::string TextTable::to_string() const {
  std::ostringstream oss;
  print(oss);
  return oss.str();
}

}  // namespace hemo
