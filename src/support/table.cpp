#include "support/table.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>

namespace sdem {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> row) {
  assert(row.size() == header_.size());
  rows_.push_back(std::move(row));
}

std::string Table::fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

namespace {

/// Display width of a UTF-8 cell: its code points, i.e. every byte that is
/// not a continuation byte (10xxxxxx). "§5" is two columns, not three.
std::size_t display_width(const std::string& cell) {
  std::size_t n = 0;
  for (const unsigned char b : cell) n += (b & 0xC0) != 0x80;
  return n;
}

}  // namespace

std::string Table::to_text() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c)
    width[c] = display_width(header_[c]);
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], display_width(row[c]));
    }
  }
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    os << '|';
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << ' ' << row[c]
         << std::string(width[c] - display_width(row[c]) + 1, ' ') << '|';
    }
    os << '\n';
  };
  emit(header_);
  os << '|';
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << std::string(width[c] + 2, '-') << '|';
  }
  os << '\n';
  for (const auto& row : rows_) emit(row);
  return os.str();
}

std::string Table::to_csv() const {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ',';
      os << row[c];
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

}  // namespace sdem
