// Plain-text table rendering for the benchmark harness.
//
// Every experiment prints its figure/table as an aligned text table plus a
// machine-readable CSV block. The aligned text is GitHub-flavored markdown,
// so `sdem_bench_runner --md` prints the same rendering EXPERIMENTS.md
// embeds.
#pragma once

#include <string>
#include <vector>

namespace sdem {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Append a row; must match the header arity.
  void add_row(std::vector<std::string> row);

  /// Convenience: format doubles with fixed precision.
  static std::string fmt(double v, int precision = 4);

  /// Aligned rendering that is also a GitHub-flavored markdown table
  /// (header, separator, rows). Cells pad by UTF-8 code points, so
  /// non-ASCII cells stay aligned.
  std::string to_text() const;

  /// CSV rendering (header + rows).
  std::string to_csv() const;

  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::string>& row(std::size_t i) const { return rows_[i]; }

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sdem
