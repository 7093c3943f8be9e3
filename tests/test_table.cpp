// Tests for the text (markdown) table renderer used by the bench harness.
#include <gtest/gtest.h>

#include "support/table.hpp"

namespace sdem {
namespace {

TEST(Table, AlignedTextOutput) {
  Table t({"name", "value"});
  t.add_row({"x", "1.5"});
  t.add_row({"longer-name", "2"});
  const std::string s = t.to_text();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("| longer-name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(Table, NonAsciiCellsAlign) {
  // "§" is two bytes but one column: cells pad by UTF-8 code points, so
  // every bar lines up (the runner's --list shows "§5 ablation" etc.).
  Table t({"item", "n"});
  t.add_row({"§5 ablation", "1"});
  t.add_row({"Fig. 6a", "22"});
  EXPECT_EQ(t.to_text(),
            "| item        | n  |\n"
            "|-------------|----|\n"
            "| §5 ablation | 1  |\n"
            "| Fig. 6a     | 22 |\n");
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

TEST(Table, RowCount) {
  Table t({"a"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"x"});
  EXPECT_EQ(t.rows(), 1u);
}

}  // namespace
}  // namespace sdem
