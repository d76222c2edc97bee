// Tests for table formatting and CSV emission.
#include "sim/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "sim/csv.hpp"

namespace {

using sfs::sim::csv_escape;
using sfs::sim::format_double;
using sfs::sim::Table;

TEST(FormatDouble, FixedPrecision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
  EXPECT_EQ(format_double(-0.5, 3), "-0.500");
}

TEST(Table, PrintAlignsColumns) {
  Table t("demo", {"n", "cost"});
  t.row().integer(100).num(12.5, 1);
  t.row().integer(100000).num(3.0, 1);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("n"), std::string::npos);
  EXPECT_NE(out.find("100000"), std::string::npos);
  EXPECT_NE(out.find("12.5"), std::string::npos);
  // Rule line present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, NumRows) {
  Table t("x", {"a"});
  EXPECT_EQ(t.num_rows(), 0u);
  t.row().cell("1");
  t.row().cell("2");
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, RowOverflowRejected) {
  Table t("x", {"a", "b"});
  t.row().cell("1").cell("2");
  EXPECT_THROW(t.cell("3"), std::invalid_argument);
}

TEST(Table, CellWithoutRowRejected) {
  Table t("x", {"a"});
  EXPECT_THROW(t.cell("1"), std::invalid_argument);
}

TEST(Table, IncompleteRowDetectedOnNextRow) {
  Table t("x", {"a", "b"});
  t.row().cell("1");
  EXPECT_THROW(t.row(), std::logic_error);
}

TEST(Table, EmptyHeadersRejected) {
  EXPECT_THROW(Table("x", {}), std::invalid_argument);
}

TEST(CsvEscape, QuotingRules) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(ParseCsvRow, RoundTripsEscapedRows) {
  // parse_csv_row must invert write_csv_row field-for-field.
  const std::vector<std::string> cases[] = {
      {"a", "b", "c"},
      {"plain", "a,b", "say \"hi\"", ""},
      {"", "", ""},
      {"1", "1634", "2", "4.5500000000000007", "end"},
  };
  std::vector<std::string> fields;
  for (const auto& row : cases) {
    std::ostringstream os;
    sfs::sim::write_csv_row(os, row);
    std::string line = os.str();
    ASSERT_FALSE(line.empty());
    line.pop_back();  // strip '\n'
    ASSERT_TRUE(sfs::sim::parse_csv_row(line, fields)) << line;
    EXPECT_EQ(fields, row);
  }
}

TEST(ParseCsvRow, BasicShapes) {
  std::vector<std::string> fields;
  ASSERT_TRUE(sfs::sim::parse_csv_row("", fields));
  EXPECT_EQ(fields, (std::vector<std::string>{""}));
  ASSERT_TRUE(sfs::sim::parse_csv_row("a,,b", fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"a", "", "b"}));
  ASSERT_TRUE(sfs::sim::parse_csv_row("a,b,", fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"a", "b", ""}));
  ASSERT_TRUE(sfs::sim::parse_csv_row("\"x,y\",z", fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"x,y", "z"}));
}

TEST(ParseCsvRow, RejectsMalformedRows) {
  // Torn or corrupt lines — what an interrupted checkpoint append leaves —
  // must be detectable, not silently misparsed.
  std::vector<std::string> fields;
  EXPECT_FALSE(sfs::sim::parse_csv_row("\"unterminated", fields));
  EXPECT_FALSE(sfs::sim::parse_csv_row("\"a\"garbage,b", fields));
  EXPECT_FALSE(sfs::sim::parse_csv_row("bare\"quote", fields));
}

}  // namespace
