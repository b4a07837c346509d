// Tests for the CSV writer, ASCII table renderer and strfmt helper.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "mrs/common/csv.hpp"
#include "mrs/common/json.hpp"
#include "mrs/common/strfmt.hpp"
#include "mrs/common/table.hpp"

namespace mrs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class CsvTest : public ::testing::Test {
 protected:
  std::string path_ =
      (std::filesystem::temp_directory_path() / "pnats_csv_test.csv").string();
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, HeaderAndRows) {
  {
    CsvWriter w(path_, {"a", "b"});
    w.row({"1", "2"});
    w.row_values({3.5, 4.0});
    EXPECT_EQ(w.rows_written(), 2u);
  }
  EXPECT_EQ(slurp(path_), "a,b\n1,2\n3.5,4\n");
}

TEST_F(CsvTest, EscapesSpecialCharacters) {
  {
    CsvWriter w(path_, {"name"});
    w.row({"has,comma"});
    w.row({"has\"quote"});
    w.row({"has\nnewline"});
  }
  const std::string content = slurp(path_);
  EXPECT_NE(content.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(content.find("\"has\"\"quote\""), std::string::npos);
  EXPECT_NE(content.find("\"has\nnewline\""), std::string::npos);
}

TEST_F(CsvTest, PlainFieldsUnquoted) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("with space"), "with space");
}

TEST(CsvWriterErrors, UnopenablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv", {"a"}),
               std::runtime_error);
}

TEST(AsciiTable, RendersAlignedBox) {
  AsciiTable t({"name", "count"});
  t.set_right_aligned(1);
  t.add_row({"alpha", "1"});
  t.add_row({"bb", "1234"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name  | count |"), std::string::npos);
  EXPECT_NE(out.find("| alpha |     1 |"), std::string::npos);
  EXPECT_NE(out.find("| bb    |  1234 |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(AsciiTable, WidthGrowsWithContent) {
  AsciiTable t({"x"});
  t.add_row({"a-very-long-cell-value"});
  const std::string out = t.render();
  EXPECT_NE(out.find("a-very-long-cell-value"), std::string::npos);
}

TEST(Strf, FormatsLikePrintf) {
  EXPECT_EQ(strf("n=%d", 42), "n=42");
  EXPECT_EQ(strf("%.2f%%", 12.345), "12.35%");
  EXPECT_EQ(strf("%s-%zu", "node", std::size_t{7}), "node-7");
  EXPECT_EQ(strf("empty"), "empty");
}

TEST(Strf, LongStringsNotTruncated) {
  const std::string big(5000, 'x');
  EXPECT_EQ(strf("%s", big.c_str()).size(), 5000u);
}

TEST(Json, EscapesHostileStrings) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape("a\r\nb"), "a\\r\\nb");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(Json, NumbersRoundTripAndNonFiniteBecomesNull) {
  EXPECT_EQ(json_number(0.1), "0.10000000000000001");
  EXPECT_EQ(json_number(3.0), "3");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
}

}  // namespace
}  // namespace mrs
