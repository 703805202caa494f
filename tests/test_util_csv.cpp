#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace ou = osprey::util;

TEST(Csv, BuildAndSerialize) {
  ou::CsvTable t({"day", "value"});
  t.add_row({"0", "1.5"});
  t.add_row({"1", "2.5"});
  EXPECT_EQ(t.to_string(), "day,value\n0,1.5\n1,2.5\n");
}

TEST(Csv, ParseRoundTrip) {
  std::string text = "a,b,c\n1,2,3\n4,5,6\n";
  ou::CsvTable t = ou::CsvTable::parse(text);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_cols(), 3u);
  EXPECT_EQ(t.to_string(), text);
}

TEST(Csv, QuotedFieldsWithCommasAndNewlines) {
  ou::CsvTable t({"name", "note"});
  t.add_row({"O'Brien", "hello, world"});
  t.add_row({"X", "line1\nline2"});
  t.add_row({"Y", "has \"quotes\""});
  ou::CsvTable round = ou::CsvTable::parse(t.to_string());
  EXPECT_EQ(round.cell(0, "note"), "hello, world");
  EXPECT_EQ(round.cell(1, "note"), "line1\nline2");
  EXPECT_EQ(round.cell(2, "note"), "has \"quotes\"");
}

TEST(Csv, ColumnAccessors) {
  ou::CsvTable t = ou::CsvTable::parse("day,conc\n0,10.5\n2,20.25\n");
  std::vector<double> conc = t.column_doubles("conc");
  ASSERT_EQ(conc.size(), 2u);
  EXPECT_DOUBLE_EQ(conc[1], 20.25);
  EXPECT_EQ(t.column_strings("day"), (std::vector<std::string>{"0", "2"}));
  EXPECT_DOUBLE_EQ(t.cell_double(0, "conc"), 10.5);
}

TEST(Csv, MissingColumnThrows) {
  ou::CsvTable t = ou::CsvTable::parse("a\n1\n");
  EXPECT_THROW(t.column_index("b"), ou::NotFound);
  EXPECT_FALSE(t.has_column("b"));
  EXPECT_TRUE(t.has_column("a"));
}

TEST(Csv, RaggedRowThrows) {
  ou::CsvTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ou::InvalidArgument);
  EXPECT_THROW(ou::CsvTable::parse("a,b\n1\n"), ou::InvalidArgument);
}

TEST(Csv, NonNumericCellThrows) {
  ou::CsvTable t = ou::CsvTable::parse("a\nnot-a-number\n");
  EXPECT_THROW(t.cell_double(0, "a"), ou::InvalidArgument);
}

TEST(Csv, EmptyDocumentThrows) {
  EXPECT_THROW(ou::CsvTable::parse(""), ou::InvalidArgument);
}

TEST(Csv, CrLfLineEndings) {
  ou::CsvTable t = ou::CsvTable::parse("a,b\r\n1,2\r\n");
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.cell(0, "b"), "2");
}

TEST(Csv, BlankLinesAreSkippedNotTheEndOfTheDocument) {
  const char* kTexts[] = {
      "day,conc\n0,1.5\n\n1,2.5\n2,3.5\n",          // mid-file
      "day,conc\r\n0,1.5\r\n\r\n1,2.5\r\n2,3.5\r\n",  // CRLF
      "day,conc\n0,1.5\n1,2.5\n2,3.5\n\n\n",        // trailing
  };
  for (const char* text : kTexts) {
    ou::CsvTable t = ou::CsvTable::parse(text);
    ASSERT_EQ(t.num_rows(), 3u) << text;
    EXPECT_EQ(t.column_doubles("conc"), (std::vector<double>{1.5, 2.5, 3.5}))
        << text;
  }
  EXPECT_THROW(ou::CsvTable::parse("\n\n"), ou::InvalidArgument);
}

TEST(Csv, EmptyFieldsPreserved) {
  ou::CsvTable t = ou::CsvTable::parse("a,b,c\n1,,3\n");
  EXPECT_EQ(t.cell(0, "b"), "");
}

// --- CsvWriter / parse_numeric_csv -----------------------------------------

namespace {

std::string printf_fixed(double v, int precision) {
  char buf[512];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string writer_fixed(double v, int precision) {
  ou::CsvWriter w;
  w.field(v, precision);
  return w.take();
}

}  // namespace

TEST(CsvWriter, NumbersMatchPrintfFixed) {
  // Exact decimal ties (round half to even in both), signed zeros,
  // values that round to zero, huge magnitudes and non-finite values.
  const double kEdge[] = {0.0, -0.0, 0.5, 1.5, 2.5, -2.5, 0.125, 0.375,
                          1e-7, -1e-7, 4.000005, 0.000015, 123456.5,
                          1e22, 1e300, -1.7976931348623157e308,
                          4.9406564584124654e-324, 1.0 / 3.0,
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()};
  for (double v : kEdge) {
    for (int p = 0; p <= 8; ++p) {
      EXPECT_EQ(writer_fixed(v, p), printf_fixed(v, p)) << v << " %." << p;
    }
  }
  // Random values across magnitudes, including R(t)-like draws.
  std::uint64_t x = 2024;
  for (int i = 0; i < 200000; ++i) {
    std::uint64_t bits = ou::splitmix64_next(x);
    double v = (ou::uniform01(bits) - 0.25) *
               std::pow(10.0, static_cast<int>(bits % 17) - 8);
    int p = static_cast<int>((bits >> 8) % 9);
    ASSERT_EQ(writer_fixed(v, p), printf_fixed(v, p)) << v << " %." << p;
  }
}

TEST(CsvWriter, RowsAndQuotingMatchCsvTable) {
  ou::CsvTable t({"name", "note", "n"});
  t.add_row({"O'Brien", "hello, world", "3"});
  t.add_row({"Y", "has \"quotes\"\nand a newline", "4"});
  ou::CsvWriter w;
  w.row({"name", "note", "n"});
  w.field("O'Brien").field("hello, world").field(std::size_t{3}).end_row();
  w.field("Y").field("has \"quotes\"\nand a newline").field(std::size_t{4});
  w.end_row();
  EXPECT_EQ(w.take(), t.to_string());
}

TEST(NumericCsv, ReadsTheSameDoublesAsStrtod) {
  std::string text = "a,b\n";
  std::vector<double> expect;
  std::uint64_t x = 7;
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t bits = ou::splitmix64_next(x);
    double v = (ou::uniform01(bits) - 0.5) *
               std::pow(10.0, static_cast<int>(bits % 21) - 10);
    char buf[64];
    std::snprintf(buf, sizeof buf, (i % 2) != 0 ? "%.17g" : "%.5f", v);
    text += buf;
    text += (i % 2) != 0 ? "\n" : ",";
    expect.push_back(std::strtod(buf, nullptr));
  }
  ou::NumericCsv csv = ou::parse_numeric_csv(text);
  ASSERT_EQ(csv.rows, 10000u);
  ASSERT_EQ(csv.values.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(std::memcmp(&csv.values[i], &expect[i], sizeof(double)), 0)
        << i;
  }
  EXPECT_EQ(csv.column("b").size(), 10000u);
  EXPECT_THROW(csv.column("c"), ou::NotFound);
}

TEST(NumericCsv, AcceptsCrLfAndMissingFinalNewline) {
  ou::NumericCsv csv = ou::parse_numeric_csv("\"x\",y\r\n1,2\r\n3,-4.5");
  EXPECT_EQ(csv.header, (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(csv.rows, 2u);
  EXPECT_EQ(csv.values, (std::vector<double>{1, 2, 3, -4.5}));
  EXPECT_EQ(ou::parse_numeric_csv("x,y\n").rows, 0u);
}

TEST(NumericCsv, StrictRejectsWhatStrtodWouldPassOrZero) {
  const char* kBad[] = {
      "x,y\n1,\n",         // empty cell
      "x,y\n1,abc\n",      // text
      "x,y\n1,2x\n",       // trailing garbage
      "x,y\n1, 2\n",       // leading space
      "x,y\n1,\"2\"\n",    // quoted number
      "x,y\n1\n",          // short row
      "x,y\n1,2,3\n",      // long row
      "x,y\n1,2\n\n",      // blank line
      "x,y\n1,2\n3,4\n5\n",  // ragged last row
  };
  for (const char* bad : kBad) {
    EXPECT_THROW(ou::parse_numeric_csv(bad), ou::InvalidArgument) << bad;
  }
  EXPECT_THROW(ou::parse_numeric_csv(""), ou::InvalidArgument);
  EXPECT_THROW(ou::parse_numeric_csv("\nx,y\n1,2\n"), ou::InvalidArgument);
  EXPECT_THROW(ou::parse_numeric_csv("x,y\n1,2\n\n3,4\n"),
               ou::InvalidArgument);
}
