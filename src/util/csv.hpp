#pragma once

/// \file csv.hpp
/// In-memory CSV reading/writing. Wastewater surveillance payloads and
/// tabular model outputs travel between simulated endpoints as CSV blobs,
/// mirroring the tabular files exchanged in the paper's workflow.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace osprey::util {

/// A parsed CSV document: one header row plus data rows of equal width.
class CsvTable {
 public:
  CsvTable() = default;
  explicit CsvTable(std::vector<std::string> header);

  const std::vector<std::string>& header() const { return header_; }
  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_cols() const { return header_.size(); }

  /// Index of a named column; throws NotFound when absent.
  std::size_t column_index(const std::string& name) const;
  bool has_column(const std::string& name) const;

  void add_row(std::vector<std::string> row);
  const std::vector<std::string>& row(std::size_t i) const;

  /// Field accessors by (row, column-name).
  const std::string& cell(std::size_t row, const std::string& column) const;
  double cell_double(std::size_t row, const std::string& column) const;

  /// Whole column as doubles.
  std::vector<double> column_doubles(const std::string& name) const;
  std::vector<std::string> column_strings(const std::string& name) const;

  /// Serialize with RFC-4180-style quoting when needed.
  std::string to_string() const;
  /// Parse; throws InvalidArgument on ragged rows or bad quoting.
  static CsvTable parse(const std::string& text);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Builds a CSV document by appending fields; the one quoting
/// implementation (CsvTable::to_string writes through it too). Numbers
/// are formatted straight into the output with std::to_chars, which
/// gives the bytes printf("%.<precision>f") gives.
class CsvWriter {
 public:
  /// Append a text field, RFC-4180-quoted when it holds a comma, quote
  /// or line break.
  CsvWriter& field(std::string_view text);
  /// Append `value` in fixed notation with `precision` decimals.
  CsvWriter& field(double value, int precision);
  /// Append an unsigned integer.
  CsvWriter& field(std::size_t value);
  /// Terminate the current record.
  CsvWriter& end_row();
  /// Append a whole record of text fields.
  CsvWriter& row(const std::vector<std::string>& fields);

  /// Move the document out.
  std::string take() { return std::move(out_); }

 private:
  void separate();

  std::string out_;
  bool row_open_ = false;
};

/// A CSV document whose data cells are all numbers: the header plus a
/// row-major matrix of values.
struct NumericCsv {
  std::vector<std::string> header;
  std::size_t rows = 0;
  std::vector<double> values;  // rows x header.size(), row-major

  /// Whole column by header name; throws NotFound when absent.
  std::vector<double> column(const std::string& name) const;
};

/// Strict numeric reader: every data cell must be one whole number as
/// std::from_chars reads it (the same double strtod gives for it), and
/// every row must be as wide as the header. An empty, quoted or partly
/// numeric cell, or a ragged row, throws InvalidArgument — nothing is
/// read as 0. Data lines end in \n or \r\n; the header may be quoted.
NumericCsv parse_numeric_csv(std::string_view text);

}  // namespace osprey::util
