#include "util/csv.hpp"

#include <charconv>
#include <cstdlib>

#include "util/error.hpp"

namespace osprey::util {

CsvTable::CsvTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  OSPREY_REQUIRE(!header_.empty(), "CSV header must not be empty");
}

std::size_t CsvTable::column_index(const std::string& name) const {
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (header_[i] == name) return i;
  }
  throw NotFound("CSV column not found: " + name);
}

bool CsvTable::has_column(const std::string& name) const {
  for (const std::string& h : header_) {
    if (h == name) return true;
  }
  return false;
}

void CsvTable::add_row(std::vector<std::string> row) {
  OSPREY_REQUIRE(row.size() == header_.size(),
                 "CSV row width does not match header");
  rows_.push_back(std::move(row));
}

const std::vector<std::string>& CsvTable::row(std::size_t i) const {
  OSPREY_REQUIRE(i < rows_.size(), "CSV row index out of range");
  return rows_[i];
}

const std::string& CsvTable::cell(std::size_t row,
                                  const std::string& column) const {
  return this->row(row)[column_index(column)];
}

double CsvTable::cell_double(std::size_t row,
                             const std::string& column) const {
  const std::string& s = cell(row, column);
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  OSPREY_REQUIRE(end != s.c_str() && *end == '\0',
                 "CSV cell is not numeric: " + s);
  return v;
}

std::vector<double> CsvTable::column_doubles(const std::string& name) const {
  std::size_t col = column_index(name);
  std::vector<double> out;
  out.reserve(rows_.size());
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const std::string& s = rows_[r][col];
    char* end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    OSPREY_REQUIRE(end != s.c_str() && *end == '\0',
                   "CSV cell is not numeric: " + s);
    out.push_back(v);
  }
  return out;
}

std::vector<std::string> CsvTable::column_strings(
    const std::string& name) const {
  std::size_t col = column_index(name);
  std::vector<std::string> out;
  out.reserve(rows_.size());
  for (const auto& r : rows_) out.push_back(r[col]);
  return out;
}

namespace {

bool needs_quoting(std::string_view field) {
  return field.find_first_of(",\"\n\r") != std::string_view::npos;
}

/// Parse one logical CSV record starting at `pos`; handles quoted fields
/// containing commas/newlines. Returns false at end of input; a blank
/// line parses as a record with no fields.
bool parse_record(std::string_view text, std::size_t& pos,
                  std::vector<std::string>& fields) {
  fields.clear();
  if (pos >= text.size()) return false;
  std::string cur;
  bool in_quotes = false;
  bool saw_any = false;
  while (pos < text.size()) {
    char c = text[pos];
    if (in_quotes) {
      if (c == '"') {
        if (pos + 1 < text.size() && text[pos + 1] == '"') {
          cur += '"';
          pos += 2;
        } else {
          in_quotes = false;
          ++pos;
        }
      } else {
        cur += c;
        ++pos;
      }
      continue;
    }
    if (c == '"') {
      OSPREY_REQUIRE(cur.empty(), "quote in the middle of a CSV field");
      in_quotes = true;
      saw_any = true;
      ++pos;
    } else if (c == ',') {
      fields.push_back(cur);
      cur.clear();
      saw_any = true;
      ++pos;
    } else if (c == '\n' || c == '\r') {
      // Consume the line terminator (\n, \r, or \r\n).
      ++pos;
      if (c == '\r' && pos < text.size() && text[pos] == '\n') ++pos;
      break;
    } else {
      cur += c;
      saw_any = true;
      ++pos;
    }
  }
  OSPREY_REQUIRE(!in_quotes, "unterminated quoted CSV field");
  if (!saw_any && cur.empty() && fields.empty()) return true;  // blank
  fields.push_back(cur);
  return true;
}

}  // namespace

void CsvWriter::separate() {
  if (row_open_) out_ += ',';
  row_open_ = true;
}

CsvWriter& CsvWriter::field(std::string_view text) {
  separate();
  if (!needs_quoting(text)) {
    out_ += text;
    return *this;
  }
  out_ += '"';
  for (char c : text) {
    if (c == '"') out_ += '"';
    out_ += c;
  }
  out_ += '"';
  return *this;
}

CsvWriter& CsvWriter::field(double value, int precision) {
  OSPREY_REQUIRE(precision >= 0 && precision <= 64,
                 "CSV number precision must be in [0, 64]");
  separate();
  // The longest fixed rendering of a double: sign, 309 integer digits,
  // the point and the decimals.
  char buf[376];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value,
                                 std::chars_format::fixed, precision);
  out_.append(buf, ptr);
  return *this;
}

CsvWriter& CsvWriter::field(std::size_t value) {
  separate();
  char buf[24];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
  out_.append(buf, ptr);
  return *this;
}

CsvWriter& CsvWriter::end_row() {
  out_ += '\n';
  row_open_ = false;
  return *this;
}

CsvWriter& CsvWriter::row(const std::vector<std::string>& fields) {
  for (const std::string& f : fields) field(std::string_view(f));
  return end_row();
}

std::string CsvTable::to_string() const {
  CsvWriter out;
  out.row(header_);
  for (const auto& r : rows_) out.row(r);
  return out.take();
}

CsvTable CsvTable::parse(const std::string& text) {
  std::size_t pos = 0;
  std::vector<std::string> fields;
  // A blank line holds no record: skip it.
  auto next_record = [&] {
    while (parse_record(text, pos, fields)) {
      if (!fields.empty()) return true;
    }
    return false;
  };
  OSPREY_REQUIRE(next_record(), "empty CSV document");
  CsvTable table(fields);
  while (next_record()) table.add_row(fields);
  return table;
}

std::vector<double> NumericCsv::column(const std::string& name) const {
  const std::size_t cols = header.size();
  for (std::size_t c = 0; c < cols; ++c) {
    if (header[c] != name) continue;
    std::vector<double> out(rows);
    for (std::size_t r = 0; r < rows; ++r) out[r] = values[r * cols + c];
    return out;
  }
  throw NotFound("CSV column not found: " + name);
}

NumericCsv parse_numeric_csv(std::string_view text) {
  NumericCsv out;
  std::size_t pos = 0;
  OSPREY_REQUIRE(parse_record(text, pos, out.header) && !out.header.empty(),
                 "empty CSV document");
  const std::size_t cols = out.header.size();
  const char* p = text.data() + pos;
  const char* const end = text.data() + text.size();
  while (p != end) {
    for (std::size_t c = 0; c < cols; ++c) {
      // A cell is one number followed by ',' — or, in the last column,
      // by the line end.
      double v = 0.0;
      auto [next, ec] = std::from_chars(p, end, v);
      bool ok = ec == std::errc();
      if (ok && c + 1 < cols) {
        ok = next != end && *next++ == ',';
      } else if (ok) {
        if (next != end && *next == '\r') ++next;
        ok = next == end || *next++ == '\n';
      }
      if (!ok) {
        const char* stop = p;
        while (stop != end && *stop != ',' && *stop != '\n') ++stop;
        throw InvalidArgument("CSV data row " + std::to_string(out.rows + 1) +
                              ", column " + std::to_string(c + 1) +
                              ": not a number or a ragged row at '" +
                              std::string(p, stop) + "'");
      }
      out.values.push_back(v);
      p = next;
    }
    ++out.rows;
  }
  return out;
}

}  // namespace osprey::util
