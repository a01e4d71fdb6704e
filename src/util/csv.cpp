#include "util/csv.h"

#include <charconv>
#include <cmath>

#include "util/logging.h"

namespace flare {

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header) {
  out_.open(path);
  columns_ = header.size();
  if (!out_.is_open()) {
    FLOG_WARN << "CsvWriter: could not open " << path
              << "; CSV output disabled";
    return;
  }
  RawRow(header);
}

void CsvWriter::Row(const std::vector<double>& values) {
  if (!out_.is_open()) return;
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (double v : values) cells.push_back(FormatNumber(v));
  RawRow(cells);
}

void CsvWriter::Row(std::initializer_list<double> values) {
  Row(std::vector<double>(values));
}

void CsvWriter::RawRow(const std::vector<std::string>& cells) {
  if (!out_.is_open()) return;
  if (columns_ != 0 && cells.size() != columns_) {
    FLOG_WARN << "CsvWriter: row width " << cells.size()
              << " does not match header width " << columns_;
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << CsvField(cells[i]);
  }
  out_ << '\n';
}

std::string FormatNumber(double value) {
  std::string out;
  AppendNumber(value, &out);
  return out;
}

void AppendNumber(double value, std::string* out) {
  char buf[32];  // "-1.23457e-308" is the longest
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value,
                                 std::chars_format::general, 6)
                       .ptr);
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  return FormatNumber(value);
}

std::string CsvField(const std::string& value) {
  if (value.find_first_of(",\"\r\n") == std::string::npos) return value;
  std::string quoted;
  quoted.reserve(value.size() + 2);
  quoted.push_back('"');
  for (char c : value) {
    if (c == '"') quoted.push_back('"');
    quoted.push_back(c);
  }
  quoted.push_back('"');
  return quoted;
}

}  // namespace flare
