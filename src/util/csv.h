// CSV writer used by benches to dump the series behind each paper figure so
// they can be re-plotted, alongside the human-readable rows printed to
// stdout, and the number text helpers the CSV cells and the key=value wire
// codecs share.
#pragma once

#include <cstring>
#include <fstream>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace flare {

class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row. The writer is
  /// "disarmed" (all writes are no-ops) if the file cannot be opened, so
  /// benches still run in read-only environments.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  bool ok() const { return out_.is_open(); }

  void Row(const std::vector<double>& values);
  void Row(std::initializer_list<double> values);
  /// Mixed row: string cells are written verbatim.
  void RawRow(const std::vector<std::string>& cells);

 private:
  std::ofstream out_;
  std::size_t columns_ = 0;
};

/// Formats a double compactly (up to 6 significant digits, no trailing
/// zeros) for both CSV cells and table printing: printf's "%.6g" bytes.
std::string FormatNumber(double value);
/// FormatNumber appended to `out`, with no temporary string. Written with
/// std::to_chars(general, 6), which the standard defines as "%.6g".
void AppendNumber(double value, std::string* out);

/// Calls `parse` with a NUL-terminated copy of `text`, the form strtod and
/// its kin read. The copy lives on the stack unless `text` is long, so
/// parsing a field of a wire takes no allocation; embedded NULs end the C
/// string, as they do for std::string::c_str().
template <typename Parse>
auto WithCString(std::string_view text, Parse parse) {
  char stack[64];
  if (text.size() < sizeof(stack)) {
    std::memcpy(stack, text.data(), text.size());
    stack[text.size()] = '\0';
    return parse(static_cast<const char*>(stack));
  }
  const std::string heap(text);
  return parse(heap.c_str());
}

/// FormatNumber for JSON contexts: NaN/Inf have no JSON encoding ("%.6g"
/// would emit `nan`, corrupting the document), so non-finite values render
/// as `null`.
std::string JsonNumber(double value);

/// RFC-4180 field escaping: returns `value` unchanged unless it contains
/// a comma, double quote, CR or LF, in which case the field is wrapped in
/// double quotes with embedded quotes doubled.
std::string CsvField(const std::string& value);

}  // namespace flare
