// Small CSV reader/writer (RFC-4180 quoting) used for trace import/export and
// for dumping bench series that downstream plotting scripts can consume.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace helios {

class CsvWriter {
 public:
  /// Writes to an externally owned stream; the stream must outlive the writer.
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  /// Write one row; fields are quoted only when needed.
  void write_row(const std::vector<std::string>& fields);

  /// Convenience: format an integer column.
  static std::string field(std::int64_t v);

 private:
  std::ostream* out_;
};

class CsvReader {
 public:
  /// Parse one CSV line into fields (handles quoted fields with embedded
  /// commas/quotes; does not handle embedded newlines, which the trace format
  /// never produces). Quotes open a quoted field only at the field start
  /// (RFC 4180); mid-field quotes are literal text.
  static std::vector<std::string> parse_line(std::string_view line);

  /// True for lines every reader skips: empty, or the lone '\r' that
  /// std::getline / byte-chunked iteration leave behind on blank lines of
  /// CRLF input. The single definition keeps the serial and parallel trace
  /// loaders agreeing on what a blank line is.
  [[nodiscard]] static bool is_blank_line(std::string_view line) noexcept {
    return line.empty() || (line.size() == 1 && line[0] == '\r');
  }
};

}  // namespace helios
