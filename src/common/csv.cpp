#include "common/csv.h"

#include <charconv>
#include <ostream>

namespace helios {

namespace {
bool needs_quoting(std::string_view s) {
  return s.find_first_of(",\"\n\r") != std::string_view::npos;
}

template <class Int>
std::string format_integer(Int v) {
  char buf[24];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, ptr) : std::string("0");
}
}  // namespace

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  bool first = true;
  for (const auto& f : fields) {
    if (!first) *out_ << ',';
    first = false;
    if (needs_quoting(f)) {
      *out_ << '"';
      for (char c : f) {
        if (c == '"') *out_ << '"';
        *out_ << c;
      }
      *out_ << '"';
    } else {
      *out_ << f;
    }
  }
  *out_ << '\n';
}

std::string CsvWriter::field(std::int64_t v) { return format_integer(v); }

std::string CsvWriter::field(std::uint64_t v) { return format_integer(v); }

std::vector<std::string> CsvReader::parse_line(std::string_view line) {
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  bool at_field_start = true;  // true until the field has any content
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"' && at_field_start) {
      // RFC 4180: a quote only opens a quoted field at the field start; a
      // stray quote mid-field is literal text and must not swallow the
      // delimiters after it.
      quoted = true;
      at_field_start = false;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
      at_field_start = true;
    } else if (c != '\r') {
      cur += c;
      at_field_start = false;
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

std::size_t CsvReader::header_end(std::string_view data) noexcept {
  std::size_t pos = 0;
  while (pos < data.size()) {
    const auto nl = data.find('\n', pos);
    if (nl == std::string_view::npos) return std::string_view::npos;
    const std::string_view line = data.substr(pos, nl - pos);
    pos = nl + 1;
    if (!is_blank_line(line)) return pos;  // consumed the header
  }
  return std::string_view::npos;
}

}  // namespace helios
