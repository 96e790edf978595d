#include "common/csv.h"

#include <algorithm>
#include <charconv>
#include <ostream>

namespace helios {

namespace {
bool needs_quoting(std::string_view s) {
  // One pass with a per-byte test: find_first_of would scan the four-byte
  // set once per byte of `s`.
  return std::any_of(s.begin(), s.end(), [](char c) {
    return c == ',' || c == '"' || c == '\n' || c == '\r';
  });
}

template <class Int>
void append_decimal(std::string& out, Int v) {
  char buf[24];  // any 64-bit integer fits: 20 digits and a sign
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}
}  // namespace

void CsvWriter::append_field(std::string& out, std::string_view f) {
  if (!needs_quoting(f)) {
    out += f;
    return;
  }
  out += '"';
  for (const char c : f) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

void CsvWriter::append_integer(std::string& out, std::int64_t v) {
  append_decimal(out, v);
}

void CsvWriter::append_integer(std::string& out, std::uint64_t v) {
  append_decimal(out, v);
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  std::string row;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) row += ',';
    append_field(row, fields[i]);
  }
  row += '\n';
  *out_ << row;
}

std::string CsvWriter::field(std::int64_t v) {
  std::string out;
  append_integer(out, v);
  return out;
}

std::string CsvWriter::field(std::uint64_t v) {
  std::string out;
  append_integer(out, v);
  return out;
}

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
