#include "serialize/binary.h"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>

namespace helios::serialize {

std::string_view to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kIo: return "io";
    case ErrorCode::kBadMagic: return "bad-magic";
    case ErrorCode::kUnsupportedVersion: return "unsupported-version";
    case ErrorCode::kTruncated: return "truncated";
    case ErrorCode::kBadSection: return "bad-section";
    case ErrorCode::kCrcMismatch: return "crc-mismatch";
    case ErrorCode::kCorrupt: return "corrupt";
  }
  return "unknown";
}

Error::Error(ErrorCode code, const std::string& message)
    : std::runtime_error("serialize [" + std::string(to_string(code)) + "]: " +
                         message),
      code_(code) {}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 reflected polynomial, the zlib/PNG convention)
// ---------------------------------------------------------------------------

namespace {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr auto kCrcTable = make_crc_table();

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
  std::uint32_t c = 0xffffffffu;
  for (const std::uint8_t b : data) {
    c = kCrcTable[(c ^ b) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::bytes(std::span<const std::uint8_t> v) {
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void Writer::str(std::string_view s) {
  u64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::vec_f64(std::span<const double> v) {
  u64(v.size());
  for (const double x : v) f64(x);
}

void Writer::vec_i32(std::span<const std::int32_t> v) {
  u64(v.size());
  for (const std::int32_t x : v) i32(x);
}

void Writer::vec_u64(std::span<const std::uint64_t> v) {
  u64(v.size());
  for (const std::uint64_t x : v) u64(x);
}

void Writer::begin_section(std::uint32_t tag) {
  u32(tag);
  open_.push_back(buf_.size());
  u64(0);  // length placeholder
}

void Writer::end_section() {
  const std::size_t at = open_.back();
  open_.pop_back();
  const std::uint64_t len = buf_.size() - (at + 8);
  for (int i = 0; i < 8; ++i) {
    buf_[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (8 * i));
  }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

void Reader::need(std::size_t n) const {
  if (remaining() < n) {
    throw Error(ErrorCode::kTruncated,
                "need " + std::to_string(n) + " bytes, have " +
                    std::to_string(remaining()));
  }
}

std::uint8_t Reader::u8() {
  need(1);
  return *p_++;
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p_[i]) << (8 * i);
  p_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p_[i]) << (8 * i);
  p_ += 8;
  return v;
}

double Reader::f64() { return std::bit_cast<double>(u64()); }

std::size_t Reader::length(std::size_t min_elem_size) {
  const std::uint64_t n = u64();
  const std::size_t cap =
      remaining() / (min_elem_size == 0 ? std::size_t{1} : min_elem_size);
  if (n > cap) {
    throw Error(ErrorCode::kTruncated,
                "declared count " + std::to_string(n) +
                    " exceeds remaining payload");
  }
  return static_cast<std::size_t>(n);
}

std::string Reader::str() {
  const std::size_t n = length(1);
  std::string s(reinterpret_cast<const char*>(p_), n);
  p_ += n;
  return s;
}

std::vector<double> Reader::vec_f64() {
  const std::size_t n = length(8);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = f64();
  return v;
}

std::vector<std::int32_t> Reader::vec_i32() {
  const std::size_t n = length(4);
  std::vector<std::int32_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i32();
  return v;
}

std::vector<std::uint64_t> Reader::vec_u64() {
  const std::size_t n = length(8);
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = u64();
  return v;
}

Reader Reader::section(std::uint32_t expected_tag) {
  const std::uint32_t tag = u32();
  if (tag != expected_tag) {
    throw Error(ErrorCode::kBadSection,
                "expected section tag " + std::to_string(expected_tag) +
                    ", found " + std::to_string(tag));
  }
  const std::uint64_t len = u64();
  need(static_cast<std::size_t>(len));
  Reader sub(std::span<const std::uint8_t>(p_, static_cast<std::size_t>(len)));
  p_ += len;
  return sub;
}

void Reader::close(std::string_view what) const {
  if (remaining() != 0) {
    throw Error(ErrorCode::kCorrupt,
                std::string(what) + ": " + std::to_string(remaining()) +
                    " trailing bytes");
  }
}

// ---------------------------------------------------------------------------
// Frame
// ---------------------------------------------------------------------------

namespace {
constexpr std::size_t kHeaderSize = 8 + 4 + 4;  // magic + version + flags
constexpr std::size_t kTrailerSize = 4;         // crc32
}  // namespace

std::vector<std::uint8_t> frame(const Writer& body) {
  Writer out;
  out.bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kMagic), sizeof(kMagic)));
  out.u32(kFormatVersion);
  out.u32(0);  // flags
  out.bytes(body.buffer());
  const std::uint32_t crc = crc32(out.buffer());
  Writer full = std::move(out);
  full.u32(crc);
  return full.buffer();
}

std::vector<std::uint8_t> unframe(std::span<const std::uint8_t> file) {
  if (file.size() < kHeaderSize + kTrailerSize) {
    throw Error(ErrorCode::kTruncated,
                "frame of " + std::to_string(file.size()) +
                    " bytes is smaller than header + trailer");
  }
  if (std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    throw Error(ErrorCode::kBadMagic, "not a helios model file");
  }
  // CRC before version: a corrupted version field should be reported as
  // corruption, not as a file from the future.
  const std::size_t body_end = file.size() - kTrailerSize;
  Reader trailer(file.subspan(body_end));
  const std::uint32_t stored = trailer.u32();
  const std::uint32_t actual = crc32(file.first(body_end));
  if (stored != actual) {
    throw Error(ErrorCode::kCrcMismatch,
                "stored crc " + std::to_string(stored) + " != computed " +
                    std::to_string(actual));
  }
  Reader header(file.subspan(sizeof(kMagic), 8));
  const std::uint32_t version = header.u32();
  if (version > kFormatVersion) {
    throw Error(ErrorCode::kUnsupportedVersion,
                "file format version " + std::to_string(version) +
                    " is newer than supported " +
                    std::to_string(kFormatVersion));
  }
  const auto body = file.subspan(kHeaderSize, body_end - kHeaderSize);
  return {body.begin(), body.end()};
}

void write_file(const std::string& path, const Writer& body) {
  const std::vector<std::uint8_t> out = frame(body);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw Error(ErrorCode::kIo, "cannot open " + path + " for writing");
  }
  const std::size_t written = std::fwrite(out.data(), 1, out.size(), f);
  const int rc = std::fclose(f);
  if (written != out.size() || rc != 0) {
    throw Error(ErrorCode::kIo, "short write to " + path);
  }
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw Error(ErrorCode::kIo, "cannot open " + path + " for reading");
  }
  std::vector<std::uint8_t> data;
  std::uint8_t buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.insert(data.end(), buf, buf + got);
  }
  const bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) throw Error(ErrorCode::kIo, "read error on " + path);
  return unframe(data);
}

}  // namespace helios::serialize
