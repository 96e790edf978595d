// Versioned, endian-stable binary persistence layer (see docs/FORMATS.md).
//
// Every model file is one frame:
//
//   magic "HELIOSMF" (8 bytes)
//   u32   format version (kFormatVersion; readers reject newer files)
//   u32   flags (reserved, 0)
//   ...   body: section-tagged chunks written by the model's save()
//   u32   CRC32 of every preceding byte
//
// All integers are little-endian regardless of host; doubles travel as the
// IEEE-754 bit pattern (std::bit_cast), so a loaded model predicts
// bit-identically to the saved one on any supported platform. Sections are
// (u32 fourcc tag, u64 payload length, payload) triples and may nest; a
// reader materializes a section as a bounds-limited sub-Reader, so a length
// that lies about its payload cannot walk past the buffer.
//
// Error handling contract: malformed input of any kind — short reads, wrong
// magic, future versions, tag mismatches, CRC failures, or values a model
// refuses to adopt — throws serialize::Error with a machine-checkable
// ErrorCode. No API here (or in any model's load()) exhibits UB on corrupt
// bytes; loads either succeed completely or throw without mutating partial
// state into a usable-looking model.
//
// Thread-safety: Writer and Reader are single-threaded values; distinct
// instances are independent. The free functions are reentrant.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace helios::serialize {

/// Current frame format version. Bump only for layout changes a version-1
/// reader cannot skip; add trailing section fields for compatible growth
/// (readers must ignore unread trailing bytes only via explicit opt-in —
/// the default Reader::close() rejects them, catching writer/reader drift).
inline constexpr std::uint32_t kFormatVersion = 1;

/// Frame magic, first 8 bytes of every model file.
inline constexpr char kMagic[8] = {'H', 'E', 'L', 'I', 'O', 'S', 'M', 'F'};

enum class ErrorCode : std::uint8_t {
  kIo,                  ///< file open/read/write failed
  kBadMagic,            ///< frame does not start with kMagic
  kUnsupportedVersion,  ///< frame written by a newer format version
  kTruncated,           ///< a read ran past the end of the buffer
  kBadSection,          ///< section tag differs from the expected one
  kCrcMismatch,         ///< CRC32 trailer does not match the frame contents
  kCorrupt,             ///< bytes decode but violate a model invariant
};

[[nodiscard]] std::string_view to_string(ErrorCode code) noexcept;

/// The one exception type of the persistence layer.
class Error : public std::runtime_error {
 public:
  Error(ErrorCode code, const std::string& message);
  [[nodiscard]] ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

/// Section tag from a 4-character literal, e.g. fourcc("GBDT").
constexpr std::uint32_t fourcc(const char (&s)[5]) noexcept {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[3])) << 24;
}

[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept;

/// Appends little-endian primitives and tagged sections to a growable buffer.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void bytes(std::span<const std::uint8_t> v);
  /// u64 length + raw bytes.
  void str(std::string_view s);
  void vec_f64(std::span<const double> v);
  void vec_i32(std::span<const std::int32_t> v);
  void vec_u64(std::span<const std::uint64_t> v);

  /// Open a (nestable) section: tag + u64 length placeholder, patched by the
  /// matching end_section().
  void begin_section(std::uint32_t tag);
  void end_section();

  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const noexcept {
    return buf_;
  }

 private:
  std::vector<std::uint8_t> buf_;
  std::vector<std::size_t> open_;  // offsets of unpatched length fields
};

/// Bounds-checked cursor over a byte span. Every read throws
/// Error(kTruncated) instead of walking out of range; section() returns a
/// sub-Reader limited to the section payload.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data)
      : p_(data.data()), end_(data.data() + data.size()) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  [[nodiscard]] std::vector<double> vec_f64();
  [[nodiscard]] std::vector<std::int32_t> vec_i32();
  [[nodiscard]] std::vector<std::uint64_t> vec_u64();

  /// Enter the next section; throws kBadSection when its tag is not
  /// `expected_tag`, kTruncated when its declared length overruns the buffer.
  [[nodiscard]] Reader section(std::uint32_t expected_tag);

  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - p_);
  }
  /// Assert the reader is exhausted; `what` names the section for the error
  /// message. Catches writer/reader layout drift (trailing unread bytes).
  void close(std::string_view what) const;

  /// u64 element count, validated against the remaining bytes assuming at
  /// least `min_elem_size` bytes per element — rejects absurd counts before
  /// any allocation.
  [[nodiscard]] std::size_t length(std::size_t min_elem_size);

 private:
  void need(std::size_t n) const;

  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

/// Wrap a body in the magic/version/CRC frame.
[[nodiscard]] std::vector<std::uint8_t> frame(const Writer& body);

/// Validate a frame (magic, version, CRC) and return its body bytes.
[[nodiscard]] std::vector<std::uint8_t> unframe(
    std::span<const std::uint8_t> file);

/// frame() + write to `path`; throws Error(kIo) on filesystem failure.
void write_file(const std::string& path, const Writer& body);

/// Read `path` + unframe(); throws Error on any I/O or validation failure.
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path);

/// The one spelling for file-level model persistence: persist any model with
/// a `save(Writer&) const` member as a single-section frame at `path`.
/// Every serializable type in the library (ml::, core::, svc::) pairs with
/// load_file below; forecast::Forecaster, being polymorphic, keeps its
/// save_forecaster/load_forecaster free functions for the in-frame type tag
/// but a concrete forecaster's state still round-trips through here.
/// Throws Error(kIo) on filesystem failure.
template <class T>
void save_file(const std::string& path, const T& model) {
  Writer w;
  model.save(w);
  write_file(path, w);
}

/// Restore a model persisted by save_file into `out` (in-place overload for
/// types without a default constructor, e.g. a svc::PredictionServer that
/// needs its trace context first). Validates the frame, delegates to
/// `out.load(Reader&)`, and rejects trailing bytes after the model's
/// section. Throws Error on any I/O, validation, or decode failure; `out`
/// is unchanged when the model's load() honours its all-or-nothing contract.
template <class T>
void load_file(const std::string& path, T& out) {
  const std::vector<std::uint8_t> body = read_file(path);
  Reader r(body);
  out.load(r);
  r.close(path);
}

/// Value-returning variant for default-constructible model types:
/// `auto m = serialize::load_file<ml::GBDTRegressor>(path);`.
template <class T>
[[nodiscard]] T load_file(const std::string& path) {
  T out;
  load_file(path, out);
  return out;
}

}  // namespace helios::serialize
