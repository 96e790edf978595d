// Incremental reader of a growing trace CSV — "tail -f" for job streams.
//
// A producer (the cluster's accounting export, or examples/serve_replay's
// feeder thread) appends rows to a CSV file; CsvTailer::poll() hands back
// every complete line appended since the last poll, leaving a trailing
// partial line (no '\n' yet) unconsumed until its newline lands. The first
// poll also consumes the schema header row, so callers only ever see data
// rows — ready for trace::Trace::append_csv_row.
//
// The file is reopened on every poll rather than held open: the producer may
// rotate or recreate it between polls, and a resident server polls on a
// cadence that makes open() cost irrelevant.
#pragma once

#include <cstdint>
#include <string>

namespace helios::svc {

class CsvTailer {
 public:
  /// Tail `path`. The first complete non-blank line is consumed silently as
  /// the schema row.
  explicit CsvTailer(std::string path) : path_(std::move(path)) {}

  /// Every complete line ('\n'-terminated; a blank-line-only tail counts)
  /// appended since the last poll, header excluded. Empty when nothing new
  /// is ready or the file does not exist yet. Never blocks beyond one read.
  [[nodiscard]] std::string poll();

  /// Absolute file offset of the first unconsumed byte.
  [[nodiscard]] std::uint64_t offset() const noexcept { return offset_; }

  /// Bytes of data rows consumed so far (header excluded) — the quantity a
  /// checkpoint records (svc::PredictionServer::bytes_ingested).
  [[nodiscard]] std::uint64_t data_bytes() const noexcept {
    return data_bytes_;
  }

  /// Reposition as if `data_bytes` bytes of data rows had already been
  /// consumed — the checkpoint-restore path. Reads the file head to locate
  /// the end of the header; throws std::runtime_error when the file cannot
  /// be read or is shorter than the requested resume point.
  void resume_at_data_bytes(std::uint64_t data_bytes);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  bool header_consumed_ = false;
  std::uint64_t offset_ = 0;      // absolute; includes header bytes
  std::uint64_t data_bytes_ = 0;  // consumed minus header
};

}  // namespace helios::svc
