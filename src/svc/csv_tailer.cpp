#include "svc/csv_tailer.h"

#include <fstream>
#include <stdexcept>

#include "common/csv.h"

namespace helios::svc {

namespace {

/// Bytes of `data` making up complete lines: through the last '\n', or 0
/// when none — the suffix past it is a partial line still being written.
std::size_t complete_prefix(const std::string& data) {
  const auto nl = data.rfind('\n');
  return nl == std::string::npos ? 0 : nl + 1;
}

}  // namespace

std::string CsvTailer::poll() {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return {};  // not created yet (or rotated away mid-poll)
  in.seekg(static_cast<std::streamoff>(offset_));
  if (!in) return {};
  std::string block((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  block.resize(complete_prefix(block));
  if (block.empty()) return {};

  if (!header_consumed_) {
    const std::size_t data_start = CsvReader::header_end(block);
    if (data_start == std::string::npos) {
      // Only (part of) the header is complete so far; consume nothing and
      // wait for the first data row's newline.
      return {};
    }
    header_consumed_ = true;
    offset_ += data_start;
    block.erase(0, data_start);
  }
  offset_ += block.size();
  data_bytes_ += block.size();
  return block;
}

void CsvTailer::resume_at_data_bytes(std::uint64_t data_bytes) {
  std::ifstream in(path_, std::ios::binary);
  if (!in) throw std::runtime_error("CsvTailer: cannot open " + path_);
  const std::string head((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::size_t data_start = CsvReader::header_end(head);
  if (data_start == std::string::npos ||
      head.size() < data_start + data_bytes) {
    throw std::runtime_error("CsvTailer: " + path_ +
                             " is shorter than the resume point");
  }
  header_consumed_ = true;
  offset_ = data_start + data_bytes;
  data_bytes_ = data_bytes;
}

}  // namespace helios::svc
