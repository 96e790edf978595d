// Parallel trace ingestion.
//
// The paper's analyses replay multi-month traces with millions of jobs;
// loading them from CSV dominated end-to-end figure reproduction time. The
// loader splits the input into line-aligned byte chunks, parses each chunk on
// helios::ThreadPool into a shard Trace with its own StringInterners, then
// merges shards in input order, remapping interned ids. Because shards are
// merged in order and new strings are interned in first-occurrence order, the
// result is byte-identical to Trace::load_csv — same job order, same ids.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/trace.h"

namespace helios::trace {

struct LoadOptions {
  /// Upper bound on parse concurrency and the chunk-count target.
  /// 0 means "size to the machine" (the global pool's thread count);
  /// 1 forces the serial path.
  std::size_t threads = 0;
  /// Chunks are never smaller than this, so tiny inputs parse serially
  /// instead of paying fan-out overhead.
  std::size_t min_chunk_bytes = 1 << 20;
  /// Stable-sort the merged trace by submit time (scheduler replay order).
  bool sort_by_submit_time = false;
};

class ParallelLoader {
 public:
  explicit ParallelLoader(LoadOptions opts = {}) : opts_(opts) {}

  /// Load a whole trace CSV (header row + records) held in memory.
  [[nodiscard]] Trace load(std::string_view csv, ClusterSpec cluster) const;

  /// Parse headerless CSV records: the body that load() parses after the
  /// header. A malformed row throws what Trace::append_csv_row throws.
  [[nodiscard]] Trace load_rows(std::string_view rows,
                                ClusterSpec cluster = {}) const;

  /// Slurps the stream, then parses in parallel.
  [[nodiscard]] Trace load(std::istream& in, ClusterSpec cluster) const;

  /// Reads the file in one shot, then parses in parallel.
  [[nodiscard]] Trace load_file(const std::string& path,
                                ClusterSpec cluster) const;

  /// Split `data` into up to `target_chunks` line-aligned [begin, end) byte
  /// ranges of at least `min_chunk_bytes` each: every range starts at a line
  /// start and ends just past a '\n' (or at data.size() for a final line
  /// with no trailing newline). Ranges are contiguous and cover all of
  /// `data`. Exposed for the chunk-boundary tests.
  [[nodiscard]] static std::vector<std::pair<std::size_t, std::size_t>>
  split_chunks(std::string_view data, std::size_t target_chunks,
               std::size_t min_chunk_bytes);

 private:
  LoadOptions opts_;
};

}  // namespace helios::trace
