#include "trace/parallel_loader.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/csv.h"
#include "common/thread_pool.h"

namespace helios::trace {

namespace {

/// Calls fn(line) for every line of `data`, excluding the '\n' terminator
/// (a final line without one is still delivered).
template <typename Fn>
void for_each_line(std::string_view data, Fn&& fn) {
  std::size_t lo = 0;
  while (lo < data.size()) {
    const auto nl = data.find('\n', lo);
    const auto hi = nl == std::string_view::npos ? data.size() : nl;
    fn(data.substr(lo, hi - lo));
    lo = nl == std::string_view::npos ? data.size() : nl + 1;
  }
}

}  // namespace

std::vector<std::pair<std::size_t, std::size_t>> ParallelLoader::split_chunks(
    std::string_view data, std::size_t target_chunks,
    std::size_t min_chunk_bytes) {
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  if (data.empty()) return chunks;
  target_chunks = std::max<std::size_t>(1, target_chunks);
  min_chunk_bytes = std::max<std::size_t>(1, min_chunk_bytes);
  const std::size_t target = std::max(
      min_chunk_bytes, (data.size() + target_chunks - 1) / target_chunks);
  std::size_t lo = 0;
  while (lo < data.size()) {
    const std::size_t candidate = lo + target;
    std::size_t hi;
    if (candidate >= data.size()) {
      hi = data.size();
    } else {
      // Extend to just past the next newline so no line straddles chunks.
      // find from candidate-1 keeps an already-aligned boundary in place.
      const auto nl = data.find('\n', candidate - 1);
      hi = nl == std::string_view::npos ? data.size() : nl + 1;
    }
    chunks.emplace_back(lo, hi);
    lo = hi;
  }
  return chunks;
}

Trace ParallelLoader::load(std::string_view csv, ClusterSpec cluster) const {
  // A header with no newline after it (or no header at all) leaves no rows.
  const std::size_t rows = CsvReader::header_end(csv);
  return load_rows(rows == std::string_view::npos ? std::string_view{}
                                                  : csv.substr(rows),
                   std::move(cluster));
}

Trace ParallelLoader::load_rows(std::string_view rows,
                                ClusterSpec cluster) const {
  Trace out(std::move(cluster));
  const std::size_t threads =
      opts_.threads != 0 ? opts_.threads : global_pool().thread_count();
  const auto chunks = split_chunks(rows, threads, opts_.min_chunk_bytes);

  if (threads <= 1 || chunks.size() <= 1) {
    for_each_line(rows, [&out](std::string_view line) {
      out.append_csv_row(line);
    });
  } else {
    // Parse each chunk into a shard with its own interners, then merge in
    // input order. Ids come out identical to a serial load (see header).
    std::vector<Trace> shards(chunks.size());
    parallel_run_chunks(chunks, [&shards, rows](std::size_t c, std::size_t lo,
                                                std::size_t hi) {
      Trace& shard = shards[c];
      for_each_line(rows.substr(lo, hi - lo), [&shard](std::string_view line) {
        shard.append_csv_row(line);
      });
    });
    // One allocation for the merged jobs: append() alone grows
    // geometrically.
    std::size_t total = 0;
    for (const auto& shard : shards) total += shard.size();
    out.jobs().reserve(total);
    for (const auto& shard : shards) out.append(shard);
  }

  if (opts_.sort_by_submit_time) out.sort_by_submit_time();
  return out;
}

Trace ParallelLoader::load(std::istream& in, ClusterSpec cluster) const {
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string data = std::move(buf).str();
  return load(std::string_view(data), std::move(cluster));
}

Trace ParallelLoader::load_file(const std::string& path,
                                ClusterSpec cluster) const {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("ParallelLoader: cannot open " + path);
  in.seekg(0, std::ios::end);
  const auto size = in.tellg();
  if (size < 0) {  // not seekable (pipe, device): fall back to stream slurp
    in.clear();
    in.seekg(0, std::ios::beg);
    return load(in, std::move(cluster));
  }
  in.seekg(0, std::ios::beg);
  std::string data(static_cast<std::size_t>(size), '\0');
  in.read(data.data(), static_cast<std::streamsize>(data.size()));
  if (static_cast<std::size_t>(in.gcount()) != data.size()) {
    throw std::runtime_error("ParallelLoader: short read on " + path);
  }
  return load(std::string_view(data), std::move(cluster));
}

}  // namespace helios::trace
