#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>

#include "trace/parallel_loader.h"
#include "trace/trace.h"

namespace helios::trace {
namespace {

/// A trace whose string fields exercise the CSV quoting paths: embedded
/// commas, embedded quotes, and repeats that cross chunk boundaries.
Trace make_trace(std::size_t jobs) {
  ClusterSpec spec;
  spec.name = "T";
  spec.nodes = 4;
  Trace t(spec);
  const char* names[] = {"train_resnet", "tune,lr=0.1", "say\"what\"",
                         "extract", "plain"};
  const char* users[] = {"alice", "bob", "carol,jr", "dave"};
  const char* vcs[] = {"vcA", "vcB", "vcC"};
  for (std::size_t i = 0; i < jobs; ++i) {
    auto& j = t.add(static_cast<UnixTime>(1000 + (i * 37) % 5000),
                    static_cast<std::int32_t>(1 + i % 900),
                    static_cast<std::int32_t>(i % 9),
                    static_cast<std::int32_t>(1 + i % 48), users[i % 4],
                    vcs[i % 3], names[i % 5],
                    static_cast<JobState>(i % 3));
    j.start_time = j.submit_time + static_cast<std::int64_t>(i % 100);
  }
  return t;
}

std::string to_csv(const Trace& t) {
  std::ostringstream os;
  t.save_csv(os);
  return os.str();
}

std::string with_crlf(const std::string& lf) {
  std::string out;
  out.reserve(lf.size() + lf.size() / 16);
  for (char c : lf) {
    if (c == '\n') out += '\r';
    out += c;
  }
  return out;
}

void expect_identical(const Trace& a, const Trace& b) {
  EXPECT_TRUE(a.contents_equal(b));
  EXPECT_EQ(to_csv(a), to_csv(b));  // byte-identical round trip
}

// ---- chunk splitting -------------------------------------------------------

void check_chunks_cover_and_align(
    std::string_view data,
    const std::vector<std::pair<std::size_t, std::size_t>>& chunks) {
  std::size_t expected_lo = 0;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_EQ(lo, expected_lo);  // contiguous, no gaps or overlap
    EXPECT_LT(lo, hi);
    // Every chunk ends just past a '\n' or at end of input.
    if (hi < data.size()) EXPECT_EQ(data[hi - 1], '\n');
    expected_lo = hi;
  }
  EXPECT_EQ(expected_lo, data.size());  // full coverage
}

TEST(SplitChunks, LineAlignedAndContiguous) {
  std::string data;
  for (int i = 0; i < 100; ++i) data += "field1,field2,field3\n";
  const auto chunks = ParallelLoader::split_chunks(data, 8, 1);
  EXPECT_GT(chunks.size(), 1u);
  EXPECT_LE(chunks.size(), 8u);
  check_chunks_cover_and_align(data, chunks);
}

TEST(SplitChunks, NoTrailingNewline) {
  std::string data;
  for (int i = 0; i < 50; ++i) data += "a,b\n";
  data += "last,line";  // final line unterminated
  const auto chunks = ParallelLoader::split_chunks(data, 4, 1);
  check_chunks_cover_and_align(data, chunks);
  EXPECT_EQ(chunks.back().second, data.size());
}

TEST(SplitChunks, CrlfLineEndings) {
  std::string data;
  for (int i = 0; i < 64; ++i) data += "x,y,z\r\n";
  const auto chunks = ParallelLoader::split_chunks(data, 8, 1);
  EXPECT_GT(chunks.size(), 1u);
  check_chunks_cover_and_align(data, chunks);
  // CRLF boundaries still split past the '\n', never between '\r' and '\n'.
  for (const auto& [lo, hi] : chunks) {
    if (hi < data.size()) EXPECT_EQ(data.substr(hi - 2, 2), "\r\n");
  }
}

TEST(SplitChunks, QuotedFieldsDoNotConfuseByteSplitting) {
  // Quoted commas/quotes are irrelevant to splitting (the format has no
  // embedded newlines), but boundaries must still land on line ends.
  std::string data;
  for (int i = 0; i < 40; ++i) data += "\"a,b\",\"c\"\"d\",plain\n";
  const auto chunks = ParallelLoader::split_chunks(data, 8, 1);
  check_chunks_cover_and_align(data, chunks);
}

TEST(SplitChunks, SingleLineYieldsOneChunk) {
  const std::string data = "one single line with no newline";
  const auto chunks = ParallelLoader::split_chunks(data, 8, 1);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], (std::pair<std::size_t, std::size_t>{0, data.size()}));
}

TEST(SplitChunks, MinChunkBytesFloorsParallelism) {
  std::string data;
  for (int i = 0; i < 100; ++i) data += "a,b,c\n";
  const auto chunks =
      ParallelLoader::split_chunks(data, 8, /*min_chunk_bytes=*/1 << 20);
  EXPECT_EQ(chunks.size(), 1u);  // input far below the floor -> serial
}

TEST(SplitChunks, EmptyInput) {
  EXPECT_TRUE(ParallelLoader::split_chunks("", 8, 1).empty());
}

// ---- serial/parallel equivalence -------------------------------------------

Trace serial_load(const std::string& csv) {
  std::istringstream is(csv);
  return Trace::load_csv(is, ClusterSpec{});
}

Trace parallel_load(const std::string& csv, std::size_t threads) {
  LoadOptions opts;
  opts.threads = threads;
  opts.min_chunk_bytes = 1;  // force real chunking even on small inputs
  return ParallelLoader(opts).load(csv, ClusterSpec{});
}

TEST(ParallelLoader, MatchesSerialAcrossThreadCounts) {
  const std::string csv = to_csv(make_trace(1237));
  const Trace serial = serial_load(csv);
  ASSERT_EQ(serial.size(), 1237u);
  for (std::size_t threads : {1u, 2u, 8u}) {
    const Trace parallel = parallel_load(csv, threads);
    expect_identical(serial, parallel);
  }
}

TEST(ParallelLoader, CrlfInputMatchesLfInput) {
  const std::string lf = to_csv(make_trace(301));
  const std::string crlf = with_crlf(lf);
  const Trace from_lf = serial_load(lf);
  for (std::size_t threads : {1u, 2u, 8u}) {
    expect_identical(from_lf, parallel_load(crlf, threads));
  }
}

TEST(ParallelLoader, NoTrailingNewline) {
  std::string csv = to_csv(make_trace(97));
  ASSERT_EQ(csv.back(), '\n');
  csv.pop_back();
  const Trace serial = serial_load(csv);
  ASSERT_EQ(serial.size(), 97u);  // last row survives without its newline
  for (std::size_t threads : {1u, 2u, 8u}) {
    expect_identical(serial, parallel_load(csv, threads));
  }
}

TEST(ParallelLoader, BlankLinesAreSkipped) {
  const Trace base = make_trace(41);
  const std::string csv = to_csv(base);
  // Intersperse LF and CRLF blank lines between rows.
  std::string noisy;
  std::size_t line = 0;
  for (char c : csv) {
    noisy += c;
    if (c == '\n') {
      if (line % 3 == 0) noisy += "\n";
      if (line % 5 == 0) noisy += "\r\n";
      ++line;
    }
  }
  for (std::size_t threads : {1u, 2u, 8u}) {
    const Trace parallel = parallel_load(noisy, threads);
    EXPECT_EQ(parallel.size(), base.size());
    expect_identical(serial_load(csv), parallel);
  }
}

TEST(ParallelLoader, QuotedFieldsSurviveChunking) {
  // Every row carries quoted commas and escaped quotes; with
  // min_chunk_bytes=1 and 8 threads, many rows sit at chunk boundaries.
  const std::string csv = to_csv(make_trace(500));
  const Trace serial = serial_load(csv);
  const Trace parallel = parallel_load(csv, 8);
  expect_identical(serial, parallel);
  // Spot-check a quoted name actually round-tripped.
  bool saw_comma_name = false;
  for (const auto& j : parallel.jobs()) {
    if (parallel.job_name(j) == "tune,lr=0.1") saw_comma_name = true;
  }
  EXPECT_TRUE(saw_comma_name);
}

TEST(ParallelLoader, SortOptionMatchesSerialSort) {
  const std::string csv = to_csv(make_trace(512));
  Trace serial = serial_load(csv);
  serial.sort_by_submit_time();
  LoadOptions opts;
  opts.threads = 8;
  opts.min_chunk_bytes = 1;
  opts.sort_by_submit_time = true;
  const Trace parallel = ParallelLoader(opts).load(csv, ClusterSpec{});
  expect_identical(serial, parallel);
}

TEST(ParallelLoader, StreamAndStringAgree) {
  const std::string csv = to_csv(make_trace(64));
  std::istringstream is(csv);
  LoadOptions opts;
  opts.threads = 2;
  opts.min_chunk_bytes = 1;
  const ParallelLoader loader(opts);
  expect_identical(loader.load(is, ClusterSpec{}),
                   loader.load(csv, ClusterSpec{}));
}

TEST(ParallelLoader, HeaderOnlyInputIsEmpty) {
  const std::string csv =
      "job_id,submit_time,start_time,duration,num_gpus,num_cpus,user,vc,name,state\n";
  EXPECT_TRUE(ParallelLoader().load(csv, ClusterSpec{}).empty());
  EXPECT_TRUE(ParallelLoader().load(std::string_view{}, ClusterSpec{}).empty());
}

TEST(ParallelLoader, MalformedRowThrowsFromWorkerThreads) {
  std::string csv = to_csv(make_trace(200));
  csv += "not,a,valid,row\n";
  LoadOptions opts;
  opts.threads = 8;
  opts.min_chunk_bytes = 1;
  try {
    (void)ParallelLoader(opts).load(csv, ClusterSpec{});
    ADD_FAILURE() << "sharded load accepted a malformed row";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("expected 10 fields"),
              std::string::npos)
        << e.what();
  }
}

TEST(ParallelLoader, UnknownStateThrowsSerialAndSharded) {
  std::string csv = to_csv(make_trace(200));
  csv += "201,5,5,10,1,4,u,vc,n,BOGUS\n";
  // Sharded, the error is rethrown from a pool worker; the caller reads its
  // message as the serial path's.
  for (const std::size_t threads : {1u, 8u}) {
    LoadOptions opts;
    opts.threads = threads;
    opts.min_chunk_bytes = 1;
    try {
      (void)ParallelLoader(opts).load(csv, ClusterSpec{});
      ADD_FAILURE() << "accepted an unknown state at " << threads
                    << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("state"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ParallelLoader, MissingFileThrows) {
  EXPECT_THROW(ParallelLoader().load_file("/nonexistent/trace.csv",
                                          ClusterSpec{}),
               std::runtime_error);
}

// ---- csv edge cases the loader leans on ------------------------------------

TEST(CsvEdgeCases, EmptyFinalFieldIsPreserved) {
  Trace t;
  t.add(100, 5, 1, 4, "alice", "vcA", /*name=*/"", JobState::kCompleted);
  const std::string csv = to_csv(t);
  for (std::size_t threads : {1u, 2u}) {
    const Trace back = parallel_load(csv, threads);
    ASSERT_EQ(back.size(), 1u);
    // `name` is the 9th of 10 fields; also check a truly-final empty field
    // via the serial reference.
    EXPECT_EQ(back.job_name(back.jobs()[0]), "");
    expect_identical(serial_load(csv), back);
  }
}

TEST(CsvEdgeCases, WriterEscapedQuotesRoundTrip) {
  Trace t;
  t.add(100, 5, 1, 4, "ali\"ce", "vcA", "nam\"e", JobState::kCompleted);
  const std::string csv = to_csv(t);
  const Trace serial = serial_load(csv);
  ASSERT_EQ(serial.size(), 1u);
  EXPECT_EQ(serial.user_name(serial.jobs()[0]), "ali\"ce");
  EXPECT_EQ(serial.job_name(serial.jobs()[0]), "nam\"e");
  expect_identical(serial, parallel_load(csv, 2));
}

TEST(CsvEdgeCases, StrayQuoteMidFieldDoesNotSwallowDelimiters) {
  // Hand-written CSV (no writer would produce this): an unescaped quote in
  // the middle of an unquoted field is literal text per RFC 4180 and must
  // not put the parser into quoted mode, which would eat the delimiters.
  const std::string csv =
      "job_id,submit_time,start_time,duration,num_gpus,num_cpus,user,vc,name,state\n"
      "0,100,100,5,1,4,ali\"ce,vcA,nam\"e,completed\n";
  const Trace serial = serial_load(csv);
  ASSERT_EQ(serial.size(), 1u);
  EXPECT_EQ(serial.user_name(serial.jobs()[0]), "ali\"ce");
  EXPECT_EQ(serial.job_name(serial.jobs()[0]), "nam\"e");
  expect_identical(serial, parallel_load(csv, 2));
}

}  // namespace
}  // namespace helios::trace
