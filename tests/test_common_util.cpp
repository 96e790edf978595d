#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <latch>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/csv.h"
#include "common/env.h"
#include "common/flat_u64_set.h"
#include "common/interner.h"
#include "common/simd.h"
#include "common/text_table.h"
#include "common/thread_pool.h"

namespace helios {
namespace {

TEST(Interner, DenseIdsAndRoundTrip) {
  StringInterner in;
  EXPECT_EQ(in.intern("alpha"), 0u);
  EXPECT_EQ(in.intern("beta"), 1u);
  EXPECT_EQ(in.intern("alpha"), 0u);
  EXPECT_EQ(in.size(), 2u);
  EXPECT_EQ(in.str(0), "alpha");
  EXPECT_EQ(in.find("beta"), 1u);
  EXPECT_EQ(in.find("gamma"), StringInterner::kNotFound);
}

TEST(Csv, QuotedRoundTrip) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row({"plain", "with,comma", "with\"quote", "with\nnewline"});
  const std::string line = os.str();
  EXPECT_EQ(line,
            "plain,\"with,comma\",\"with\"\"quote\",\"with\nnewline\"\n");
  // Parse the single physical line produced for the first three fields.
  const auto fields =
      CsvReader::parse_line("plain,\"with,comma\",\"with\"\"quote\"");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "plain");
  EXPECT_EQ(fields[1], "with,comma");
  EXPECT_EQ(fields[2], "with\"quote");
}

TEST(Csv, NumericFieldsRoundTrip) {
  EXPECT_EQ(CsvWriter::field(static_cast<std::int64_t>(-42)), "-42");
  EXPECT_EQ(CsvWriter::field(std::numeric_limits<std::int64_t>::min()),
            "-9223372036854775808");
  EXPECT_EQ(CsvWriter::field(std::numeric_limits<std::uint64_t>::max()),
            "18446744073709551615");
}

TEST(Csv, BlankLineIsEmptyOrLoneCarriageReturn) {
  EXPECT_TRUE(CsvReader::is_blank_line(""));
  EXPECT_TRUE(CsvReader::is_blank_line("\r"));  // blank line of CRLF input
  EXPECT_FALSE(CsvReader::is_blank_line(" "));
  EXPECT_FALSE(CsvReader::is_blank_line("a,b\r"));
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2"});
  const std::string s = t.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, NumericCells) {
  EXPECT_EQ(TextTable::cell(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::cell(static_cast<std::int64_t>(42)), "42");
  EXPECT_EQ(TextTable::cell_grouped(1753000), "1,753,000");
  EXPECT_EQ(TextTable::cell_grouped(-1234), "-1,234");
  EXPECT_EQ(TextTable::cell_pct(0.821), "82.1%");
}

TEST(ThreadPool, ParallelForCoversRange) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; }, 10);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForChunksPartition) {
  std::atomic<std::size_t> total{0};
  parallel_for_chunks(
      5, 1005,
      [&](std::size_t lo, std::size_t hi) { total += hi - lo; }, 8);
  EXPECT_EQ(total.load(), 1000u);
}

TEST(ThreadPool, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(0, 100, [](std::size_t i) {
        if (i == 57) throw std::runtime_error("boom");
      }, 1),
      std::runtime_error);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  parallel_for(10, 10, [](std::size_t) { FAIL(); });
}

// More tasks than pool threads, and the first task each participant (every
// worker plus the caller) claims parks on a latch until all of them hold
// one. So every nested parallel_for below starts while no worker is free:
// it finishes only if its caller drains its own chunks. A driver that waits
// on queued chunks instead hangs here every time.
TEST(ThreadPool, NestedDriversFinishWhenEveryWorkerIsBusy) {
  const std::size_t threads = global_pool().thread_count();
  const std::size_t participants = threads > 1 ? threads + 1 : 1;
  const std::size_t n_tasks = 2 * participants + 1;
  std::latch all_busy(static_cast<std::ptrdiff_t>(participants));
  std::atomic<std::size_t> arrived{0};
  std::atomic<std::size_t> hits{0};
  std::vector<std::function<void()>> tasks;
  for (std::size_t t = 0; t < n_tasks; ++t) {
    tasks.push_back([&] {
      if (arrived.fetch_add(1) < participants) all_busy.arrive_and_wait();
      parallel_for(0, 64, [&](std::size_t) { ++hits; }, 1);
    });
  }
  parallel_run_tasks(std::move(tasks));
  EXPECT_EQ(hits.load(), n_tasks * 64);
}

TEST(ThreadPool, EveryTaskRunsBeforeTheFirstExceptionPropagates) {
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int t = 0; t < 16; ++t) {
    tasks.push_back([&ran, t] {
      ++ran;
      if (t == 3) throw std::runtime_error("boom");
    });
  }
  EXPECT_THROW(parallel_run_tasks(std::move(tasks)), std::runtime_error);
  EXPECT_EQ(ran.load(), 16);
}

// The GBDT trainer plans a node histogram of n rows as
// chunk_ranges(0, n, max(c, ceil(n / (2^24 - 1))), 16384), with c = 1 on a
// one-thread pool and 2 * threads otherwise. Its per-chunk row counts are
// packed into 24 bits, so every chunk must stay below 2^24 rows; this checks
// that plan at both pool widths for a node far above the limit (arithmetic
// only: no rows are allocated).
TEST(ThreadPool, TrainerChunkPlanStaysBelowThePackedCountLimit) {
  constexpr std::size_t kLimit = std::size_t{1} << 24;
  const std::size_t n = (std::size_t{1} << 26) + 5;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const std::size_t c = threads > 1 ? 2 * threads : 1;
    const std::size_t max_chunks =
        std::max(c, (n + (kLimit - 1) - 1) / (kLimit - 1));
    const auto chunks = chunk_ranges(0, n, max_chunks, 16384);
    ASSERT_FALSE(chunks.empty()) << threads << " threads";
    std::size_t next = 0;
    for (const auto& [lo, hi] : chunks) {
      EXPECT_EQ(lo, next) << threads << " threads";
      EXPECT_LT(lo, hi) << threads << " threads";
      EXPECT_LT(hi - lo, kLimit) << threads << " threads";
      next = hi;
    }
    EXPECT_EQ(next, n) << threads << " threads";
  }
}

TEST(RadixSort, EqualsStdSortOnAdversarialKeys) {
  // 0 and UINT64_MAX, keys that differ in one byte only (every byte
  // position, so each pass both runs and is skipped somewhere), duplicates,
  // an all-equal input, and mixed random keys.
  std::vector<std::vector<std::uint64_t>> inputs;
  inputs.push_back({});
  inputs.push_back({42});
  inputs.push_back({std::numeric_limits<std::uint64_t>::max(), 0, 0,
                    std::numeric_limits<std::uint64_t>::max(), 1});
  for (unsigned byte = 0; byte < 8; ++byte) {
    std::vector<std::uint64_t> keys;
    for (std::uint64_t v = 256; v-- > 0;) {
      keys.push_back(0x0123456789abcdefULL ^ (v << (8 * byte)));
    }
    inputs.push_back(keys);
  }
  inputs.push_back(std::vector<std::uint64_t>(1000, 0xdeadbeefULL));
  std::vector<std::uint64_t> mixed;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 20'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    mixed.push_back(i % 7 == 0 ? x & 0xff00 : x);
  }
  mixed.push_back(0);
  mixed.push_back(std::numeric_limits<std::uint64_t>::max());
  inputs.push_back(mixed);

  for (const std::vector<std::uint64_t>& keys : inputs) {
    std::vector<std::uint64_t> want = keys;
    std::sort(want.begin(), want.end());
    std::vector<std::uint64_t> got = keys;
    common::radix_sort(got);
    EXPECT_EQ(got, want) << keys.size() << " keys";
  }

  // sorted_keys() is the set's keys through the same sort.
  common::FlatU64Set set;
  for (const std::uint64_t k : mixed) set.insert(k);
  std::vector<std::uint64_t> unique = mixed;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  EXPECT_EQ(set.sorted_keys(), unique);
}

TEST(FlatU64Set, KeyZeroIsAnOrdinaryMember) {
  common::FlatU64Set set;
  EXPECT_FALSE(set.contains(0));
  EXPECT_TRUE(set.insert(0));
  EXPECT_FALSE(set.insert(0));
  EXPECT_TRUE(set.contains(0));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.capacity(), 0u);  // key 0 never takes a slot
  EXPECT_TRUE(set.insert(7));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(0));
  EXPECT_TRUE(set.contains(7));
  EXPECT_FALSE(set.contains(8));
}

TEST(FlatU64Set, DuplicateInsertsReportFalseAndKeepTheSize) {
  common::FlatU64Set set;
  for (std::uint64_t k = 1; k <= 100; ++k) EXPECT_TRUE(set.insert(k * 977));
  for (std::uint64_t k = 1; k <= 100; ++k) EXPECT_FALSE(set.insert(k * 977));
  EXPECT_EQ(set.size(), 100u);
}

TEST(FlatU64Set, GrowsThroughRehashesWithClusteredKeys) {
  // Keys that share their low 32 bits, keys that share their high 32 bits,
  // and a dense run: each family would pile into a few slots without the
  // mix. 9000 keys take the table from 16 slots through ten doublings.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 1; i <= 3000; ++i) keys.push_back(i << 32);
  for (std::uint64_t i = 1; i <= 3000; ++i) {
    keys.push_back((std::uint64_t{0xdeadbeef} << 32) | i);
  }
  for (std::uint64_t i = 1; i <= 3000; ++i) keys.push_back(~i);
  common::FlatU64Set set;
  for (std::size_t n = 0; n < keys.size(); ++n) {
    ASSERT_TRUE(set.insert(keys[n])) << keys[n];
    ASSERT_EQ(set.size(), n + 1);
  }
  for (const std::uint64_t k : keys) ASSERT_TRUE(set.contains(k)) << k;
  for (std::uint64_t i = 3001; i <= 3100; ++i) {
    EXPECT_FALSE(set.contains(i << 32));
    EXPECT_FALSE(set.contains((std::uint64_t{0xdeadbeef} << 32) | i));
  }
}

TEST(FlatU64Set, ReserveSizesForHalfLoadAndAvoidsRehashing) {
  common::FlatU64Set set;
  set.reserve(1000);
  const std::size_t capacity = set.capacity();
  EXPECT_GE(capacity, 2000u);  // load factor <= 1/2
  for (std::uint64_t k = 1; k <= 1000; ++k) set.insert(k);
  EXPECT_EQ(set.capacity(), capacity);  // no rehash
  set.reserve(10);                      // never shrinks
  EXPECT_EQ(set.capacity(), capacity);
  EXPECT_EQ(set.size(), 1000u);
}

TEST(FlatU64Set, CopiesAreIndependent) {
  common::FlatU64Set a;
  for (std::uint64_t k = 0; k < 50; ++k) a.insert(k);
  common::FlatU64Set b = a;
  EXPECT_TRUE(b.insert(1000));
  EXPECT_FALSE(a.contains(1000));
  EXPECT_EQ(a.size(), 50u);
  EXPECT_EQ(b.size(), 51u);
  a = b;
  EXPECT_TRUE(a.contains(1000));
  EXPECT_TRUE(a.insert(2000));
  EXPECT_FALSE(b.contains(2000));
}

TEST(FlatU64Set, ForEachVisitsEveryKeyOnce) {
  common::FlatU64Set set;
  std::unordered_set<std::uint64_t> want = {0};
  set.insert(0);
  for (std::uint64_t i = 1; i < 5000; ++i) {
    const std::uint64_t k = i * 0x9e3779b97f4a7c15ULL;
    set.insert(k);
    set.insert(k);
    want.insert(k);
  }
  std::unordered_map<std::uint64_t, int> seen;
  set.for_each([&seen](std::uint64_t k) { ++seen[k]; });
  EXPECT_EQ(seen.size(), want.size());
  for (const auto& [k, n] : seen) {
    EXPECT_EQ(n, 1) << k;
    EXPECT_TRUE(want.contains(k)) << k;
  }
}

TEST(Simd, DispatchGatesAreConsistent) {
  // compiled ⊇ supported-and-usable: simd_enabled() may never report true
  // unless the kernels were compiled and the CPU can run them.
  if (common::simd_enabled()) {
    EXPECT_TRUE(common::simd_compiled());
    EXPECT_TRUE(common::simd_supported());
  }
  const bool prev = common::simd_enabled();
  // Forcing off always works; forcing on succeeds iff compiled && supported.
  EXPECT_FALSE(common::set_simd_enabled(false));
  EXPECT_EQ(common::set_simd_enabled(true),
            common::simd_compiled() && common::simd_supported());
  common::set_simd_enabled(prev);
  EXPECT_EQ(common::simd_enabled(), prev);
  // simd_mode() names the active configuration for bench/CI logs.
  EXPECT_FALSE(common::simd_mode().empty());
}

TEST(Env, FallbacksAndParsing) {
  EXPECT_DOUBLE_EQ(env_double("HELIOS_TEST_UNSET_VAR", 1.5), 1.5);
  EXPECT_EQ(env_int("HELIOS_TEST_UNSET_VAR", 7), 7);
  ::setenv("HELIOS_TEST_SET_VAR", "2.25", 1);
  EXPECT_DOUBLE_EQ(env_double("HELIOS_TEST_SET_VAR", 0.0), 2.25);
  ::setenv("HELIOS_TEST_SET_VAR", "19", 1);
  EXPECT_EQ(env_int("HELIOS_TEST_SET_VAR", 0), 19);
  EXPECT_EQ(env_string("HELIOS_TEST_SET_VAR", ""), "19");
  ::setenv("HELIOS_TEST_SET_VAR", "-3", 1);
  EXPECT_EQ(env_int("HELIOS_TEST_SET_VAR", 0), -3);
  ::setenv("HELIOS_TEST_SET_VAR", "", 1);
  EXPECT_EQ(env_int("HELIOS_TEST_SET_VAR", 7), 7);
  EXPECT_DOUBLE_EQ(env_double("HELIOS_TEST_SET_VAR", 1.5), 1.5);

  // Only a whole, in-range number is accepted: a partial parse used to keep
  // its prefix ("8x" read as 8) and an overflow saturated to LLONG_MAX.
  // Parser only — never build a pool from these values.
  for (const char* bad : {"8x", "1.5", "abc", "99999999999999999999", " 8 "}) {
    ::setenv("HELIOS_TEST_SET_VAR", bad, 1);
    EXPECT_THROW((void)env_int("HELIOS_TEST_SET_VAR", 0), std::invalid_argument)
        << bad;
  }
  for (const char* bad : {"0.1x", "x", "1e999", "2.5 "}) {
    ::setenv("HELIOS_TEST_SET_VAR", bad, 1);
    EXPECT_THROW((void)env_double("HELIOS_TEST_SET_VAR", 0.0),
                 std::invalid_argument)
        << bad;
  }
  ::setenv("HELIOS_TEST_SET_VAR", "8x", 1);
  try {
    (void)env_int("HELIOS_TEST_SET_VAR", 0);
    ADD_FAILURE() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("HELIOS_TEST_SET_VAR"),
              std::string::npos);
  }
  ::unsetenv("HELIOS_TEST_SET_VAR");
}

}  // namespace
}  // namespace helios
