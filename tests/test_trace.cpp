#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <sstream>

#include "trace/cluster_config.h"
#include "trace/trace.h"

namespace helios::trace {
namespace {

Trace small_trace() {
  ClusterSpec spec;
  spec.name = "T";
  spec.vcs = {{"vcA", 2, 8}, {"vcB", 1, 8}};
  spec.nodes = 3;
  Trace t(spec);
  t.add(100, 50, 1, 6, "alice", "vcA", "train_a", JobState::kCompleted);
  t.add(50, 10, 0, 4, "bob", "vcB", "extract", JobState::kFailed);
  t.add(200, 900, 8, 48, "alice", "vcA", "train_b", JobState::kCanceled);
  return t;
}

TEST(Trace, AddInternsStrings) {
  const Trace t = small_trace();
  EXPECT_EQ(t.users().size(), 2u);
  EXPECT_EQ(t.vcs().size(), 2u);
  EXPECT_EQ(t.names().size(), 3u);
  EXPECT_EQ(t.user_name(t.jobs()[0]), "alice");
  EXPECT_EQ(t.user_name(t.jobs()[2]), "alice");
  EXPECT_EQ(t.jobs()[0].user, t.jobs()[2].user);  // same id
}

TEST(Trace, SortBySubmitTimeIsStable) {
  Trace t = small_trace();
  t.sort_by_submit_time();
  EXPECT_EQ(t.jobs()[0].submit_time, 50);
  EXPECT_EQ(t.jobs()[1].submit_time, 100);
  EXPECT_EQ(t.jobs()[2].submit_time, 200);
}

TEST(Trace, GpuTimeAndDerivedFields) {
  const Trace t = small_trace();
  const auto& j = t.jobs()[2];
  EXPECT_TRUE(j.is_gpu_job());
  EXPECT_DOUBLE_EQ(j.gpu_time(), 900.0 * 8);
  EXPECT_DOUBLE_EQ(j.cpu_time(), 900.0 * 48);
  EXPECT_EQ(j.end_time(), j.start_time + 900);
  EXPECT_EQ(j.queue_delay(), 0);  // start defaults to submit
  EXPECT_EQ(j.jct(), 900);
}

TEST(Trace, FiltersPreserveInterners) {
  const Trace t = small_trace();
  const Trace cpu = t.filter([](const JobRecord& j) { return j.is_cpu_job(); });
  ASSERT_EQ(cpu.size(), 1u);
  EXPECT_EQ(cpu.job_name(cpu.jobs()[0]), "extract");
  const Trace window = t.between(60, 150);
  ASSERT_EQ(window.size(), 1u);
  EXPECT_EQ(window.jobs()[0].submit_time, 100);
}

TEST(Trace, CsvRoundTrip) {
  Trace t = small_trace();
  t.jobs()[1].start_time = 75;  // exercise a non-default start
  // job_id is u64: an id at or above 2^63 must come back unchanged.
  t.jobs()[2].job_id = std::numeric_limits<std::uint64_t>::max();
  std::stringstream ss;
  t.save_csv(ss);
  const Trace back = Trace::load_csv(ss, t.cluster());
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back.jobs()[i].job_id, t.jobs()[i].job_id);
    EXPECT_EQ(back.jobs()[i].submit_time, t.jobs()[i].submit_time);
    EXPECT_EQ(back.jobs()[i].start_time, t.jobs()[i].start_time);
    EXPECT_EQ(back.jobs()[i].duration, t.jobs()[i].duration);
    EXPECT_EQ(back.jobs()[i].num_gpus, t.jobs()[i].num_gpus);
    EXPECT_EQ(back.jobs()[i].state, t.jobs()[i].state);
    EXPECT_EQ(back.user_name(back.jobs()[i]), t.user_name(t.jobs()[i]));
    EXPECT_EQ(back.job_name(back.jobs()[i]), t.job_name(t.jobs()[i]));
  }
}

TEST(Trace, SaveCsvRowsWritesLiteralBytes) {
  // Quoted strings (comma, quote, CR/LF), negative numbers and a job_id of
  // 2^64-1, against the bytes spelled out.
  Trace t;
  {
    JobRecord& j = t.add(-5, -1, 0, -3, "carol,jr", "vc\"A\"",
                         "say \"hi\", twice", JobState::kCanceled);
    j.start_time = -7;
    j.job_id = std::numeric_limits<std::uint64_t>::max();
  }
  t.add(1'600'000'000, 3600, 8, 64, "bob", "vcB", "line\nbreak\r",
        JobState::kFailed);
  const std::string first =
      "18446744073709551615,-5,-7,-1,0,-3,\"carol,jr\",\"vc\"\"A\"\"\","
      "\"say \"\"hi\"\", twice\",canceled\n";
  const std::string second =
      "1,1600000000,1600000000,3600,8,64,bob,vcB,\"line\nbreak\r\",failed\n";

  std::string got = "kept:";
  t.save_csv_rows(got, 0, t.size());
  EXPECT_EQ(got, "kept:" + first + second);  // appends
  got.clear();
  t.save_csv_rows(got, 1, 10);  // the range is clipped to the trace
  EXPECT_EQ(got, second);
  std::ostringstream os;
  t.save_csv_rows(os, 0, t.size());
  EXPECT_EQ(os.str(), first + second);

  // The stream overload writes in blocks; a trace spanning several blocks
  // gives the same bytes as one string.
  Trace big;
  for (int i = 0; i < 10'000; ++i) {
    big.add(i, i % 97, i % 9, 4, "u" + std::to_string(i % 13), "vc",
            i % 5 == 0 ? "a,b" : "n" + std::to_string(i % 31),
            JobState::kCompleted);
  }
  std::string whole;
  big.save_csv_rows(whole, 0, big.size());
  std::ostringstream blocks;
  big.save_csv_rows(blocks, 0, big.size());
  EXPECT_EQ(blocks.str(), whole);
  EXPECT_EQ(std::count(whole.begin(), whole.end(), '\n'), 10'000);
}

TEST(Trace, CsvRejectsMalformedRows) {
  std::stringstream ss("header\n1,2,3\n");
  EXPECT_THROW(Trace::load_csv(ss, ClusterSpec{}), std::runtime_error);
  std::stringstream bad_state(
      "header\n1,0,0,10,1,4,u,vc,n,completed\n2,5,5,10,1,4,u,vc,n,BOGUS\n");
  EXPECT_THROW(Trace::load_csv(bad_state, ClusterSpec{}), std::runtime_error);

  // Numbers parse whole: a non-number, a numeric prefix and an out-of-range
  // int32 each throw std::runtime_error naming the column, appending nothing.
  const std::pair<const char*, const char*> bad_rows[] = {
      {"1,x,0,10,1,4,u,vc,n,completed", "submit_time"},
      {"7,12x,0,10,1,4,u,vc,n,completed", "submit_time"},
      {"8,0,0,4294967296,1,4,u,vc,n,completed", "duration"},
      {"9,0,0,10,-2147483649,4,u,vc,n,completed", "num_gpus"},
      {"x1,0,0,10,1,4,u,vc,n,completed", "job_id"},
      // A state is one of the known statuses, in any case; nothing folds.
      {"10,0,0,10,1,4,u,vc,n,BOGUS", "state"},
      {"11,0,0,10,1,4,u,vc,n,", "state"},
      {"12,0,0,10,1,4,u,vc,n,complete", "state"},
      {"13,0,0,10,1,4,u,vc,n,node fail", "state"},
  };
  for (const auto& [row, column] : bad_rows) {
    Trace t;
    try {
      t.append_csv_row(row);
      ADD_FAILURE() << "accepted: " << row;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(column), std::string::npos)
          << e.what();
    } catch (...) {
      ADD_FAILURE() << "untyped error for: " << row;
    }
    EXPECT_EQ(t.size(), 0u) << row;
  }
  Trace t;
  ASSERT_TRUE(t.append_csv_row("3,-5,-1,2147483647,8,48,u,vc,n,completed\r"));
  EXPECT_EQ(t.jobs()[0].job_id, 3u);
  EXPECT_EQ(t.jobs()[0].submit_time, -5);
  EXPECT_EQ(t.jobs()[0].start_time, kNeverStarted);
  EXPECT_EQ(t.jobs()[0].duration, 2147483647);
}

TEST(JobState, StringRoundTrip) {
  for (auto s : {JobState::kCompleted, JobState::kCanceled, JobState::kFailed}) {
    EXPECT_EQ(job_state_from_string(to_string(s)), s);
  }
  EXPECT_EQ(job_state_from_string("node_fail"), JobState::kFailed);  // folded
}

TEST(JobState, ParsesKnownStatesIgnoringCase) {
  const std::pair<const char*, JobState> known[] = {
      {"completed", JobState::kCompleted}, {"COMPLETED", JobState::kCompleted},
      {"Canceled", JobState::kCanceled},   {"cancelled", JobState::kCanceled},
      {"CANCELLED", JobState::kCanceled},  {"failed", JobState::kFailed},
      {"Timeout", JobState::kFailed},      {"NODE_FAIL", JobState::kFailed},
      {"out_of_memory", JobState::kFailed},
      {"Out_Of_Memory", JobState::kFailed},
  };
  for (const auto& [text, state] : known) {
    EXPECT_EQ(job_state_from_string(text), state) << text;
  }
}

TEST(Trace, AppendAmortizesGrowth) {
  // A stream fed one small batch at a time (svc ingest) must not copy every
  // job it holds on each append: capacity grows geometrically.
  Trace row;
  row.add(0, 10, 1, 4, "u", "vc", "n", JobState::kCompleted);
  Trace stream;
  const JobRecord* data = stream.jobs().data();
  int moves = 0;
  for (int i = 0; i < 4096; ++i) {
    stream.append(row);
    if (stream.jobs().data() != data) {
      data = stream.jobs().data();
      ++moves;
    }
  }
  EXPECT_EQ(stream.size(), 4096u);
  EXPECT_LE(moves, 16);
}

// ---------------------------------------------------------------------------
// Cluster configurations
// ---------------------------------------------------------------------------

TEST(ClusterConfig, HeliosShapesMatchTable1) {
  const auto clusters = helios_clusters();
  ASSERT_EQ(clusters.size(), 4u);
  int nodes = 0;
  int gpus = 0;
  int vcs = 0;
  for (const auto& c : clusters) {
    nodes += c.nodes;
    gpus += c.total_gpus();
    vcs += c.vc_count();
    int vc_nodes = 0;
    for (const auto& vc : c.vcs) vc_nodes += vc.nodes;
    EXPECT_EQ(vc_nodes, c.nodes) << c.name;  // exact partition into VCs
  }
  EXPECT_EQ(nodes, 802);
  EXPECT_EQ(gpus, 6416);
  EXPECT_EQ(vcs, 105);
  EXPECT_EQ(helios_cluster("Earth").nodes, 143);
  EXPECT_THROW(helios_cluster("Pluto"), std::invalid_argument);
}

TEST(ClusterConfig, VcSizesAreSkewed) {
  // Figure 4: Earth has one ~26-node VC, the rest much smaller.
  const auto earth = helios_cluster("Earth");
  int largest = 0;
  for (const auto& vc : earth.vcs) largest = std::max(largest, vc.nodes);
  EXPECT_GE(largest * earth.gpus_per_node, 180);
  EXPECT_LE(largest * earth.gpus_per_node, 260);
}

TEST(ClusterConfig, DeterministicLayout) {
  const auto a = helios_cluster("Saturn");
  const auto b = helios_cluster("Saturn");
  ASSERT_EQ(a.vcs.size(), b.vcs.size());
  for (std::size_t i = 0; i < a.vcs.size(); ++i) {
    EXPECT_EQ(a.vcs[i].name, b.vcs[i].name);
    EXPECT_EQ(a.vcs[i].nodes, b.vcs[i].nodes);
  }
}

TEST(ClusterConfig, PhillyShape) {
  const auto p = philly_cluster();
  EXPECT_EQ(p.vc_count(), 14);
  EXPECT_EQ(p.gpus_per_node, 4);
  EXPECT_GT(p.total_gpus(), 1000);
}

TEST(ClusterConfig, ScaleClusterPreservesStructure) {
  const auto full = helios_cluster("Saturn");
  for (double f : {0.5, 0.25, 0.1}) {
    const auto scaled = scale_cluster(full, f);
    EXPECT_NEAR(scaled.nodes, full.nodes * f, full.nodes * f * 0.25 + 2)
        << "factor " << f;
    int vc_nodes = 0;
    for (const auto& vc : scaled.vcs) {
      EXPECT_GE(vc.nodes, 1);
      vc_nodes += vc.nodes;
    }
    EXPECT_EQ(vc_nodes, scaled.nodes);
    EXPECT_LE(scaled.vc_count(), full.vc_count());
  }
}

TEST(ClusterConfig, ScaleClusterIdentity) {
  const auto full = helios_cluster("Venus");
  const auto same = scale_cluster(full, 1.0);
  EXPECT_EQ(same.nodes, full.nodes);
  EXPECT_EQ(same.vc_count(), full.vc_count());
}

TEST(ClusterConfig, ScaleClusterTiny) {
  const auto scaled = scale_cluster(helios_cluster("Venus"), 0.01);
  EXPECT_GE(scaled.nodes, 1);
  EXPECT_GE(scaled.vc_count(), 1);
}

TEST(ClusterConfig, FindVc) {
  const auto c = helios_cluster("Venus");
  EXPECT_EQ(c.find_vc(c.vcs[3].name), 3);
  EXPECT_EQ(c.find_vc("nope"), -1);
}

TEST(ClusterConfig, TraceWindows) {
  EXPECT_LT(helios_trace_begin(), helios_trace_end());
  EXPECT_EQ(to_civil(helios_trace_begin()).month, 4);
  EXPECT_EQ(to_civil(philly_trace_begin()).year, 2017);
}

}  // namespace
}  // namespace helios::trace
