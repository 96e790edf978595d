#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "sim/simulator.h"
#include "trace/synthetic.h"

namespace helios::sim {
namespace {

using trace::JobState;
using trace::Trace;

trace::ClusterSpec one_node_spec() {
  trace::ClusterSpec s;
  s.name = "one";
  s.gpus_per_node = 8;
  s.vcs = {{"vc0", 1, 8}};
  s.nodes = 1;
  return s;
}

trace::ClusterSpec two_vc_spec() {
  trace::ClusterSpec s;
  s.name = "two";
  s.gpus_per_node = 8;
  s.vcs = {{"vc0", 2, 8}, {"vc1", 1, 8}};
  s.nodes = 3;
  return s;
}

Trace make_trace(const trace::ClusterSpec& spec,
                 const std::vector<std::tuple<UnixTime, int, int, const char*>>&
                     jobs /* submit, duration, gpus, vc */) {
  Trace t(spec);
  int i = 0;
  for (const auto& [submit, dur, gpus, vc] : jobs) {
    t.add(submit, dur, gpus, gpus, "user" + std::to_string(i % 3), vc,
          "job" + std::to_string(i), JobState::kCompleted);
    ++i;
  }
  t.sort_by_submit_time();
  return t;
}

SimResult run(const Trace& t, SchedulerPolicy policy,
              PriorityFn priority = nullptr) {
  SimConfig cfg;
  cfg.policy = policy;
  cfg.priority_fn = std::move(priority);
  ClusterSimulator sim(t.cluster(), cfg);
  return sim.run(t);
}

TEST(Simulator, FifoSerializesOnFullNode) {
  const auto t = make_trace(one_node_spec(), {{0, 100, 8, "vc0"},
                                              {1, 10, 8, "vc0"}});
  const auto r = run(t, SchedulerPolicy::kFifo);
  ASSERT_EQ(r.outcomes.size(), 2u);
  EXPECT_EQ(r.outcomes[0].start, 0);
  EXPECT_EQ(r.outcomes[0].end, 100);
  EXPECT_EQ(r.outcomes[1].start, 100);
  EXPECT_EQ(r.outcomes[1].end, 110);
  EXPECT_EQ(r.queued_jobs, 1);
}

TEST(Simulator, SjfReordersQueue) {
  // Long job occupies the node; two queued jobs: long (500s) then short (10s),
  // submitted in that order. SJF runs the short one first.
  const auto t = make_trace(one_node_spec(), {{0, 100, 8, "vc0"},
                                              {1, 500, 8, "vc0"},
                                              {2, 10, 8, "vc0"}});
  const auto fifo = run(t, SchedulerPolicy::kFifo);
  const auto sjf = run(t, SchedulerPolicy::kSjf);
  // FIFO: short job waits for the 500s job.
  EXPECT_EQ(fifo.outcomes[2].start, 600);
  // SJF: short job jumps ahead.
  EXPECT_EQ(sjf.outcomes[2].start, 100);
  EXPECT_EQ(sjf.outcomes[1].start, 110);
  EXPECT_LT(sjf.avg_jct, fifo.avg_jct);
}

TEST(Simulator, SrtfPreemptsLongJob) {
  const auto t = make_trace(one_node_spec(), {{0, 100, 8, "vc0"},
                                              {10, 10, 8, "vc0"}});
  const auto r = run(t, SchedulerPolicy::kSrtf);
  // Short job preempts at t=10 (remaining 10 < remaining 90), runs 10-20;
  // long job resumes and finishes at 20 + 90 = 110.
  EXPECT_EQ(r.outcomes[1].start, 10);
  EXPECT_EQ(r.outcomes[1].end, 20);
  EXPECT_EQ(r.outcomes[0].end, 110);
  EXPECT_EQ(r.preemptions, 1);
}

TEST(Simulator, SrtfDoesNotPreemptShorterRemaining) {
  const auto t = make_trace(one_node_spec(), {{0, 50, 8, "vc0"},
                                              {10, 45, 8, "vc0"}});
  const auto r = run(t, SchedulerPolicy::kSrtf);
  // At t=10 running job has 40 remaining < 45 -> no preemption.
  EXPECT_EQ(r.preemptions, 0);
  EXPECT_EQ(r.outcomes[1].start, 50);
}

TEST(Simulator, QssfUsesPriorityFunction) {
  // Priority = true GPU time makes QSSF behave like SJF here.
  const auto t = make_trace(one_node_spec(), {{0, 100, 8, "vc0"},
                                              {1, 500, 8, "vc0"},
                                              {2, 10, 8, "vc0"}});
  const auto qssf = run(t, SchedulerPolicy::kQssf, [](const trace::JobRecord& j) {
    return static_cast<double>(j.duration) * j.num_gpus;
  });
  EXPECT_EQ(qssf.outcomes[2].start, 100);
}

TEST(Simulator, HeadOfLineBlockingNoBackfill) {
  // 8-GPU head cannot fit (4 GPUs busy); a 2-GPU job behind it must NOT be
  // backfilled (Algorithm 1 stops at the first non-fitting job).
  const auto t = make_trace(one_node_spec(), {{0, 100, 4, "vc0"},
                                              {1, 50, 8, "vc0"},
                                              {2, 5, 2, "vc0"}});
  const auto r = run(t, SchedulerPolicy::kFifo);
  EXPECT_EQ(r.outcomes[1].start, 100);  // 8-GPU job waits for the node
  EXPECT_EQ(r.outcomes[2].start, 150);  // 2-GPU job blocked behind it
}

TEST(Simulator, SmallJobsShareNode) {
  const auto t = make_trace(one_node_spec(), {{0, 100, 4, "vc0"},
                                              {1, 100, 4, "vc0"}});
  const auto r = run(t, SchedulerPolicy::kFifo);
  EXPECT_EQ(r.outcomes[0].start, 0);
  EXPECT_EQ(r.outcomes[1].start, 1);  // both fit concurrently
}

TEST(Simulator, VcsAreIsolated) {
  // vc1's queue must not be affected by vc0 being saturated.
  const auto t = make_trace(two_vc_spec(), {{0, 1000, 16, "vc0"},
                                            {5, 10, 8, "vc1"}});
  const auto r = run(t, SchedulerPolicy::kFifo);
  EXPECT_EQ(r.outcomes[1].start, 5);
}

TEST(Simulator, RejectsJobsLargerThanVc) {
  const auto t = make_trace(two_vc_spec(), {{0, 10, 24, "vc1"}});  // vc1 has 8
  const auto r = run(t, SchedulerPolicy::kFifo);
  EXPECT_EQ(r.rejected_jobs, 1);
  EXPECT_TRUE(r.outcomes[0].rejected);
}

TEST(Simulator, BusySeriesMatchesSchedule) {
  SimConfig cfg;
  cfg.series_step = 10;
  const auto t = make_trace(one_node_spec(), {{0, 40, 8, "vc0"}});
  ClusterSimulator sim(t.cluster(), cfg);
  const auto r = sim.run(t);
  ASSERT_GE(r.busy_gpus.size(), 4u);
  EXPECT_NEAR(r.busy_gpus.values[0], 8.0, 1e-9);
  EXPECT_NEAR(r.busy_gpus.values[3], 8.0, 1e-9);
  EXPECT_NEAR(r.busy_nodes.values[0], 1.0, 1e-9);
  if (r.busy_gpus.size() > 4) EXPECT_NEAR(r.busy_gpus.values[4], 0.0, 1e-9);
}

TEST(Simulator, SimulationWindowSpansGpuJobs) {
  // CPU jobs (0 GPUs) before and after the GPU jobs do not widen the window.
  const auto t = make_trace(one_node_spec(), {{5, 100, 0, "vc0"},
                                              {10, 20, 8, "vc0"},
                                              {12, 300, 4, "vc0"},
                                              {400, 30, 0, "vc0"}});
  const auto [begin, end] = simulation_window(t);
  EXPECT_EQ(begin, 10);
  EXPECT_EQ(end, 12 + 300 + 1);
  EXPECT_EQ(run(t, SchedulerPolicy::kFifo).peak_power_watts.begin, begin);

  const auto cpu_only = make_trace(one_node_spec(), {{5, 100, 0, "vc0"}});
  EXPECT_EQ(simulation_window(cpu_only), (std::pair<UnixTime, UnixTime>{0, 1}));
}

TEST(Simulator, RejectsGpuJobsOutOfSubmitOrder) {
  // CSV loaders keep row order. Replayed as-is, the job submitted at 0 would
  // wait behind the one submitted at 1000 on an empty node, and the window
  // would start at 1000.
  Trace t(one_node_spec());
  t.add(1000, 100, 8, 8, "u", "vc0", "late", JobState::kCompleted);
  t.add(0, 100, 8, 8, "u", "vc0", "early", JobState::kCompleted);
  EXPECT_THROW((void)run(t, SchedulerPolicy::kFifo), std::invalid_argument);

  t.sort_by_submit_time();
  const auto r = run(t, SchedulerPolicy::kFifo);
  EXPECT_EQ(r.avg_queue_delay, 0.0);
  EXPECT_EQ(r.outcomes[0].start, 0);
  EXPECT_EQ(r.outcomes[1].start, 1000);

  // CPU jobs are not simulated, so their order does not matter.
  t.add(500, 10, 0, 1, "u", "vc0", "cpu", JobState::kCompleted);
  EXPECT_NO_THROW((void)run(t, SchedulerPolicy::kFifo));
}

TEST(Simulator, QueueOrderTiesSignedZeroAndAnyNan) {
  // The queue orders by priority, then submit time: -0 ties +0, and every
  // NaN, whatever its sign or payload, ties every other NaN after +inf. A
  // blocker holds the only GPU while the jobs queue; each job's distinct
  // duration picks its priority, and the submit order is chosen so that
  // only the tie rule separates the tied jobs.
  const auto nan = [](std::uint64_t bits) { return std::bit_cast<double>(bits); };
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const std::vector<double> priorities = {
      0.0,   nan(0x7ff8000000000002), inf,    -0.0,
      1.0,   nan(0xfff8000000000001), denorm, -inf,
      nan(0x7ff8000000000001), -denorm, nan(0xfff8000000000002)};
  trace::ClusterSpec spec;
  spec.name = "one-gpu";
  spec.gpus_per_node = 1;
  spec.vcs = {{"vc0", 1, 1}};
  spec.nodes = 1;
  std::vector<std::tuple<UnixTime, int, int, const char*>> jobs = {
      {0, 1000, 1, "vc0"}};  // the blocker
  for (std::size_t k = 0; k < priorities.size(); ++k) {
    jobs.emplace_back(static_cast<UnixTime>(k + 1), static_cast<int>(10 + k), 1,
                      "vc0");
  }
  const auto t = make_trace(spec, jobs);
  const auto r = run(t, SchedulerPolicy::kQssf, [&](const trace::JobRecord& j) {
    return j.duration >= 1000 ? 0.0
                              : priorities[static_cast<std::size_t>(j.duration - 10)];
  });
  ASSERT_EQ(r.outcomes.size(), priorities.size() + 1);
  std::vector<std::size_t> by_start(priorities.size());
  for (std::size_t k = 0; k < by_start.size(); ++k) by_start[k] = k;
  std::sort(by_start.begin(), by_start.end(), [&](std::size_t a, std::size_t b) {
    return r.outcomes[a + 1].start < r.outcomes[b + 1].start;
  });
  // -inf, -denorm, +0 (submit 1) before -0 (submit 4), +denorm, 1, +inf,
  // then the four NaNs in submit order.
  const std::vector<std::size_t> expected = {7, 9, 0, 3, 6, 4, 2, 1, 5, 8, 10};
  EXPECT_EQ(by_start, expected);
  for (std::size_t k = 1; k < expected.size(); ++k) {
    EXPECT_EQ(r.outcomes[expected[k] + 1].start,
              r.outcomes[expected[k - 1] + 1].end);
  }
}

TEST(Simulator, ApplyScheduleWritesStartTimes) {
  auto t = make_trace(one_node_spec(), {{0, 100, 8, "vc0"}, {1, 10, 8, "vc0"}});
  const auto r = run(t, SchedulerPolicy::kFifo);
  EXPECT_EQ(apply_schedule(t, r), 2u);
  EXPECT_EQ(t.jobs()[1].start_time, 100);
  EXPECT_EQ(t.jobs()[1].queue_delay(), 99);
}

// --- integration sweep: invariants on a realistic synthetic workload -------

class SimulatorPolicyTest : public ::testing::TestWithParam<SchedulerPolicy> {};

TEST_P(SimulatorPolicyTest, InvariantsOnSyntheticTrace) {
  auto cfg = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"), 7,
                                            0.05);
  Trace t = trace::SyntheticTraceGenerator(cfg).generate();
  SimConfig sc;
  sc.policy = GetParam();
  if (sc.policy == SchedulerPolicy::kQssf) {
    sc.priority_fn = [](const trace::JobRecord& j) {
      return static_cast<double>(j.duration) * j.num_gpus;
    };
  }
  ClusterSimulator sim(t.cluster(), sc);
  const auto r = sim.run(t);

  const double capacity = t.cluster().total_gpus();
  std::size_t finished = 0;
  for (const auto& o : r.outcomes) {
    if (o.rejected) continue;
    ASSERT_NE(o.start, trace::kNeverStarted);
    EXPECT_GE(o.start, o.submit);
    EXPECT_GE(o.end, o.start + t.jobs()[o.trace_index].duration);
    ++finished;
  }
  EXPECT_GT(finished, 0u);
  EXPECT_EQ(finished + static_cast<std::size_t>(r.rejected_jobs),
            r.outcomes.size());
  for (double g : r.busy_gpus.values) {
    EXPECT_LE(g, capacity + 1e-6);
    EXPECT_GE(g, -1e-9);
  }
  if (sc.policy != SchedulerPolicy::kSrtf) EXPECT_EQ(r.preemptions, 0);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SimulatorPolicyTest,
                         ::testing::Values(SchedulerPolicy::kFifo,
                                           SchedulerPolicy::kSjf,
                                           SchedulerPolicy::kSrtf,
                                           SchedulerPolicy::kQssf),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(Simulator, OracleOrderingOnRealWorkload) {
  // On a contended synthetic month, SJF and SRTF (oracles) must beat FIFO on
  // average JCT; SRTF must beat or match SJF on queuing.
  auto cfg = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"), 3,
                                            0.05);
  Trace t = trace::SyntheticTraceGenerator(cfg).generate();
  const auto sept = t.between(from_civil(2020, 9, 1), from_civil(2020, 9, 28));
  const auto fifo = run(sept, SchedulerPolicy::kFifo);
  const auto sjf = run(sept, SchedulerPolicy::kSjf);
  EXPECT_LT(sjf.avg_jct, fifo.avg_jct);
  EXPECT_LT(sjf.avg_queue_delay, fifo.avg_queue_delay);
}

}  // namespace
}  // namespace helios::sim
