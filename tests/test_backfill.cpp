// Backfill-specific simulator behaviour (the knob that distinguishes
// "operating a trace like production Slurm" from the paper's backfill-free
// scheduler evaluation).
#include <gtest/gtest.h>

#include <string>

#include "sim/simulator.h"
#include "trace/synthetic.h"

namespace helios::sim {
namespace {

using trace::JobState;
using trace::Trace;

trace::ClusterSpec one_node() {
  trace::ClusterSpec s;
  s.name = "one";
  s.gpus_per_node = 8;
  s.vcs = {{"vc0", 1, 8}};
  s.nodes = 1;
  return s;
}

Trace blocked_head_trace() {
  // 4 GPUs busy until t=100; an 8-GPU head blocks; a 2-GPU job behind it.
  Trace t(one_node());
  t.add(0, 100, 4, 4, "u", "vc0", "running", JobState::kCompleted);
  t.add(1, 50, 8, 8, "u", "vc0", "head", JobState::kCompleted);
  t.add(2, 5, 2, 2, "u", "vc0", "small", JobState::kCompleted);
  t.sort_by_submit_time();
  return t;
}

SimResult run(const Trace& t, bool backfill) {
  SimConfig cfg;
  cfg.backfill = backfill;
  return ClusterSimulator(t.cluster(), cfg).run(t);
}

TEST(Backfill, FillsAroundBlockedHead) {
  const auto r = run(blocked_head_trace(), true);
  EXPECT_EQ(r.outcomes[2].start, 2);    // small job backfilled immediately
  EXPECT_EQ(r.outcomes[1].start, 100);  // head waits for the whole node
}

TEST(Backfill, ArrivalPassReachesPastThePreviousWindow) {
  // backfill_depth = 1: a pass visits one candidate behind the blocked head.
  // R holds 6 of 8 GPUs, so the 8-GPU head H blocks at t=1 with the 1-GPU
  // jobs B and C behind it; that pass starts B and stops, C out of reach.
  // E arrives at t=3 and fits the last free GPU, but its 2000 W/GPU draw
  // busts the 4000 W cap. Its arrival must still trigger a pass, whose
  // window, shifted by B's start, now reaches C. Gating the arrival trigger
  // on E's draw too would hold C until R ends at t=100.
  Trace t(one_node());
  t.add(0, 100, 6, 6, "u", "vc0", "R", JobState::kCompleted);
  t.add(1, 50, 8, 8, "u", "vc0", "H", JobState::kCompleted);
  t.add(1, 100, 1, 1, "u", "vc0", "B", JobState::kCompleted);
  t.add(1, 100, 1, 1, "u", "vc0", "C", JobState::kCompleted);
  t.add(3, 10, 1, 1, "u", "vc0", "E", JobState::kCompleted);
  t.sort_by_submit_time();

  SimConfig cfg;
  cfg.backfill = true;
  cfg.backfill_depth = 1;
  cfg.power_cap_watts = 4000.0;  // idle node 800 W + 300 W per GPU
  cfg.gpu_watts_fn = [](const trace::JobRecord& j) {
    return j.duration == 10 ? 2000.0 : 300.0;  // E draws 2000 W per GPU
  };
  const auto r = ClusterSimulator(t.cluster(), cfg).run(t);
  EXPECT_EQ(r.outcomes[2].start, 1);    // B: the t=1 pass's one candidate
  EXPECT_EQ(r.outcomes[3].start, 3);    // C: reached by E's arrival pass
  EXPECT_EQ(r.outcomes[4].start, 100);  // E: fits the cap once R ends
  EXPECT_EQ(r.outcomes[1].start, 110);  // H: the whole node, after E
}

TEST(Backfill, DepthBoundsTheWindowBehindTheHead) {
  // R holds 6 of 8 GPUs; at t=1 the 8-GPU head H blocks with X1 (4 GPUs,
  // does not fit), X2 and X3 (1 GPU each, both fit) behind it, in that
  // order under FIFO (arrival) and SJF (duration) alike. With
  // backfill_depth = 2 the t=1 pass visits X1 and X2: X2, 2nd behind the
  // head, starts; X3, 3rd behind it, waits for the pass at X2's end (t=31).
  // One entry deeper, X3 starts at t=1 too.
  Trace t(one_node());
  t.add(0, 100, 6, 6, "u", "vc0", "R", JobState::kCompleted);
  t.add(1, 10, 8, 8, "u", "vc0", "H", JobState::kCompleted);
  t.add(1, 20, 4, 4, "u", "vc0", "X1", JobState::kCompleted);
  t.add(1, 30, 1, 1, "u", "vc0", "X2", JobState::kCompleted);
  t.add(1, 40, 1, 1, "u", "vc0", "X3", JobState::kCompleted);
  t.sort_by_submit_time();

  for (SchedulerPolicy policy : {SchedulerPolicy::kFifo, SchedulerPolicy::kSjf}) {
    SCOPED_TRACE(std::string(to_string(policy)));
    SimConfig cfg;
    cfg.policy = policy;
    cfg.backfill = true;
    cfg.backfill_depth = 2;
    const auto r = ClusterSimulator(t.cluster(), cfg).run(t);
    EXPECT_EQ(r.outcomes[3].start, 1);    // X2: last entry of the window
    EXPECT_EQ(r.outcomes[4].start, 31);   // X3: one past it
    EXPECT_EQ(r.outcomes[1].start, 100);  // H: the whole node, once R ends
    EXPECT_EQ(r.outcomes[2].start, 110);  // X1: after H

    cfg.backfill_depth = 3;
    const auto deeper = ClusterSimulator(t.cluster(), cfg).run(t);
    EXPECT_EQ(deeper.outcomes[3].start, 1);
    EXPECT_EQ(deeper.outcomes[4].start, 1);
  }
}

TEST(Backfill, OffPreservesStrictHeadOfLine) {
  const auto r = run(blocked_head_trace(), false);
  EXPECT_EQ(r.outcomes[2].start, 150);  // behind the head, like Algorithm 1
}

TEST(Backfill, DoesNotStarveHeadForever) {
  // Stream of small jobs keeps arriving; the 8-GPU head must still start
  // once the initial occupant finishes (greedy backfill only uses leftover
  // GPUs the head cannot use, but can extend the head's wait if a backfilled
  // job outlives the blocker — here they don't).
  Trace t(one_node());
  t.add(0, 100, 4, 4, "u", "vc0", "running", JobState::kCompleted);
  t.add(1, 1000, 8, 8, "u", "vc0", "head", JobState::kCompleted);
  for (int i = 0; i < 20; ++i) {
    t.add(2 + i, 20, 2, 2, "u", "vc0", "tiny", JobState::kCompleted);
  }
  t.sort_by_submit_time();
  const auto r = run(t, true);
  EXPECT_NE(r.outcomes[1].start, trace::kNeverStarted);
  EXPECT_GE(r.outcomes[1].start, 100);
}

TEST(Backfill, ImprovesUtilizationOnRealisticWorkload) {
  auto cfg = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"), 23,
                                            0.05);
  const Trace t = trace::SyntheticTraceGenerator(cfg).generate();
  const auto with = run(t, true);
  const auto without = run(t, false);
  double busy_with = 0.0;
  double busy_without = 0.0;
  for (double v : with.busy_gpus.values) busy_with += v;
  for (double v : without.busy_gpus.values) busy_without += v;
  EXPECT_GT(busy_with, busy_without * 0.99);  // never worse
  EXPECT_LT(with.avg_queue_delay, without.avg_queue_delay);
}

TEST(Backfill, ConservationOfJobs) {
  auto cfg = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"), 29,
                                            0.02);
  const Trace t = trace::SyntheticTraceGenerator(cfg).generate();
  const auto r = run(t, true);
  for (const auto& o : r.outcomes) {
    if (o.rejected) continue;
    EXPECT_NE(o.start, trace::kNeverStarted);
    EXPECT_GE(o.start, o.submit);
    EXPECT_EQ(o.end, o.start + t.jobs()[o.trace_index].duration);
  }
}

TEST(Backfill, RespectsGangSemantics) {
  // A backfilled job must still be gang-placed: 16 GPUs cannot run on a
  // 1-node VC even when idle.
  Trace t(one_node());
  t.add(0, 100, 4, 4, "u", "vc0", "a", JobState::kCompleted);
  t.add(1, 10, 16, 16, "u", "vc0", "too_big", JobState::kCompleted);
  t.sort_by_submit_time();
  const auto r = run(t, true);
  EXPECT_TRUE(r.outcomes[1].rejected);
}

}  // namespace
}  // namespace helios::sim
