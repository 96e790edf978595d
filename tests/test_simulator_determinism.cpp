// Sharded-vs-serial determinism of the VC-sharded simulator.
//
// ClusterSimulator runs one VcSimulator per VC, concurrently under
// common::ExecMode::kParallel. This suite asserts the parallel run's SimResult
// is *identical* to the retained serial reference (common::ExecMode::kSerial):
// results_identical compares every field bit for bit — outcomes, counters,
// per-VC stats, the busy series and the energy accounting — across all five
// policies, backfill on/off, power caps on/off, and several synthetic-trace
// seeds.
#include <gtest/gtest.h>

#include <map>

#include "sim/simulator.h"
#include "trace/synthetic.h"

namespace helios::sim {
namespace {

using trace::Trace;

const Trace& venus_trace(std::uint64_t seed) {
  static std::map<std::uint64_t, Trace> cache;
  auto it = cache.find(seed);
  if (it == cache.end()) {
    auto cfg = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"),
                                              seed, 0.02);
    it = cache.emplace(seed, trace::SyntheticTraceGenerator(cfg).generate())
             .first;
  }
  return it->second;
}

// A binding-but-not-degenerate cap for `spec`: the all-active idle baseline
// plus enough headroom to run ~30% of the cluster's GPUs at the default
// per-GPU draw. Low enough to gate placements under load spikes, high enough
// that work still flows.
double binding_cap(const trace::ClusterSpec& spec) {
  std::int64_t nodes = 0;
  std::int64_t gpus = 0;
  for (const auto& vc : spec.vcs) {
    nodes += vc.nodes;
    gpus += static_cast<std::int64_t>(vc.nodes) * vc.gpus_per_node;
  }
  const core::PowerProfile profile;
  return profile.idle_node_watts * static_cast<double>(nodes) +
         profile.gpu_watts * static_cast<double>(gpus) * 0.3;
}

struct Case {
  SchedulerPolicy policy;
  bool backfill;
  bool capped;
  std::uint64_t seed;
};

class ShardedDeterminismTest : public ::testing::TestWithParam<Case> {};

TEST_P(ShardedDeterminismTest, ShardedMatchesSerialReference) {
  const Case c = GetParam();
  const Trace& t = venus_trace(c.seed);

  SimConfig cfg;
  cfg.policy = c.policy;
  cfg.backfill = c.backfill;
  if (c.capped) cfg.power_cap_watts = binding_cap(t.cluster());
  if (c.policy == SchedulerPolicy::kQssf ||
      c.policy == SchedulerPolicy::kEnergyQssf) {
    cfg.priority_fn = [](const trace::JobRecord& j) {
      return static_cast<double>(j.duration) * j.num_gpus;
    };
  }

  cfg.execution = common::ExecMode::kSerial;
  const SimResult serial = ClusterSimulator(t.cluster(), cfg).run(t);

  cfg.execution = common::ExecMode::kParallel;
  const SimResult sharded = ClusterSimulator(t.cluster(), cfg).run(t);
  EXPECT_TRUE(results_identical(serial, sharded));

  // Sharded runs must also be stable across repetitions (no dependence on
  // thread scheduling).
  const SimResult again = ClusterSimulator(t.cluster(), cfg).run(t);
  EXPECT_TRUE(results_identical(sharded, again));
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const auto policy : all_policies()) {
    for (const bool backfill : {false, true}) {
      for (const bool capped : {false, true}) {
        for (const std::uint64_t seed : {7ull, 19ull}) {
          cases.push_back({policy, backfill, capped, seed});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllPoliciesBackfillCapsSeeds, ShardedDeterminismTest,
                         ::testing::ValuesIn(all_cases()),
                         [](const auto& info) {
                           return std::string(to_string(info.param.policy)) +
                                  (info.param.backfill ? "Backfill" : "") +
                                  (info.param.capped ? "Capped" : "") +
                                  "Seed" + std::to_string(info.param.seed);
                         });

// Fault-injected runs: same sharded-vs-serial bit-identity, now with node
// failures killing jobs, removing capacity, and requeueing work mid-run —
// across policies, backfill, failure rates, restart semantics, and seeds.
struct FaultCase {
  SchedulerPolicy policy;
  bool backfill;
  bool capped;
  double mtbf_days;  ///< 0 = no fault plan attached
  FaultRestart restart;
  std::uint64_t seed;
};

class FaultShardedDeterminismTest
    : public ::testing::TestWithParam<FaultCase> {};

TEST_P(FaultShardedDeterminismTest, ShardedMatchesSerialUnderFaults) {
  const FaultCase c = GetParam();
  const Trace& t = venus_trace(c.seed);

  FaultPlan plan;
  SimConfig cfg;
  cfg.policy = c.policy;
  cfg.backfill = c.backfill;
  cfg.restart = c.restart;
  if (c.policy == SchedulerPolicy::kQssf ||
      c.policy == SchedulerPolicy::kEnergyQssf) {
    cfg.priority_fn = [](const trace::JobRecord& j) {
      return static_cast<double>(j.duration) * j.num_gpus;
    };
  }
  // Power-gated admission through the fault path: kills and recoveries move
  // the baseline and the run draw, so the cap check must stay deterministic.
  if (c.capped) cfg.power_cap_watts = binding_cap(t.cluster());
  if (c.mtbf_days > 0.0) {
    FaultPlanConfig fp;
    fp.mtbf_days = c.mtbf_days;
    fp.flaky_fraction = 0.25;
    fp.seed = c.seed;
    const auto& jobs = t.jobs();
    const UnixTime begin = jobs.front().submit_time;
    const UnixTime end = jobs.back().submit_time + 14 * 86400;
    plan = FaultPlan::generate(t.cluster(), fp, begin, end);
    cfg.fault_plan = &plan;
  }

  cfg.execution = common::ExecMode::kSerial;
  const SimResult serial = ClusterSimulator(t.cluster(), cfg).run(t);

  cfg.execution = common::ExecMode::kParallel;
  const SimResult sharded = ClusterSimulator(t.cluster(), cfg).run(t);
  EXPECT_TRUE(results_identical(serial, sharded));

  const SimResult again = ClusterSimulator(t.cluster(), cfg).run(t);
  EXPECT_TRUE(results_identical(sharded, again));

  if (c.mtbf_days > 0.0 && c.mtbf_days <= 30.0) {
    // A churn-level plan over a months-long window must actually exercise
    // the fault path, or this sweep tests nothing. Under the binding power
    // cap few enough jobs run that failures may only ever hit idle nodes, so
    // the kill expectation applies to the uncapped cases.
    EXPECT_GT(serial.node_failures, 0);
    if (!c.capped) EXPECT_GT(serial.job_kills, 0);
  }
}

std::vector<FaultCase> fault_cases() {
  std::vector<FaultCase> cases;
  auto add = [&cases](SchedulerPolicy policy, bool capped) {
    for (const bool backfill : {false, true}) {
      for (const double mtbf : {30.0, 7.0}) {
        for (const std::uint64_t seed : {7ull, 19ull}) {
          const auto restart = (seed % 2 == 1) == backfill
                                   ? FaultRestart::kResume
                                   : FaultRestart::kRestart;
          cases.push_back({policy, backfill, capped, mtbf, restart, seed});
        }
      }
    }
  };
  for (const auto policy : all_policies()) add(policy, false);
  add(SchedulerPolicy::kFifo, true);  // budget-constrained FIFO admission
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesBackfillRatesSeeds, FaultShardedDeterminismTest,
    ::testing::ValuesIn(fault_cases()), [](const auto& info) {
      return std::string(to_string(info.param.policy)) +
             (info.param.backfill ? "Backfill" : "") +
             (info.param.capped ? "Capped" : "") + "Mtbf" +
             std::to_string(static_cast<int>(info.param.mtbf_days)) +
             (info.param.restart == FaultRestart::kResume ? "Resume"
                                                          : "Restart") +
             "Seed" + std::to_string(info.param.seed);
    });

// Failure-aware placement: a node_order permutation must preserve the
// sharded/serial bit-identity too (fault events are remapped per shard).
TEST(FaultShardedDeterminism, NodeOrderPermutationStaysDeterministic) {
  const Trace& t = venus_trace(7);
  FaultPlanConfig fp;
  fp.mtbf_days = 10.0;
  fp.flaky_fraction = 0.3;
  fp.seed = 99;
  const auto& jobs = t.jobs();
  const FaultPlan plan =
      FaultPlan::generate(t.cluster(), fp, jobs.front().submit_time,
                          jobs.back().submit_time + 14 * 86400);

  SimConfig cfg;
  cfg.policy = SchedulerPolicy::kFifo;
  cfg.backfill = true;
  cfg.fault_plan = &plan;
  // Reverse every VC's placement order — a maximal relabeling.
  for (const auto& vc : t.cluster().vcs) {
    std::vector<std::int32_t> order(static_cast<std::size_t>(vc.nodes));
    for (int i = 0; i < vc.nodes; ++i) {
      order[static_cast<std::size_t>(i)] = vc.nodes - 1 - i;
    }
    cfg.node_order.push_back(std::move(order));
  }

  cfg.execution = common::ExecMode::kSerial;
  const SimResult serial = ClusterSimulator(t.cluster(), cfg).run(t);
  cfg.execution = common::ExecMode::kParallel;
  const SimResult sharded = ClusterSimulator(t.cluster(), cfg).run(t);
  EXPECT_TRUE(results_identical(serial, sharded));
}

// With a homogeneous power profile and no faults, SimConfig::node_order only
// re-labels which physical node a gang lands on — the schedule, the busy
// counts, and with them the draw, are label-invariant. The whole result,
// energy outputs included, must therefore be bit-identical between id-order
// and any permutation.
TEST(ShardedDeterminism, NodeOrderPermutationEnergyInvariant) {
  const Trace& t = venus_trace(7);

  SimConfig cfg;
  cfg.policy = SchedulerPolicy::kFifo;
  cfg.backfill = true;
  const SimResult id_order = ClusterSimulator(t.cluster(), cfg).run(t);

  for (const auto& vc : t.cluster().vcs) {
    std::vector<std::int32_t> order(static_cast<std::size_t>(vc.nodes));
    for (int i = 0; i < vc.nodes; ++i) {
      order[static_cast<std::size_t>(i)] = vc.nodes - 1 - i;
    }
    cfg.node_order.push_back(std::move(order));
  }
  const SimResult permuted = ClusterSimulator(t.cluster(), cfg).run(t);

  EXPECT_TRUE(results_identical(id_order, permuted));
}

// A hand-built multi-VC trace with same-timestamp arrivals and finishes in
// different VCs: the classic race surface for a sharded event loop.
TEST(ShardedDeterminism, TinyCrossVcTrace) {
  trace::ClusterSpec s;
  s.name = "two";
  s.gpus_per_node = 8;
  s.vcs = {{"vc0", 2, 8}, {"vc1", 1, 8}};
  s.nodes = 3;
  Trace t(s);
  t.add(0, 100, 8, 8, "u0", "vc0", "a", trace::JobState::kCompleted);
  t.add(0, 100, 8, 8, "u1", "vc1", "b", trace::JobState::kCompleted);
  t.add(100, 50, 16, 16, "u0", "vc0", "c", trace::JobState::kCompleted);
  t.add(100, 50, 8, 8, "u1", "vc1", "d", trace::JobState::kCompleted);
  t.add(100, 5, 2, 2, "u2", "vc0", "e", trace::JobState::kCompleted);
  t.sort_by_submit_time();

  for (const bool backfill : {false, true}) {
    SimConfig cfg;
    cfg.policy = SchedulerPolicy::kFifo;
    cfg.backfill = backfill;
    cfg.execution = common::ExecMode::kSerial;
    const SimResult serial = ClusterSimulator(s, cfg).run(t);
    cfg.execution = common::ExecMode::kParallel;
    const SimResult sharded = ClusterSimulator(s, cfg).run(t);
    EXPECT_TRUE(results_identical(serial, sharded));
  }
}

}  // namespace
}  // namespace helios::sim
