// Energy accounting and the energy-aware policy family, end to end: the
// PowerProfile arithmetic, hand-computed energy/power outputs of single runs,
// the energy-conservation property (per-VC energies sum exactly to the
// cluster energy; the bucket integrator is add-order independent), the
// order in which the peak sweep adds equal-time power edges, the
// cap-is-respected invariant across all policies × backfill × seeds, the
// budget-constrained admission / power-proportional backfill semantics on
// hand-built traces, predicted-energy ordering of kEnergyQssf, and
// serial-vs-sharded bit-parity of every new counter through
// results_identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "core/power_model.h"
#include "golden_digest.h"
#include "sim/bucket_integrator.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"

namespace helios::sim {
namespace {

using trace::JobState;
using trace::Trace;

trace::ClusterSpec one_vc_spec(int nodes, int gpn = 8) {
  trace::ClusterSpec s;
  s.name = "one";
  s.gpus_per_node = gpn;
  s.vcs = {{"vc0", nodes, gpn}};
  s.nodes = nodes;
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

// The all-active idle baseline plus ~30% of the GPUs at the default draw:
// binding under load spikes, loose enough that work still flows.
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

// ---------------------------------------------------------------------------
// PowerProfile / policy registry
// ---------------------------------------------------------------------------

TEST(PowerProfile, BaselineWattsBillsEveryPowerState) {
  core::PowerProfile p;
  p.idle_node_watts = 800.0;
  p.boot_node_watts = 700.0;
  p.sleep_node_watts = 10.0;
  p.failed_node_watts = 5.0;
  EXPECT_EQ(p.baseline_watts(3, 2, 4, 1), 800.0 * 3 + 700.0 * 2 + 10.0 * 4 + 5.0);
  EXPECT_EQ(p.baseline_watts(0, 0, 0, 0), 0.0);
  EXPECT_EQ(core::PowerProfile{}, core::PowerProfile{});
}

TEST(PowerPolicies, RegistryHoldsTheEnergyFamily) {
  // Budget-constrained FIFO is kFifo on a capped config, not a policy.
  EXPECT_EQ(all_policies().size(), 5u);
  EXPECT_EQ(to_string(SchedulerPolicy::kEnergyQssf), "EQSSF");
  std::set<std::string_view> names;
  for (SchedulerPolicy p : all_policies()) names.insert(to_string(p));
  EXPECT_EQ(names.size(), all_policies().size());
  EXPECT_EQ(names.count("?"), 0u);
}

// ---------------------------------------------------------------------------
// Hand-computed energy accounting
// ---------------------------------------------------------------------------

TEST(EnergyAccounting, SingleJobMatchesHandComputedIntegral) {
  // One 8-GPU node, one 1000 s job at t=0. Series window = [0, 1001):
  //   [0, 1000):  800 idle + 8 × 300 job = 3200 W
  //   [1000, 1001): idle baseline only   =  800 W
  const auto spec = one_vc_spec(1);
  const auto t = make_trace(spec, {{0, 1000, 8, "vc0"}});
  const SimResult r = ClusterSimulator(spec, SimConfig{}).run(t);

  EXPECT_EQ(r.energy_joules, 3200.0 * 1000 + 800.0);
  EXPECT_EQ(r.max_power_watts, 3200.0);
  ASSERT_EQ(r.vc_stats.size(), 1u);
  EXPECT_EQ(r.vc_stats[0].energy_joules, r.energy_joules);

  // Mean power: bucket 0 is fully busy; bucket 1 holds the 400 s busy tail
  // plus one second of idle, spread over the 600 s step.
  ASSERT_EQ(r.power_watts.values.size(), 2u);
  EXPECT_EQ(r.power_watts.values[0], 3200.0);
  EXPECT_EQ(r.power_watts.values[1], (3200.0 * 400 + 800.0) / 600.0);
  // Peak power: the 3200 W plateau spans both buckets.
  ASSERT_EQ(r.peak_power_watts.values.size(), 2u);
  EXPECT_EQ(r.peak_power_watts.values[0], 3200.0);
  EXPECT_EQ(r.peak_power_watts.values[1], 3200.0);
}

TEST(EnergyAccounting, GpuWattsFnOverridesTheProfileDraw) {
  const auto spec = one_vc_spec(1);
  const auto t = make_trace(spec, {{0, 1000, 8, "vc0"}});
  SimConfig cfg;
  cfg.gpu_watts_fn = [](const trace::JobRecord&) { return 150.0; };
  const SimResult r = ClusterSimulator(spec, cfg).run(t);
  EXPECT_EQ(r.energy_joules, (800.0 + 8 * 150.0) * 1000 + 800.0);
  EXPECT_EQ(r.max_power_watts, 2000.0);
}

TEST(EnergyAccounting, WorkloadFreeVcBillsItsIdleBaseline) {
  // vc1 never sees a job, so it spawns no shard — its idle draw must still
  // be billed analytically, and the per-VC energies must sum *exactly* to
  // the cluster energy.
  trace::ClusterSpec spec;
  spec.name = "two";
  spec.gpus_per_node = 8;
  spec.vcs = {{"vc0", 2, 8}, {"vc1", 3, 8}};
  spec.nodes = 5;
  const auto t = make_trace(spec, {{0, 100, 8, "vc0"}});  // window [0, 101)
  const SimResult r = ClusterSimulator(spec, SimConfig{}).run(t);

  ASSERT_EQ(r.vc_stats.size(), 2u);
  EXPECT_EQ(r.vc_stats[0].energy_joules, 800.0 * 2 * 101 + 2400.0 * 100);
  EXPECT_EQ(r.vc_stats[1].energy_joules, 800.0 * 3 * 101);
  EXPECT_EQ(r.energy_joules,
            r.vc_stats[0].energy_joules + r.vc_stats[1].energy_joules);
}

TEST(EnergyAccounting, PerVcEnergiesSumToClusterEnergyOnRealWorkloads) {
  const auto cfg_gen =
      trace::GeneratorConfig::helios(trace::helios_cluster("Venus"), 7, 0.02);
  const Trace t = trace::SyntheticTraceGenerator(cfg_gen).generate();
  for (const auto& [policy, cap_watts] :
       {std::pair{SchedulerPolicy::kFifo, 0.0},
        std::pair{SchedulerPolicy::kSrtf, 0.0},
        std::pair{SchedulerPolicy::kFifo, binding_cap(t.cluster())}}) {
    SimConfig cfg;
    cfg.policy = policy;
    cfg.backfill = true;
    cfg.power_cap_watts = cap_watts;
    const SimResult r = ClusterSimulator(t.cluster(), cfg).run(t);
    ASSERT_GT(r.energy_joules, 0.0);
    double sum = 0.0;
    for (const auto& vc : r.vc_stats) sum += vc.energy_joules;
    // Exact, not approximate: the merge sums the same terms in the same
    // order (and the default profile keeps every term integer-valued).
    EXPECT_EQ(sum, r.energy_joules) << to_string(policy);
  }
}

TEST(EnergyAccounting, PeakSeriesAddsEqualTimeEdgesInVcOrder) {
  // Fractional per-GPU draws make the peak sweep's running sum round, so
  // the order in which it adds equal-time power edges shows in the last
  // bits. Submits and durations in whole minutes make the three VCs' edges
  // coincide often. The sweep adds them VC by VC, each VC's in its own time
  // order; the digests were recorded from a stable sort of the VC-ordered
  // edges by time.
  trace::ClusterSpec spec;
  spec.name = "minutes";
  spec.gpus_per_node = 8;
  spec.vcs = {{"a", 2, 8}, {"b", 1, 8}, {"c", 1, 8}};
  spec.nodes = 4;
  Trace t(spec);
  static constexpr const char* kVcs[] = {"a", "b", "c"};
  std::uint64_t rng = 7;
  std::int64_t now = 0;
  for (int i = 0; i < 240; ++i) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    now += 60 * static_cast<std::int64_t>((rng >> 33) % 3);
    const auto gpus = static_cast<int>(1u << ((rng >> 40) % 4));
    const auto dur = static_cast<int>(60 * (1 + (rng >> 45) % 30));
    t.add(now, dur, gpus, gpus, "u", kVcs[(rng >> 50) % 3], "j",
          JobState::kCompleted);
  }
  std::vector<std::string> digests;
  for (const SchedulerPolicy policy :
       {SchedulerPolicy::kFifo, SchedulerPolicy::kSrtf}) {
    SimConfig cfg;
    cfg.policy = policy;
    cfg.backfill = true;
    cfg.gpu_watts_fn = [](const trace::JobRecord& j) {
      return 150.0 + 0.1 * static_cast<double>(j.job_id % 97);
    };
    const SimResult r = ClusterSimulator(t.cluster(), cfg).run(t);
    digests.push_back(
        golden::Fnv().add(r.max_power_watts).add(r.peak_power_watts).hex());
  }
  EXPECT_EQ(digests, (std::vector<std::string>{"d36697ca20480d76",
                                              "1b9aae153bf7a580"}));
}

TEST(EnergyAccounting, BucketIntegratorIsAddOrderIndependent) {
  // Integer-valued watts × integer durations: permuting add() order must
  // reproduce the series bit-for-bit (the property the sharded merge leans
  // on).
  const std::vector<std::tuple<std::int64_t, std::int64_t, double>> segments =
      {{0, 950, 3200.0}, {120, 1800, 800.0},  {950, 1001, 800.0},
       {30, 30000, 1.0}, {600, 1200, 1600.0}, {0, 5, 7.0}};
  BucketIntegrator fwd(0, 2000, 600);
  for (const auto& [t0, t1, w] : segments) fwd.add(t0, t1, w);
  BucketIntegrator rev(0, 2000, 600);
  for (auto it = segments.rbegin(); it != segments.rend(); ++it) {
    rev.add(std::get<0>(*it), std::get<1>(*it), std::get<2>(*it));
  }
  const auto a = fwd.mean_series();
  const auto b = rev.mean_series();
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_EQ(a.values[i], b.values[i]) << "bucket " << i;
  }
}

// ---------------------------------------------------------------------------
// Budget-constrained admission
// ---------------------------------------------------------------------------

TEST(PowerCap, AdmissionDelaysWorkAndCutsInWindowEnergy) {
  // Two 8-GPU nodes (idle 1600 W), two full-node 100 s jobs at t=0. One
  // running job draws 1600 + 2400 = 4000 W; both together 6400 W. A 4500 W
  // cap therefore serializes them.
  const auto spec = one_vc_spec(2);
  const auto t = make_trace(spec, {{0, 100, 8, "vc0"}, {0, 100, 8, "vc0"}});

  SimConfig cfg;
  const SimResult uncapped = ClusterSimulator(spec, cfg).run(t);
  EXPECT_EQ(uncapped.outcomes[0].start, 0);
  EXPECT_EQ(uncapped.outcomes[1].start, 0);
  EXPECT_EQ(uncapped.max_power_watts, 6400.0);
  // Window [0, 101): baseline 1600 × 101 + two jobs × 2400 × 100.
  EXPECT_EQ(uncapped.energy_joules, 1600.0 * 101 + 2 * 2400.0 * 100);

  cfg.power_cap_watts = 4500.0;  // kFifo: budget-constrained admission
  const SimResult capped = ClusterSimulator(spec, cfg).run(t);
  EXPECT_EQ(capped.outcomes[0].start, 0);
  EXPECT_EQ(capped.outcomes[1].start, 100);  // waited for power headroom
  EXPECT_EQ(capped.outcomes[1].end, 200);
  EXPECT_EQ(capped.max_power_watts, 4000.0);
  // Job 2 spills past the fixed window; only its first second is billed
  // in-window: the energy-vs-JCT tradeoff in miniature.
  EXPECT_EQ(capped.energy_joules, 1600.0 * 101 + 2400.0 * 100 + 2400.0);
  EXPECT_LT(capped.energy_joules, uncapped.energy_joules);
  EXPECT_GT(capped.avg_jct, uncapped.avg_jct);
}

TEST(PowerCap, GateAppliesToEveryPolicy) {
  const auto spec = one_vc_spec(2);
  const auto t = make_trace(spec, {{0, 100, 8, "vc0"}, {0, 100, 8, "vc0"}});
  for (SchedulerPolicy policy : all_policies()) {
    SimConfig cfg;
    cfg.policy = policy;
    cfg.power_cap_watts = 4500.0;
    if (policy == SchedulerPolicy::kQssf ||
        policy == SchedulerPolicy::kEnergyQssf) {
      cfg.priority_fn = [](const trace::JobRecord& j) {
        return static_cast<double>(j.duration) * j.num_gpus;
      };
    }
    const SimResult r = ClusterSimulator(spec, cfg).run(t);
    EXPECT_EQ(r.max_power_watts, 4000.0) << to_string(policy);
  }
}

TEST(PowerCap, BackfillIsPowerProportional) {
  // Head job A (4000 W projected) runs; B (another full node, 6400 W) is
  // power-blocked; tiny C (1 GPU, +300 W -> 4300 W <= 4500 W) may start at
  // t=0 only via power-proportional backfill.
  const auto spec = one_vc_spec(2);
  const auto t = make_trace(
      spec, {{0, 100, 8, "vc0"}, {0, 100, 8, "vc0"}, {0, 50, 1, "vc0"}});

  SimConfig cfg;
  cfg.policy = SchedulerPolicy::kFifo;
  cfg.power_cap_watts = 4500.0;
  const SimResult head_of_line = ClusterSimulator(spec, cfg).run(t);
  EXPECT_EQ(head_of_line.outcomes[2].start, 100);  // stuck behind blocked B

  cfg.backfill = true;
  const SimResult backfilled = ClusterSimulator(spec, cfg).run(t);
  EXPECT_EQ(backfilled.outcomes[0].start, 0);
  EXPECT_EQ(backfilled.outcomes[1].start, 100);  // still over budget at t=0
  EXPECT_EQ(backfilled.outcomes[2].start, 0);    // fits GPUs *and* watts
  EXPECT_LE(backfilled.max_power_watts, 4500.0);
}

TEST(PowerCap, HeadroomExitStartsCheapCandidateWhenDrawFrees) {
  // Two 8-GPU nodes (idle 1600 W), cap 4500 W, backfill_depth 4. A (8 GPUs)
  // and D (1 GPU) run from t=0 at 4300 W. At t=1 the head H (8 GPUs,
  // +2400 W) is power-blocked ahead of seven candidates, more than the
  // depth: six over-budget 2-GPU jobs (+600 W) and one cheap 1-GPU job C
  // (+300 W), fourth in line. At 4300 W even the cheapest queued draw busts
  // the cap, so no candidate can start; D's completion at t=50 frees 300 W
  // and C starts at exactly that second while the 2-GPU jobs keep waiting.
  const auto spec = one_vc_spec(2);
  const auto t = make_trace(
      spec, {{0, 100, 8, "vc0"}, {0, 50, 1, "vc0"},  // A, D
             {1, 100, 8, "vc0"},                     // H
             {1, 50, 2, "vc0"}, {1, 50, 2, "vc0"}, {1, 50, 2, "vc0"},
             {1, 50, 1, "vc0"},                      // C
             {1, 50, 2, "vc0"}, {1, 50, 2, "vc0"}, {1, 50, 2, "vc0"}});
  SimConfig cfg;
  cfg.backfill = true;
  cfg.backfill_depth = 4;
  cfg.power_cap_watts = 4500.0;
  const SimResult r = ClusterSimulator(spec, cfg).run(t);

  EXPECT_EQ(r.outcomes[1].end, 50);     // D frees 300 W
  EXPECT_EQ(r.outcomes[6].start, 50);   // C, the one cheap candidate
  EXPECT_EQ(r.outcomes[2].start, 100);  // H once A and C end: 4000 W
  for (const std::size_t i : {3u, 4u, 5u, 7u}) {
    EXPECT_EQ(r.outcomes[i].start, 200) << i;  // 1600 + 4 × 600 W
  }
  for (const std::size_t i : {8u, 9u}) EXPECT_EQ(r.outcomes[i].start, 250) << i;
  EXPECT_LE(r.max_power_watts, 4500.0);
}

TEST(PowerCap, HeadroomExitHandlesZeroAndNegativeDraws) {
  // One 8-GPU node (idle 800 W), cap 3000 W; the per-GPU draw is keyed on
  // duration. A (4 GPUs at 500 W) runs from t=0 at 2800 W. At t=1 the head
  // H (4 GPUs at 300 W, +1200 W) is power-blocked ahead of X (2 GPUs at
  // 300 W, +600 W: over budget) and Z (2 GPUs). H and X start when A ends.
  // Window [0, 101): the last second draws 800 + 1200 + 600 = 2600 W.
  const auto spec = one_vc_spec(1);
  const auto t = make_trace(spec, {{0, 100, 4, "vc0"},    // A
                                   {1, 90, 4, "vc0"},     // H
                                   {1, 30, 2, "vc0"},     // X
                                   {1, 40, 2, "vc0"}});   // Z
  auto watts_with_z = [](double z_watts) {
    return [z_watts](const trace::JobRecord& j) {
      if (j.duration == 100) return 500.0;
      if (j.duration == 40) return z_watts;
      return 300.0;
    };
  };
  SimConfig cfg;
  cfg.backfill = true;
  cfg.power_cap_watts = 3000.0;

  // Z at 0 W/GPU: the bound degenerates to 2 × 0 W, which fits, so the scan
  // runs and Z backfills at t=1 without moving the draw.
  cfg.gpu_watts_fn = watts_with_z(0.0);
  const SimResult zero = ClusterSimulator(spec, cfg).run(t);
  EXPECT_EQ(zero.outcomes[3].start, 1);
  EXPECT_EQ(zero.outcomes[1].start, 100);
  EXPECT_EQ(zero.outcomes[2].start, 100);
  EXPECT_EQ(zero.energy_joules, 2800.0 * 100 + 2600.0);

  // Z at -100 W/GPU: no lower bound exists, so the exit is off. (The
  // smallest non-negative draw, 2 × 300 W, would bust the cap and wrongly
  // skip Z.) Z backfills at t=1 and cuts the draw by 200 W for 40 s.
  cfg.gpu_watts_fn = watts_with_z(-100.0);
  const SimResult negative = ClusterSimulator(spec, cfg).run(t);
  EXPECT_EQ(negative.outcomes[3].start, 1);
  EXPECT_EQ(negative.outcomes[1].start, 100);
  EXPECT_EQ(negative.outcomes[2].start, 100);
  EXPECT_EQ(negative.energy_joules, 2800.0 * 100 - 200.0 * 40 + 2600.0);
}

// The invariant sweep: across every policy × backfill × seed, the modeled
// draw never exceeds the enforceable bound — each VC stays at or under
// max(its idle baseline, its capacity-proportional cap share), so the
// cluster stays under the sum. With hardware-uniform VCs that sum is the cap
// itself. Also pins serial ≡ sharded bit-parity of all new counters.
TEST(PowerCap, CapIsRespectedAcrossPoliciesBackfillSeeds) {
  for (const std::uint64_t seed : {7ull, 19ull}) {
    const auto cfg_gen = trace::GeneratorConfig::helios(
        trace::helios_cluster("Venus"), seed, 0.02);
    const Trace t = trace::SyntheticTraceGenerator(cfg_gen).generate();
    const auto& spec = t.cluster();

    std::int64_t gpus = 0;
    for (const auto& vc : spec.vcs) {
      gpus += static_cast<std::int64_t>(vc.nodes) * vc.gpus_per_node;
    }
    const core::PowerProfile profile;
    const double cap = binding_cap(spec);
    double bound = 0.0;  // sum over VCs of max(baseline, cap share)
    for (const auto& vc : spec.vcs) {
      const double share =
          cap * (static_cast<double>(vc.nodes) * vc.gpus_per_node) /
          static_cast<double>(gpus);
      bound += std::max(share, profile.idle_node_watts * vc.nodes);
    }

    for (SchedulerPolicy policy : all_policies()) {
      for (const bool backfill : {false, true}) {
        SimConfig cfg;
        cfg.policy = policy;
        cfg.backfill = backfill;
        cfg.power_cap_watts = cap;
        if (policy == SchedulerPolicy::kQssf ||
            policy == SchedulerPolicy::kEnergyQssf) {
          cfg.priority_fn = [](const trace::JobRecord& j) {
            return static_cast<double>(j.duration) * j.num_gpus;
          };
        }
        cfg.execution = common::ExecMode::kSerial;
        const SimResult serial = ClusterSimulator(spec, cfg).run(t);
        cfg.execution = common::ExecMode::kParallel;
        const SimResult sharded = ClusterSimulator(spec, cfg).run(t);

        EXPECT_LE(serial.max_power_watts, bound + 1e-6)
            << to_string(policy) << " backfill=" << backfill
            << " seed=" << seed;
        EXPECT_GT(serial.energy_joules, 0.0);
        EXPECT_TRUE(results_identical(serial, sharded))
            << to_string(policy) << " backfill=" << backfill
            << " seed=" << seed;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// kEnergyQssf ordering
// ---------------------------------------------------------------------------

TEST(EnergyQssf, OrdersByPredictedEnergyNotGpuTime) {
  // One node. A runs first under both orderings. B is long but power-cheap
  // (predicted energy 1000 s × 8 GPUs × 100 W = 0.8 MJ); C is short but
  // power-hungry (200 × 8 × 600 = 0.96 MJ). QSSF (GPU time: 8000 vs 1600)
  // runs C before B; EQSSF flips that.
  const auto spec = one_vc_spec(1);
  const auto t = make_trace(
      spec, {{0, 100, 8, "vc0"}, {0, 1000, 8, "vc0"}, {0, 200, 8, "vc0"}});
  auto watts_by_duration = [](const trace::JobRecord& j) {
    if (j.duration == 1000) return 100.0;
    if (j.duration == 200) return 600.0;
    return 300.0;
  };
  auto oracle = [](const trace::JobRecord& j) {
    return static_cast<double>(j.duration) * j.num_gpus;
  };

  SimConfig cfg;
  cfg.policy = SchedulerPolicy::kQssf;
  cfg.priority_fn = oracle;
  cfg.gpu_watts_fn = watts_by_duration;
  const SimResult qssf = ClusterSimulator(spec, cfg).run(t);
  EXPECT_LT(qssf.outcomes[2].start, qssf.outcomes[1].start);

  cfg.policy = SchedulerPolicy::kEnergyQssf;
  const SimResult eqssf = ClusterSimulator(spec, cfg).run(t);
  EXPECT_LT(eqssf.outcomes[1].start, eqssf.outcomes[2].start);
  EXPECT_EQ(eqssf.outcomes[0].start, 0);  // cheapest predicted energy first
}

}  // namespace
}  // namespace helios::sim
