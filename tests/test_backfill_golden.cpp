// Golden digests of policy-queue replays, with and without greedy backfill.
//
// Each cell runs one small, congested three-VC trace through ClusterSimulator
// and hashes every SimResult field (outcomes, counters, per-VC stats,
// busy/power series, energy) into one FNV-1a digest. The grid crosses every
// policy with backfill off or on at three window depths, an uncapped and a
// tight power budget, and four per-GPU draw models: the profile default, a
// per-job draw, and that per-job draw with one negative or one NaN entry
// (which switch off the backfill headroom exit). The trace includes jobs that
// demand more GPUs than their VC holds; they are visited by backfill passes
// and rejected once they reach the head. A further set of cells runs every
// policy without backfill under a dense node-failure plan, with both restart
// semantics, so killed jobs re-enter the queue mid-run.
//
// The backfill digests were recorded from the std::set/per-entry-scan
// implementation of the backfill pass; the no-backfill and fault digests
// from the three-backend policy queue (a lazy-deletion heap served the
// ordered policies without backfill). Any change to the queue or the scan
// must reproduce all of them.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <type_traits>

#include "golden_digest.h"
#include "sim/simulator.h"

namespace helios::sim {
namespace {

using trace::JobState;
using trace::Trace;

constexpr std::uint64_t kNegativeJob = 200;  // draws -200 W/GPU (kNegative)
constexpr std::uint64_t kNanJob = 240;       // draws NaN W/GPU (kNan)

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// 360 jobs over three VCs of 32, 12 and 16 GPUs, arriving about every 25 s
/// with durations up to ~1 h, so queues stay long behind blocked heads. About
/// 5% demand 32 GPUs (more than VCs b and c hold) and 8% demand 16 (more
/// than VC b holds).
const Trace& golden_trace() {
  static const Trace t = [] {
    trace::ClusterSpec s;
    s.name = "golden";
    s.gpus_per_node = 8;
    s.vcs = {{"a", 4, 8}, {"b", 3, 4}, {"c", 2, 8}};
    s.nodes = 9;
    Trace tr(s);
    std::uint64_t rng = 20211114;
    std::int64_t now = 0;
    static constexpr const char* kVcs[] = {"a", "b", "c"};
    for (int i = 0; i < 360; ++i) {
      now += static_cast<std::int64_t>(splitmix(rng) % 50);
      const std::uint64_t g = splitmix(rng) % 100;
      std::int32_t gpus = g < 40   ? 1
                          : g < 60 ? 2
                          : g < 75 ? 4
                          : g < 87 ? 8
                          : g < 95 ? 16
                                   : 32;
      const char* vc = kVcs[splitmix(rng) % 3];
      if (i == static_cast<int>(kNegativeJob) ||
          i == static_cast<int>(kNanJob)) {
        gpus = 1;
        vc = "a";
      }
      const auto dur = static_cast<std::int32_t>(
          (splitmix(rng) % 60) * (splitmix(rng) % 60 + 1));
      tr.add(now, dur, gpus, gpus, "u", vc, "j", JobState::kCompleted);
    }
    tr.sort_by_submit_time();
    return tr;
  }();
  return t;
}

enum class Watts { kProfile, kPerJob, kNegative, kNan };

double per_job_watts(const trace::JobRecord& j) {
  return 150.0 + 75.0 * static_cast<double>(j.job_id % 7);
}

/// `depth` 0 turns backfill off.
SimConfig golden_config(SchedulerPolicy policy, int depth, bool capped,
                        Watts watts) {
  SimConfig cfg;
  cfg.policy = policy;
  cfg.backfill = depth > 0;
  cfg.backfill_depth = depth;
  if (capped) {
    // Idle baseline of all 9 nodes plus 60% of the 60 GPUs at 300 W. Jobs
    // that fill a whole VC never fit their VC's share, so heads block for
    // good and backfill works deep queues, as under the sweep's cap60.
    cfg.power_cap_watts = 9 * 800.0 + 0.6 * 60 * 300.0;
  }
  switch (watts) {
    case Watts::kProfile:
      break;
    case Watts::kPerJob:
      cfg.gpu_watts_fn = per_job_watts;
      break;
    case Watts::kNegative:
      cfg.gpu_watts_fn = [](const trace::JobRecord& j) {
        return j.job_id == kNegativeJob ? -200.0 : per_job_watts(j);
      };
      break;
    case Watts::kNan:
      cfg.gpu_watts_fn = [](const trace::JobRecord& j) {
        return j.job_id == kNanJob ? std::numeric_limits<double>::quiet_NaN()
                                   : per_job_watts(j);
      };
      break;
  }
  return cfg;
}

/// Failures about every six hours per node (flaky nodes eight times as
/// often) with short repairs, over the trace and a day past its last submit:
/// enough that every fault cell kills running jobs.
const FaultPlan& golden_faults() {
  static const FaultPlan plan = [] {
    const Trace& t = golden_trace();
    FaultPlanConfig fp;
    fp.mtbf_days = 0.25;
    fp.flaky_fraction = 0.25;
    fp.mean_downtime = 1800;
    fp.seed = 7;
    return FaultPlan::generate(t.cluster(), fp, t.jobs().front().submit_time,
                               t.jobs().back().submit_time + 86400);
  }();
  return plan;
}

/// Every leaf of `r` in for_each_field order, except VCStat::name; each
/// TimeSeries hashes as begin, step, size, values.
std::string digest(const SimResult& r) {
  golden::Fnv d;
  auto hash = [&d](const auto& leaf) {
    using T = std::decay_t<decltype(leaf)>;
    if constexpr (!std::is_same_v<T, std::string>) d.add(leaf);
    return true;
  };
  for_each_field(hash, r);
  return d.hex();
}

std::string cell_name(SchedulerPolicy policy, int depth, bool capped,
                      Watts watts) {
  static constexpr const char* kWatts[] = {"profile", "perjob", "negative",
                                           "nan"};
  return std::string(to_string(policy)) +
         (depth > 0 ? "/d" + std::to_string(depth) : std::string("/nobf")) +
         (capped ? "/tight" : "/off") + "/" +
         kWatts[static_cast<int>(watts)];
}

// clang-format off
const std::map<std::string, std::string>& golden() {
  static const std::map<std::string, std::string> g = {
    {"FIFO/d1/off/profile", "792d0b295c39743a"},
    {"FIFO/d1/off/perjob", "7491263c1ae63f26"},
    {"FIFO/d1/off/negative", "7491263c1ae63f26"},
    {"FIFO/d1/off/nan", "7491263c1ae63f26"},
    {"FIFO/d1/tight/profile", "cbe2196b5133afed"},
    {"FIFO/d1/tight/perjob", "ea6da3e49cf50dd4"},
    {"FIFO/d1/tight/negative", "ea6da3e49cf50dd4"},
    {"FIFO/d1/tight/nan", "ea6da3e49cf50dd4"},
    {"FIFO/d3/off/profile", "abd3a2054d8c6ee0"},
    {"FIFO/d3/off/perjob", "9d949da41ae4e9a6"},
    {"FIFO/d3/off/negative", "924091dfb19b1330"},
    {"FIFO/d3/off/nan", "e7553fb3fa569997"},
    {"FIFO/d3/tight/profile", "c966a8c60d9e9791"},
    {"FIFO/d3/tight/perjob", "7d8e32bf7dbe9225"},
    {"FIFO/d3/tight/negative", "7d8e32bf7dbe9225"},
    {"FIFO/d3/tight/nan", "7d8e32bf7dbe9225"},
    {"FIFO/d256/off/profile", "34a7dd5b2d5b7109"},
    {"FIFO/d256/off/perjob", "0a883a49ccbe99e4"},
    {"FIFO/d256/off/negative", "125ab4ee889347c9"},
    {"FIFO/d256/off/nan", "bc57fc7632a16b16"},
    {"FIFO/d256/tight/profile", "f384e1e86e377aab"},
    {"FIFO/d256/tight/perjob", "09c8cc59db2ff102"},
    {"FIFO/d256/tight/negative", "8cc4140b1784cf79"},
    {"FIFO/d256/tight/nan", "21a36b1d58889201"},
    {"SJF/d1/off/profile", "4ae0d42fdb4cc55a"},
    {"SJF/d1/off/perjob", "3b9c0ba3b4e94845"},
    {"SJF/d1/off/negative", "e31b8b1ffefcc984"},
    {"SJF/d1/off/nan", "3b9c0ba3b4e94845"},
    {"SJF/d1/tight/profile", "ba3294f18cd03444"},
    {"SJF/d1/tight/perjob", "40feab3c5221f817"},
    {"SJF/d1/tight/negative", "28ad47d898f5620f"},
    {"SJF/d1/tight/nan", "40feab3c5221f817"},
    {"SJF/d3/off/profile", "eed5ad860f0f5a42"},
    {"SJF/d3/off/perjob", "020a9f9cfe7ebfb3"},
    {"SJF/d3/off/negative", "b950cebd4f3651dc"},
    {"SJF/d3/off/nan", "020a9f9cfe7ebfb3"},
    {"SJF/d3/tight/profile", "c06927dc6e6cfc6d"},
    {"SJF/d3/tight/perjob", "6a5eef9d33cdfbe1"},
    {"SJF/d3/tight/negative", "bcba4232c8295da7"},
    {"SJF/d3/tight/nan", "6a5eef9d33cdfbe1"},
    {"SJF/d256/off/profile", "56c84c53dd618287"},
    {"SJF/d256/off/perjob", "9a8562549d142dbe"},
    {"SJF/d256/off/negative", "4ff923d146cf1f9b"},
    {"SJF/d256/off/nan", "3489897a32b8a4c2"},
    {"SJF/d256/tight/profile", "e6ac61f85a534c8d"},
    {"SJF/d256/tight/perjob", "c79daf50efdf1d82"},
    {"SJF/d256/tight/negative", "40c48e615500f07f"},
    {"SJF/d256/tight/nan", "0d16b95c87bc4c82"},
    {"SRTF/d1/off/profile", "7d79ec251b94d744"},
    {"SRTF/d1/off/perjob", "059d8566f2f7384f"},
    {"SRTF/d1/off/negative", "c7e47e5d3bf81096"},
    {"SRTF/d1/off/nan", "059d8566f2f7384f"},
    {"SRTF/d1/tight/profile", "ba3294f18cd03444"},
    {"SRTF/d1/tight/perjob", "40feab3c5221f817"},
    {"SRTF/d1/tight/negative", "28ad47d898f5620f"},
    {"SRTF/d1/tight/nan", "40feab3c5221f817"},
    {"SRTF/d3/off/profile", "caea1c8bb61116c2"},
    {"SRTF/d3/off/perjob", "c8824e5af92666c1"},
    {"SRTF/d3/off/negative", "f3034e6146a3826c"},
    {"SRTF/d3/off/nan", "0626d1305bd1edc6"},
    {"SRTF/d3/tight/profile", "c06927dc6e6cfc6d"},
    {"SRTF/d3/tight/perjob", "6a5eef9d33cdfbe1"},
    {"SRTF/d3/tight/negative", "bcba4232c8295da7"},
    {"SRTF/d3/tight/nan", "6a5eef9d33cdfbe1"},
    {"SRTF/d256/off/profile", "37aed6494a5cf551"},
    {"SRTF/d256/off/perjob", "6a5db90f5d5d41b9"},
    {"SRTF/d256/off/negative", "49eaef095253b747"},
    {"SRTF/d256/off/nan", "ec1f10312d89d0d3"},
    {"SRTF/d256/tight/profile", "e6ac61f85a534c8d"},
    {"SRTF/d256/tight/perjob", "70d7e9b0b563e4e8"},
    {"SRTF/d256/tight/negative", "8552e2e1f5bfb242"},
    {"SRTF/d256/tight/nan", "ed6680d674c9a0ac"},
    {"QSSF/d1/off/profile", "ba83cfd141654e86"},
    {"QSSF/d1/off/perjob", "e26768ae132dee81"},
    {"QSSF/d1/off/negative", "108e42c6c0d6a5bb"},
    {"QSSF/d1/off/nan", "e2ee9ce1ca4e3114"},
    {"QSSF/d1/tight/profile", "06e7653127941fba"},
    {"QSSF/d1/tight/perjob", "c065686c7f897a13"},
    {"QSSF/d1/tight/negative", "74a85d0c9fcceb3f"},
    {"QSSF/d1/tight/nan", "0e612c98432818f2"},
    {"QSSF/d3/off/profile", "6cbbf1ec8b04c40f"},
    {"QSSF/d3/off/perjob", "347d7f56eba652ba"},
    {"QSSF/d3/off/negative", "8fc6194e01920688"},
    {"QSSF/d3/off/nan", "0c8eb52462525687"},
    {"QSSF/d3/tight/profile", "9a9846a04958146f"},
    {"QSSF/d3/tight/perjob", "7406017c49506812"},
    {"QSSF/d3/tight/negative", "f17ebf9e16dafba9"},
    {"QSSF/d3/tight/nan", "5f0997a360049e1d"},
    {"QSSF/d256/off/profile", "8e1b596403dcd0f7"},
    {"QSSF/d256/off/perjob", "b5d4b6e9e6b6fe16"},
    {"QSSF/d256/off/negative", "f83f647478823c8c"},
    {"QSSF/d256/off/nan", "9aabc729fc90cff1"},
    {"QSSF/d256/tight/profile", "e6a977a7ea25d4b5"},
    {"QSSF/d256/tight/perjob", "617d7a9c32ad8ccc"},
    {"QSSF/d256/tight/negative", "42f50d861f7fe8fd"},
    {"QSSF/d256/tight/nan", "a8f3be739336f38f"},
    {"EQSSF/d1/off/profile", "ba83cfd141654e86"},
    {"EQSSF/d1/off/perjob", "7f1c3b88d4e9f79c"},
    {"EQSSF/d1/off/negative", "94a7c89c0b656776"},
    {"EQSSF/d1/tight/profile", "06e7653127941fba"},
    {"EQSSF/d1/tight/perjob", "fe42b3c88c8aaadf"},
    {"EQSSF/d1/tight/negative", "4871d93ef0b386a1"},
    {"EQSSF/d3/off/profile", "6cbbf1ec8b04c40f"},
    {"EQSSF/d3/off/perjob", "8c961dbdb1ccb93b"},
    {"EQSSF/d3/off/negative", "3b3849ad4eb1e5f7"},
    {"EQSSF/d3/tight/profile", "9a9846a04958146f"},
    {"EQSSF/d3/tight/perjob", "eb1752dae058bc20"},
    {"EQSSF/d3/tight/negative", "d91e10739cc44f27"},
    {"EQSSF/d256/off/profile", "8e1b596403dcd0f7"},
    {"EQSSF/d256/off/perjob", "1f4ed0f82610c790"},
    {"EQSSF/d256/off/negative", "11891bf90d6d2da8"},
    {"EQSSF/d256/tight/profile", "e6a977a7ea25d4b5"},
    {"EQSSF/d256/tight/perjob", "26ca2d3ddf4f1814"},
    {"EQSSF/d256/tight/negative", "17cd4d728759a46a"},
    // Backfill off, and backfill off under golden_faults().
    {"FIFO/nobf/off/profile", "60498f86272ae8e1"},
    {"FIFO/nobf/off/perjob", "814166fe3249a84b"},
    {"FIFO/nobf/off/negative", "814166fe3249a84b"},
    {"FIFO/nobf/off/nan", "814166fe3249a84b"},
    {"FIFO/nobf/tight/profile", "3689bf14e424c980"},
    {"FIFO/nobf/tight/perjob", "4331453b41b86b8d"},
    {"FIFO/nobf/tight/negative", "4331453b41b86b8d"},
    {"FIFO/nobf/tight/nan", "4331453b41b86b8d"},
    {"FIFO/nobf/off/profile/restart", "9d56be6adbe19c16"},
    {"FIFO/nobf/tight/profile/restart", "19cbab5ed055bae9"},
    {"FIFO/nobf/off/profile/resume", "ba76d9edadf9bb6d"},
    {"FIFO/nobf/tight/profile/resume", "1a2b2def4d59b216"},
    {"SJF/nobf/off/profile", "11b889eba8b63594"},
    {"SJF/nobf/off/perjob", "0a62464d826e6acd"},
    {"SJF/nobf/off/negative", "8a7410fdf1e8f06c"},
    {"SJF/nobf/off/nan", "0a62464d826e6acd"},
    {"SJF/nobf/tight/profile", "964f71526aa8766d"},
    {"SJF/nobf/tight/perjob", "086b93b2b6621ffb"},
    {"SJF/nobf/tight/negative", "086b93b2b6621ffb"},
    {"SJF/nobf/tight/nan", "086b93b2b6621ffb"},
    {"SJF/nobf/off/profile/restart", "da47fed91fcfe6cd"},
    {"SJF/nobf/tight/profile/restart", "38a5867894cc4fc8"},
    {"SJF/nobf/off/profile/resume", "c7131815a5b593fd"},
    {"SJF/nobf/tight/profile/resume", "08644c61eb471b0a"},
    {"SRTF/nobf/off/profile", "83ce214dd17566ce"},
    {"SRTF/nobf/off/perjob", "bf6690edb524c667"},
    {"SRTF/nobf/off/negative", "cf6ef94f4d3c030c"},
    {"SRTF/nobf/off/nan", "bf6690edb524c667"},
    {"SRTF/nobf/tight/profile", "964f71526aa8766d"},
    {"SRTF/nobf/tight/perjob", "5d807241150b1874"},
    {"SRTF/nobf/tight/negative", "5d807241150b1874"},
    {"SRTF/nobf/tight/nan", "5d807241150b1874"},
    {"SRTF/nobf/off/profile/restart", "c34c85ab02752314"},
    {"SRTF/nobf/tight/profile/restart", "e6f8e67c18b79c93"},
    {"SRTF/nobf/off/profile/resume", "591b27a5c4aaaef6"},
    {"SRTF/nobf/tight/profile/resume", "3905d42468dbbb1d"},
    {"QSSF/nobf/off/profile", "191b5555f709376c"},
    {"QSSF/nobf/off/perjob", "28005b4f1e8fa7fc"},
    {"QSSF/nobf/off/negative", "22e10ef9ac29a7e4"},
    {"QSSF/nobf/off/nan", "198a99001fb2601a"},
    {"QSSF/nobf/tight/profile", "10b68d45a36570ab"},
    {"QSSF/nobf/tight/perjob", "71be66671948cc90"},
    {"QSSF/nobf/tight/negative", "f57282dbdfdb39d8"},
    {"QSSF/nobf/tight/nan", "dacce2d59270557e"},
    {"QSSF/nobf/off/profile/restart", "c12b7f49b6a2cdeb"},
    {"QSSF/nobf/tight/profile/restart", "a8362ef9fdc8cd26"},
    {"QSSF/nobf/off/profile/resume", "8b0761a0bf5822d0"},
    {"QSSF/nobf/tight/profile/resume", "1d03708e36fa33ca"},
    {"EQSSF/nobf/off/profile", "191b5555f709376c"},
    {"EQSSF/nobf/off/perjob", "ec5639b2a8ac3a5d"},
    {"EQSSF/nobf/off/negative", "edd3f68aff31e9fb"},
    {"EQSSF/nobf/tight/profile", "10b68d45a36570ab"},
    {"EQSSF/nobf/tight/perjob", "5100ec4fa5376d37"},
    {"EQSSF/nobf/tight/negative", "cfe3189972708121"},
    {"EQSSF/nobf/off/profile/restart", "c12b7f49b6a2cdeb"},
    {"EQSSF/nobf/tight/profile/restart", "a8362ef9fdc8cd26"},
    {"EQSSF/nobf/off/profile/resume", "8b0761a0bf5822d0"},
    {"EQSSF/nobf/tight/profile/resume", "1d03708e36fa33ca"},
  };
  return g;
}
// clang-format on

TEST(BackfillGolden, EveryCellMatchesItsRecordedDigest) {
  const Trace& t = golden_trace();
  int cells = 0;
  auto check = [&](const std::string& name, const SimResult& r) {
    const auto it = golden().find(name);
    if (it == golden().end()) {
      ADD_FAILURE() << "no recorded digest: {\"" << name << "\", \""
                    << digest(r) << "\"},";
      return;
    }
    EXPECT_EQ(digest(r), it->second) << name;
    ++cells;
  };
  for (SchedulerPolicy policy : all_policies()) {
    for (int depth : {0, 1, 3, 256}) {
      for (bool capped : {false, true}) {
        for (Watts watts :
             {Watts::kProfile, Watts::kPerJob, Watts::kNegative, Watts::kNan}) {
          // EQSSF folds the draw into the priority, so a NaN draw is a NaN
          // priority, which the recording implementation's std::set could not
          // order (it crashed). NanPriorityQueuesLast covers those cells.
          if (policy == SchedulerPolicy::kEnergyQssf && watts == Watts::kNan) {
            continue;
          }
          check(cell_name(policy, depth, capped, watts),
                ClusterSimulator(t.cluster(),
                                 golden_config(policy, depth, capped, watts))
                    .run(t));
        }
      }
    }
    // Kill requeues: the only way a job re-enters a queue whose keys never
    // change, and for SRTF a second way a queued key changes.
    for (FaultRestart restart : {FaultRestart::kRestart, FaultRestart::kResume}) {
      for (bool capped : {false, true}) {
        SimConfig cfg = golden_config(policy, 0, capped, Watts::kProfile);
        cfg.fault_plan = &golden_faults();
        cfg.restart = restart;
        const auto r = ClusterSimulator(t.cluster(), cfg).run(t);
        EXPECT_GT(r.job_kills, 0);
        check(cell_name(policy, 0, capped, Watts::kProfile) +
                  (restart == FaultRestart::kRestart ? "/restart" : "/resume"),
              r);
      }
    }
  }
  EXPECT_EQ(cells, static_cast<int>(golden().size()));
}

TEST(BackfillGolden, NanPriorityQueuesLast) {
  // EQSSF's priority is predicted GPU time x per-GPU draw, so kNanJob's NaN
  // draw makes a NaN priority. It must queue behind every number: the run
  // equals QSSF with the same draws and the same priorities, spelled out,
  // except +inf for kNanJob. Covers the queue with and without backfill,
  // uncapped (the NaN job runs; its NaN draw poisons
  // the energy sums identically) and capped (it never passes the gate).
  const Trace& t = golden_trace();
  for (bool backfill : {false, true}) {
    for (bool capped : {false, true}) {
      SCOPED_TRACE(std::string(backfill ? "backfill" : "no backfill") +
                   (capped ? ", capped" : ", uncapped"));
      SimConfig eqssf =
          golden_config(SchedulerPolicy::kEnergyQssf, 3, capped, Watts::kNan);
      eqssf.backfill = backfill;
      SimConfig qssf = eqssf;
      qssf.policy = SchedulerPolicy::kQssf;
      qssf.priority_fn = [gw = eqssf.gpu_watts_fn](const trace::JobRecord& j) {
        return j.job_id == kNanJob
                   ? std::numeric_limits<double>::infinity()
                   : static_cast<double>(j.duration) * j.num_gpus * gw(j);
      };
      const auto a = ClusterSimulator(t.cluster(), eqssf).run(t);
      const auto b = ClusterSimulator(t.cluster(), qssf).run(t);
      EXPECT_TRUE(results_identical(a, b));
    }
  }
}

// results_identical compares bit patterns: a run whose energy outputs are
// NaN (kNanJob starts, here backfilled) equals itself and its kSerial twin,
// and -0.0 differs from +0.0.
TEST(BackfillGolden, NanDrawRunEqualsItselfAndItsSerialTwin) {
  const Trace& t = golden_trace();
  SimConfig cfg = golden_config(SchedulerPolicy::kFifo, 3, false, Watts::kNan);
  const SimResult parallel = ClusterSimulator(t.cluster(), cfg).run(t);
  ASSERT_TRUE(std::isnan(parallel.energy_joules));
  EXPECT_TRUE(results_identical(parallel, parallel));
  cfg.execution = common::ExecMode::kSerial;
  EXPECT_TRUE(
      results_identical(parallel, ClusterSimulator(t.cluster(), cfg).run(t)));
}

TEST(BackfillGolden, NegativeZeroDiffersFromPositiveZero) {
  const Trace& t = golden_trace();
  const SimConfig cfg =
      golden_config(SchedulerPolicy::kFifo, 0, false, Watts::kProfile);
  SimResult a = ClusterSimulator(t.cluster(), cfg).run(t);
  a.avg_queue_delay = 0.0;
  SimResult b = a;
  b.avg_queue_delay = -0.0;
  EXPECT_FALSE(results_identical(a, b));
}

/// Flips the lowest bit of a numeric `leaf` or extends a name (way 0); a
/// TimeSeries changes its begin, step or last value (ways 0-2). False when
/// `leaf` has no such way, as for the const vector sizes.
template <typename T>
bool perturb(T& leaf, int way) {
  if constexpr (std::is_same_v<T, forecast::TimeSeries>) {
    if (way == 0) ++leaf.begin;
    if (way == 1) ++leaf.step;
    return way < 2 || perturb(leaf.values.back(), way - 2);
  } else if constexpr (!std::is_const_v<T>) {
    if (way != 0) return false;
    if constexpr (std::is_same_v<T, double>) {
      leaf = std::bit_cast<double>(std::bit_cast<std::uint64_t>(leaf) ^ 1u);
    } else if constexpr (std::is_same_v<T, std::string>) {
      leaf += '!';
    } else {
      leaf ^= 1;
    }
    return true;
  }
  return false;
}

// Changing any one leaf of a result breaks results_identical and moves the
// digest (except VCStat::name, which the recorded encoding leaves out).
TEST(BackfillGolden, EveryLeafReachesEqualityAndTheDigest) {
  SimResult base;
  base.outcomes = {{0, 10, 20, 90, 8, 0, 0, false},
                   {3, 15, 15, 40, 2, 1, 1, true}};
  base.avg_jct = 52.5;
  base.queued_jobs = 1;
  base.vc_stats = {{"vc0", 8, 1, 10.0, 80.0, 1.5e6},
                   {"vc1", 16, 1, 0.0, 25.0, 2.5e6}};
  base.busy_nodes = {0, 600, {1.0, 2.0}};
  base.busy_gpus = {0, 600, {8.0, 10.0}};
  base.energy_joules = 4e6;
  base.power_watts = {0, 600, {2800.0, 3100.0}};
  base.peak_power_watts = {0, 600, {3000.0, 3200.0}};
  const std::string base_digest = digest(base);

  std::size_t leaves = 0;
  for_each_field([&leaves](const auto&) { ++leaves; return true; }, base);
  // 16 members (a vector counts as its size), 8 per outcome, 6 per VC.
  EXPECT_EQ(leaves, 16u + 8u * 2u + 6u * 2u);

  std::size_t changes = 0;
  for (std::size_t k = 0; k < leaves; ++k) {
    for (int way = 0; way < 3; ++way) {
      SimResult copy = base;
      std::size_t i = 0;
      bool changed = false;
      bool is_name = false;
      for_each_field(
          [&](auto& leaf) {
            if (i++ == k) {
              changed = perturb(leaf, way);
              is_name = std::is_same_v<std::decay_t<decltype(leaf)>,
                                       std::string>;
            }
            return true;
          },
          copy);
      if (!changed) continue;
      ++changes;
      SCOPED_TRACE("leaf " + std::to_string(k) + " way " + std::to_string(way));
      EXPECT_FALSE(results_identical(base, copy));
      EXPECT_EQ(digest(copy) == base_digest, is_name);
    }
  }
  // Every leaf but the two sizes, plus two more ways for each of 4 series.
  EXPECT_EQ(changes, leaves - 2 + 2 * 4);

  SimResult fewer_jobs = base;
  SimResult fewer_vcs = base;
  fewer_jobs.outcomes.pop_back();
  fewer_vcs.vc_stats.pop_back();
  for (const SimResult* r : {&fewer_jobs, &fewer_vcs}) {
    EXPECT_FALSE(results_identical(base, *r));
    EXPECT_NE(digest(*r), base_digest);
  }
}

}  // namespace
}  // namespace helios::sim
