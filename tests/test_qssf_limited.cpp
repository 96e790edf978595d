// Limited-information QSSF mode (no job names) and rolling-estimator
// bookkeeping edge cases.
#include <gtest/gtest.h>

#include "core/qssf_service.h"
#include "stats/correlation.h"
#include "trace/synthetic.h"

namespace helios::core {
namespace {

using trace::JobState;
using trace::Trace;

trace::ClusterSpec spec() {
  trace::ClusterSpec s;
  s.name = "s";
  s.vcs = {{"vc0", 4, 8}};
  s.nodes = 4;
  return s;
}

TEST(QssfLimited, IgnoresNamesWhenDisabled) {
  QssfConfig cfg;
  cfg.use_names = false;
  cfg.gbdt.n_trees = 10;
  QssfService svc(cfg);
  Trace h(spec());
  for (int i = 0; i < 30; ++i) {
    h.add(1000 * i, 100, 1, 6, "alice", "vc0", "short_job", JobState::kCompleted);
    h.add(1000 * i + 1, 9000, 1, 6, "alice", "vc0", "long_job",
          JobState::kCompleted);
  }
  h.sort_by_submit_time();
  svc.fit(h);
  Trace probe(spec());
  const auto j = probe.add(100000, 0, 1, 6, "alice", "vc0", "short_job",
                           JobState::kCompleted);
  // Without names the rolling estimate is alice's 1-GPU mean (~4550), not
  // the template mean (~100).
  EXPECT_NEAR(svc.rolling().estimate(probe, j), 4550.0, 500.0);

  QssfConfig named = cfg;
  named.use_names = true;
  QssfService with_names(named);
  with_names.fit(h);
  EXPECT_NEAR(with_names.rolling().estimate(probe, j), 100.0, 30.0);
}

TEST(QssfLimited, StillPredictsUsefully) {
  auto gen = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"), 41,
                                            0.03);
  const Trace t = trace::SyntheticTraceGenerator(gen).generate();
  const auto train = t.between(0, from_civil(2020, 8, 1));
  const auto test = t.between(from_civil(2020, 8, 1), from_civil(2020, 9, 1));
  QssfConfig cfg;
  cfg.use_names = false;
  cfg.gbdt.n_trees = 20;
  QssfService svc(cfg);
  svc.fit(train);
  std::vector<double> pred;
  std::vector<double> actual;
  for (const auto& j : test.jobs()) {
    if (!j.is_gpu_job()) continue;
    pred.push_back(svc.priority(test, j));
    actual.push_back(j.gpu_time());
  }
  // User + demand + calendar alone must still rank jobs far better than
  // chance (the paper's robustness direction for name-less clusters).
  EXPECT_GT(stats::spearman(pred, actual), 0.35);
}

TEST(QssfRolling, NameEvictionKeepsRecentEntries) {
  QssfConfig cfg;
  cfg.max_names_per_user = 4;
  cfg.gbdt.n_trees = 2;
  QssfService svc(cfg);
  Trace h(spec());
  // 6 well-separated names; only the most recent 4 survive.
  const char* names[] = {"aaaa_alpha_00", "bbbb_beta_11", "cccc_gamma_22",
                         "dddd_delta_33", "eeee_epsln_44", "ffff_zeta_55"};
  UnixTime at = 0;
  int dur = 100;
  for (const char* n : names) {
    for (int k = 0; k < 3; ++k) {
      const auto j = h.add(at, dur, 1, 6, "u", "vc0", n, JobState::kCompleted);
      svc.observe(h, j);
      at += 10;
    }
    dur += 100;
  }
  Trace probe(spec());
  // Oldest name evicted -> falls back to the user's 1-GPU mean.
  const auto evicted =
      probe.add(at, 0, 1, 6, "u", "vc0", "aaaa_alpha_00", JobState::kCompleted);
  const double user_mean = svc.rolling().estimate(probe, evicted);
  EXPECT_GT(user_mean, 200.0);  // not the template's 100s
  // Newest name still tracked precisely.
  const auto fresh =
      probe.add(at, 0, 1, 6, "u", "vc0", "ffff_zeta_55", JobState::kCompleted);
  EXPECT_NEAR(svc.rolling().estimate(probe, fresh), 600.0, 60.0);
}

TEST(QssfRolling, CpuJobsAreIgnored) {
  QssfService svc;
  Trace h(spec());
  const auto cpu = h.add(0, 999, 0, 8, "u", "vc0", "cpu_prep", JobState::kCompleted);
  svc.observe(h, cpu);
  Trace probe(spec());
  const auto j = probe.add(10, 0, 1, 6, "u", "vc0", "anything",
                           JobState::kCompleted);
  // No GPU history at all -> the hard-coded prior, not 999.
  EXPECT_NEAR(svc.rolling().estimate(probe, j), 600.0, 1e-9);
}

TEST(QssfPriority, DeterministicAcrossInstances) {
  auto gen = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"), 43,
                                            0.02);
  const Trace t = trace::SyntheticTraceGenerator(gen).generate();
  const auto train = t.between(0, from_civil(2020, 7, 1));
  QssfService a;
  QssfService b;
  a.fit(train);
  b.fit(train);
  const auto test = t.between(from_civil(2020, 7, 1), from_civil(2020, 7, 2));
  for (const auto& j : test.jobs()) {
    if (!j.is_gpu_job()) continue;
    EXPECT_DOUBLE_EQ(a.priority(test, j), b.priority(test, j));
  }
}

}  // namespace
}  // namespace helios::core
