// Edge-case coverage across modules: degenerate inputs, config variants,
// and fallback paths that the happy-path suites do not reach.
#include <gtest/gtest.h>

#include <memory>

#include "core/ces_service.h"
#include "forecast/models.h"
#include "ml/levenshtein.h"
#include "sim/simulator.h"
#include "stats/ecdf.h"
#include "stats/histogram.h"
#include "trace/synthetic.h"

namespace helios {
namespace {

using trace::JobState;
using trace::Trace;

TEST(EdgeCase, HistogramWeightedAdds) {
  stats::Histogram h(0.0, 10.0, 5);
  h.add(1.0, 2.5);
  h.add(1.5, 0.5);
  EXPECT_DOUBLE_EQ(h.count(0), 3.0);
  EXPECT_DOUBLE_EQ(h.total(), 3.0);
  EXPECT_DOUBLE_EQ(h.fraction(0), 1.0);
}

TEST(EdgeCase, EmptyEcdf) {
  stats::Ecdf e;
  EXPECT_TRUE(e.empty());
  EXPECT_DOUBLE_EQ(e(5.0), 0.0);
  EXPECT_DOUBLE_EQ(e.inverse(0.5), 0.0);
}

TEST(EdgeCase, TimeSeriesBetweenOutOfRange) {
  forecast::TimeSeries s;
  s.begin = 1000;
  s.step = 10;
  s.values = {1.0, 2.0, 3.0};
  EXPECT_TRUE(s.between(2000, 3000).empty());
  const auto all = s.between(0, 5000);
  EXPECT_EQ(all.size(), 3u);
}

TEST(EdgeCase, GbdtForecasterShortHistoryFallsBack) {
  forecast::TimeSeries tiny;
  tiny.begin = 0;
  tiny.step = 600;
  tiny.values = {5.0, 6.0, 7.0};  // far below max_lag
  forecast::GBDTForecaster model;
  model.fit(tiny);  // no training rows; model stays untrained
  const auto pred = model.forecast(tiny, 3);
  ASSERT_EQ(pred.size(), 3u);
  for (double p : pred) EXPECT_DOUBLE_EQ(p, 7.0);  // persist last value
}

TEST(EdgeCase, ARForecasterConstantSeries) {
  forecast::TimeSeries s;
  s.begin = 0;
  s.step = 600;
  s.values.assign(500, 42.0);
  forecast::ARForecaster model(4);
  model.fit(s);
  for (double p : model.forecast(s, 10)) EXPECT_NEAR(p, 42.0, 1.0);
}

TEST(EdgeCase, SeasonalNaiveShortPrefix) {
  forecast::TimeSeries s;
  s.begin = 0;
  s.step = 600;
  s.values = {3.0, 4.0};
  forecast::SeasonalNaiveForecaster model(144);
  const auto pred = model.forecast(s, 3);
  ASSERT_EQ(pred.size(), 3u);
  for (double p : pred) {
    EXPECT_GE(p, 3.0);
    EXPECT_LE(p, 4.0);
  }
}

TEST(EdgeCase, NameBucketizerPrefixMatchesExhaustiveOnStructuredNames) {
  ml::NameBucketizer with_prefix(0.2, 6);
  ml::NameBucketizer exhaustive(0.2, 0);
  const char* names[] = {"u0001_train_bert",    "u0001_train_bert_v1",
                         "u0001_eval_gpt2",     "u0002_train_bert",
                         "u0002_train_bert_v3", "u0001_train_bert_v2"};
  for (const char* n : names) {
    // Same grouping decisions when names share the discriminating prefix.
    const auto a = with_prefix.bucket(n);
    const auto b = exhaustive.bucket(n);
    (void)a;
    (void)b;
  }
  EXPECT_EQ(with_prefix.bucket_count(), exhaustive.bucket_count());
}

TEST(EdgeCase, SimulatorQueuedThresholdConfig) {
  trace::ClusterSpec spec;
  spec.name = "one";
  spec.vcs = {{"vc0", 1, 8}};
  spec.nodes = 1;
  Trace t(spec);
  t.add(0, 100, 8, 8, "u", "vc0", "a", JobState::kCompleted);
  t.add(1, 10, 8, 8, "u", "vc0", "b", JobState::kCompleted);  // waits 99 s
  sim::SimConfig strict;
  strict.queued_threshold = 1;
  sim::SimConfig lenient;
  lenient.queued_threshold = 1000;
  EXPECT_EQ(sim::ClusterSimulator(spec, strict).run(t).queued_jobs, 1);
  EXPECT_EQ(sim::ClusterSimulator(spec, lenient).run(t).queued_jobs, 0);
}

TEST(EdgeCase, SimulatorSeriesStepConfig) {
  trace::ClusterSpec spec;
  spec.name = "one";
  spec.vcs = {{"vc0", 1, 8}};
  spec.nodes = 1;
  Trace t(spec);
  t.add(0, 1000, 8, 8, "u", "vc0", "a", JobState::kCompleted);
  sim::SimConfig cfg;
  cfg.series_step = 100;
  const auto r = sim::ClusterSimulator(spec, cfg).run(t);
  EXPECT_EQ(r.busy_gpus.step, 100);
  ASSERT_GE(r.busy_gpus.size(), 10u);
  EXPECT_NEAR(r.busy_gpus.values[5], 8.0, 1e-9);
}

TEST(EdgeCase, SimulatorEmptyTrace) {
  trace::ClusterSpec spec;
  spec.name = "one";
  spec.vcs = {{"vc0", 1, 8}};
  spec.nodes = 1;
  const Trace t(spec);
  const auto r = sim::ClusterSimulator(spec, sim::SimConfig{}).run(t);
  EXPECT_TRUE(r.outcomes.empty());
  EXPECT_EQ(r.queued_jobs, 0);
  EXPECT_DOUBLE_EQ(r.avg_jct, 0.0);
}

TEST(EdgeCase, SimulatorCpuOnlyTrace) {
  trace::ClusterSpec spec;
  spec.name = "one";
  spec.vcs = {{"vc0", 1, 8}};
  spec.nodes = 1;
  Trace t(spec);
  for (int i = 0; i < 10; ++i) {
    t.add(i, 5, 0, 4, "u", "vc0", "cpu", JobState::kCompleted);
  }
  const auto r = sim::ClusterSimulator(spec, sim::SimConfig{}).run(t);
  EXPECT_TRUE(r.outcomes.empty());  // only GPU jobs are simulated
}

TEST(EdgeCase, CesLongerBootDelayDelaysMoreJobs) {
  auto cfg = trace::GeneratorConfig::helios(trace::helios_cluster("Earth"), 53,
                                            0.1);
  Trace t = trace::SyntheticTraceGenerator(cfg).generate();
  const auto operated = sim::operate_fifo(t);
  const auto begin = from_civil(2020, 9, 1);
  const auto history =
      operated.busy_nodes.between(operated.busy_nodes.begin, begin);
  auto run = [&](std::int64_t boot_delay) {
    core::CesConfig cc;
    cc.sigma = 1;
    cc.boot_delay = boot_delay;
    core::CesService svc(
        cc, std::make_unique<forecast::SeasonalNaiveForecaster>(144));
    svc.fit(history);
    return svc.replay(t, history, begin, from_civil(2020, 9, 15));
  };
  const auto fast = run(60);
  const auto slow = run(1800);
  EXPECT_LE(fast.affected_jobs, slow.affected_jobs + 2);
  EXPECT_GT(slow.avg_drs_nodes, 0.0);
}

TEST(EdgeCase, GeneratorCustomWindow) {
  // A one-week custom window still produces a valid, sorted trace.
  trace::GeneratorConfig cfg;
  cfg.cluster = trace::scale_cluster(trace::helios_cluster("Venus"), 0.1);
  cfg.knobs = trace::helios_knobs("Venus");
  cfg.window_begin = from_civil(2020, 6, 1);
  cfg.begin = cfg.window_begin - 7 * kSecondsPerDay;
  cfg.end = from_civil(2020, 6, 8);
  cfg.seed = 5;
  const Trace t = trace::SyntheticTraceGenerator(cfg).generate();
  EXPECT_GT(t.size(), 50u);
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_LE(t.jobs()[i - 1].submit_time, t.jobs()[i].submit_time);
  }
}

TEST(EdgeCase, WithinDistanceZeroLimit) {
  EXPECT_TRUE(ml::within_distance("abc", "abc", 0));
  EXPECT_FALSE(ml::within_distance("abc", "abd", 0));
  EXPECT_TRUE(ml::within_distance("", "", 0));
  EXPECT_FALSE(ml::within_distance("", "a", 0));
}

}  // namespace
}  // namespace helios
