#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/civil_time.h"
#include "common/rng.h"
#include "forecast/models.h"
#include "forecast/series.h"
#include "stats/metrics.h"

namespace helios::forecast {
namespace {

TimeSeries sinusoid_series(std::size_t n, double noise, std::uint64_t seed,
                           int period = 144) {
  Rng rng(seed);
  TimeSeries s;
  s.begin = from_civil(2020, 4, 1);
  s.step = 600;
  s.values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phase =
        2.0 * std::numbers::pi * static_cast<double>(i % period) / period;
    s.values.push_back(100.0 + 25.0 * std::sin(phase) + rng.normal(0.0, noise));
  }
  return s;
}

TEST(Series, SliceAndIndexing) {
  TimeSeries s;
  s.begin = 1000;
  s.step = 10;
  s.values = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_EQ(s.time_at(2), 1020);
  EXPECT_EQ(s.end(), 1050);
  EXPECT_EQ(s.index_of(1025), 2u);
  EXPECT_EQ(s.index_of(0), 0u);
  const auto sub = s.slice(1, 4);
  EXPECT_EQ(sub.begin, 1010);
  ASSERT_EQ(sub.size(), 3u);
  EXPECT_DOUBLE_EQ(sub.values[0], 2.0);
  const auto win = s.between(1015, 1035);
  EXPECT_EQ(win.size(), 3u);
}

TEST(Series, Diff) {
  const std::vector<double> v = {1.0, 4.0, 9.0};
  const auto d = diff(v);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d[0], 3.0);
  EXPECT_DOUBLE_EQ(d[1], 5.0);
  EXPECT_TRUE(diff(std::vector<double>{1.0}).empty());
}

TEST(SeasonalNaive, ExactOnPeriodicSeries) {
  TimeSeries s = sinusoid_series(720, 0.0, 1);
  SeasonalNaiveForecaster model(144);
  model.fit(s);
  const auto prefix = s.slice(0, 576);
  const auto pred = model.forecast(prefix, 144);
  ASSERT_EQ(pred.size(), 144u);
  for (std::size_t h = 0; h < pred.size(); ++h) {
    EXPECT_NEAR(pred[h], s.values[576 + h], 1e-9);
  }
}

TEST(HoltWinters, TracksTrendAndSeason) {
  // Linear trend + seasonality, no noise.
  TimeSeries s;
  s.begin = from_civil(2020, 4, 1);
  s.step = 600;
  const int period = 48;
  for (int i = 0; i < 960; ++i) {
    const double phase = 2.0 * std::numbers::pi * (i % period) / period;
    s.values.push_back(50.0 + 0.05 * i + 10.0 * std::sin(phase));
  }
  HoltWintersForecaster model(period);
  model.fit(s);
  const auto prefix = s.slice(0, 912);
  const auto pred = model.forecast(prefix, 48);
  std::vector<double> actual(s.values.begin() + 912, s.values.end());
  EXPECT_LT(stats::smape(actual, pred), 5.0);
}

TEST(ARForecaster, LearnsAR1) {
  // x[t] = 0.8 x[t-1] + e; the AR(3) fit should give a dominant first lag.
  Rng rng(5);
  TimeSeries s;
  s.begin = 0;
  s.step = 600;
  double x = 0.0;
  for (int i = 0; i < 5000; ++i) {
    x = 0.8 * x + rng.normal(0.0, 1.0);
    s.values.push_back(x);
  }
  ARForecaster model(3);
  model.fit(s);
  // One-step forecast from a known state should be close to 0.8 * last.
  TimeSeries prefix = s.slice(0, 4000);
  const auto pred = model.forecast(prefix, 1);
  EXPECT_NEAR(pred[0], 0.8 * prefix.values.back(), 1.2);
}

TEST(ARForecaster, DifferencingHandlesTrend) {
  TimeSeries s;
  s.begin = 0;
  s.step = 600;
  for (int i = 0; i < 500; ++i) s.values.push_back(10.0 + 2.0 * i);
  ARForecaster model(2, /*d=*/1);
  model.fit(s);
  const auto pred = model.forecast(s, 5);
  for (int h = 0; h < 5; ++h) {
    EXPECT_NEAR(pred[static_cast<std::size_t>(h)],
                10.0 + 2.0 * (500 + h), 5.0);
  }
}

TEST(GbdtForecaster, BeatsSeasonalNaiveOnNoisySeasonal) {
  TimeSeries s = sinusoid_series(3000, 4.0, 11);
  const std::size_t train_n = 2400;

  GBDTForecaster gbdt;
  gbdt.fit(s.slice(0, train_n));
  SeasonalNaiveForecaster naive(144);
  naive.fit(s.slice(0, train_n));

  const auto bt_gbdt = backtest(gbdt, s, train_n, /*horizon=*/6, /*stride=*/24);
  const auto bt_naive = backtest(naive, s, train_n, 6, 24);
  const double smape_gbdt = stats::smape(bt_gbdt.actual, bt_gbdt.predicted);
  const double smape_naive = stats::smape(bt_naive.actual, bt_naive.predicted);
  EXPECT_LT(smape_gbdt, smape_naive * 1.05);
  EXPECT_LT(smape_gbdt, 8.0);
}

TEST(GbdtForecaster, RecursiveForecastStaysBounded) {
  TimeSeries s = sinusoid_series(2000, 2.0, 13);
  GBDTForecaster model;
  model.fit(s);
  const auto pred = model.forecast(s, 288);  // 2 days ahead
  for (double p : pred) {
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 250.0);
  }
}

/// Oracle for GBDTForecaster::forecast: the same lag, rolling and calendar
/// features (mirroring GBDTForecaster::build_features), built from the
/// *whole* prefix and recursed through model().predict.
std::vector<double> full_prefix_reference(const GBDTForecaster& model,
                                          const LagFeatureConfig& cfg,
                                          const TimeSeries& prefix, int horizon) {
  std::vector<double> v = prefix.values;
  std::vector<double> out;
  std::vector<double> row;
  for (int h = 0; h < horizon; ++h) {
    const std::size_t idx = v.size();
    const UnixTime t_pred = prefix.begin + static_cast<UnixTime>(idx) * prefix.step;
    row.clear();
    for (int l : cfg.lags) {
      const auto lag = static_cast<std::size_t>(l);
      row.push_back(lag <= idx ? v[idx - lag] : v[0]);
    }
    for (int w : cfg.rolling_windows) {
      const auto win = static_cast<std::size_t>(w);
      const std::size_t lo = idx > win ? idx - win : 0;
      double sum = 0.0;
      double sum2 = 0.0;
      for (std::size_t i = lo; i < idx; ++i) {
        sum += v[i];
        sum2 += v[i] * v[i];
      }
      const double n = idx > lo ? static_cast<double>(idx - lo) : 1.0;
      const double mean = sum / n;
      row.push_back(mean);
      row.push_back(std::sqrt(std::max(0.0, sum2 / n - mean * mean)));
    }
    if (cfg.calendar) {
      const CivilTime c = to_civil(t_pred);
      row.push_back(static_cast<double>(c.hour));
      row.push_back(static_cast<double>(minute_of_day(t_pred) / 10));
      row.push_back(static_cast<double>(c.weekday));
      row.push_back(is_holiday(t_pred) ? 1.0 : 0.0);
    }
    const double pred = model.model().predict(row);
    out.push_back(pred);
    v.push_back(pred);
  }
  return out;
}

TEST(GbdtForecaster, ForecastReadsOnlyTheLagWindow) {
  // A weekly (1008-step) pattern of distinct random levels plus a strictly
  // increasing drift: every value is distinct, and the longest lag is the
  // best predictor, so the trees split on it. A forecaster that keeps one
  // sample too few reads the wrong value for that lag on the first step.
  const LagFeatureConfig cfg;
  const auto week = static_cast<std::size_t>(cfg.max_lag());
  Rng rng(31);
  std::vector<double> level(week);
  for (double& x : level) x = rng.uniform(0.0, 100.0);
  TimeSeries s;
  s.begin = from_civil(2020, 4, 1);
  s.step = 600;
  for (std::size_t i = 0; i < 3200; ++i) {
    s.values.push_back(level[i % week] + 1e-3 * static_cast<double>(i));
  }
  GBDTForecaster model(cfg);
  model.fit(s);
  ASSERT_TRUE(model.model().trained());
  for (const std::size_t n : {week - 1, week, week + 1, std::size_t{3000}}) {
    const TimeSeries prefix = s.slice(0, n);
    const auto got = model.forecast(prefix, 18);
    const auto want = full_prefix_reference(model, cfg, prefix, 18);
    ASSERT_EQ(got.size(), want.size()) << "prefix " << n;
    for (std::size_t h = 0; h < got.size(); ++h) {
      EXPECT_EQ(got[h], want[h]) << "prefix " << n << " step " << h;
    }
  }
}

TEST(Forecaster, ShortHorizonIsPrefixOfLongHorizon) {
  TimeSeries s = sinusoid_series(2200, 3.0, 37);
  const TimeSeries train = s.slice(0, 1700);
  SeasonalNaiveForecaster naive(144);
  HoltWintersForecaster hw(144);
  ARForecaster ar0(36, 0);
  ARForecaster ar1(36, 1);
  GBDTForecaster gbdt;
  const std::vector<Forecaster*> models = {&naive, &hw, &ar0, &ar1, &gbdt};
  for (Forecaster* m : models) m->fit(train);
  for (const Forecaster* m : models) {
    for (const std::size_t n : {std::size_t{1200}, std::size_t{2200}}) {
      const TimeSeries prefix = s.slice(0, n);
      const auto full = m->forecast(prefix, 18);
      ASSERT_EQ(full.size(), 18u) << m->name();
      for (const int k : {0, 1, 5}) {
        const auto part = m->forecast(prefix, k);
        ASSERT_EQ(part.size(), static_cast<std::size_t>(k)) << m->name();
        for (std::size_t h = 0; h < part.size(); ++h) {
          EXPECT_EQ(part[h], full[h])
              << m->name() << " prefix " << n << " k " << k << " step " << h;
        }
      }
    }
  }
}

TEST(Backtest, AlignmentAndCount) {
  TimeSeries s = sinusoid_series(500, 0.0, 17);
  SeasonalNaiveForecaster model(144);
  const auto r = backtest(model, s, 300, 10, 50);
  // Origins: 300, 350, 400, 450 (each needs origin + 10 <= 500).
  EXPECT_EQ(r.actual.size(), 4u);
  EXPECT_EQ(r.actual.size(), r.predicted.size());
  EXPECT_DOUBLE_EQ(r.actual[0], s.values[309]);
}

TEST(Backtest, EmptyForDegenerateArgs) {
  TimeSeries s = sinusoid_series(100, 0.0, 19);
  SeasonalNaiveForecaster model(10);
  EXPECT_TRUE(backtest(model, s, 50, 0, 10).actual.empty());
  EXPECT_TRUE(backtest(model, s, 200, 5, 10).actual.empty());
}

TEST(Backtest, ParallelMatchesSerialBitIdentically) {
  TimeSeries s = sinusoid_series(2200, 3.0, 23);
  const std::size_t train_n = 1700;
  GBDTForecaster gbdt;
  gbdt.fit(s.slice(0, train_n));
  ARForecaster ar(36, 1);
  ar.fit(s.slice(0, train_n));
  for (const Forecaster* m : {static_cast<const Forecaster*>(&gbdt),
                              static_cast<const Forecaster*>(&ar)}) {
    const auto par =
        backtest(*m, s, train_n, 6, 12, common::ExecMode::kParallel);
    const auto ser =
        backtest(*m, s, train_n, 6, 12, common::ExecMode::kSerial);
    ASSERT_EQ(par.actual.size(), ser.actual.size());
    ASSERT_FALSE(par.actual.empty());
    for (std::size_t i = 0; i < par.actual.size(); ++i) {
      EXPECT_EQ(par.actual[i], ser.actual[i]);
      EXPECT_EQ(par.predicted[i], ser.predicted[i]);
    }
  }
}

TEST(FitForecasters, MatchesSerialFitsBitIdentically) {
  TimeSeries s = sinusoid_series(2200, 3.0, 29);
  const TimeSeries train = s.slice(0, 1700);

  GBDTForecaster gbdt_par;
  ARForecaster ar_par(36, 1);
  HoltWintersForecaster hw_par(144);
  std::vector<Forecaster*> models = {&gbdt_par, &ar_par, &hw_par};
  fit_forecasters(models, train);

  GBDTForecaster gbdt_ser;
  ARForecaster ar_ser(36, 1);
  HoltWintersForecaster hw_ser(144);
  gbdt_ser.fit(train);
  ar_ser.fit(train);
  hw_ser.fit(train);

  const std::vector<std::pair<Forecaster*, Forecaster*>> pairs = {
      {&gbdt_par, &gbdt_ser}, {&ar_par, &ar_ser}, {&hw_par, &hw_ser}};
  for (const auto& [par, ser] : pairs) {
    const auto p = par->forecast(s, 18);
    const auto q = ser->forecast(s, 18);
    ASSERT_EQ(p.size(), q.size());
    for (std::size_t i = 0; i < p.size(); ++i) EXPECT_EQ(p[i], q[i]);
  }
}

TEST(LagFeatureConfig, Counts) {
  LagFeatureConfig cfg;
  EXPECT_EQ(cfg.feature_count(), cfg.lags.size() + 2 * cfg.rolling_windows.size() + 4);
  EXPECT_EQ(cfg.max_lag(), 1008);
}

}  // namespace
}  // namespace helios::forecast
