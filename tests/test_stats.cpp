#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "stats/correlation.h"
#include "stats/ecdf.h"
#include "stats/histogram.h"
#include "stats/metrics.h"
#include "stats/summary.h"

namespace helios::stats {
namespace {

TEST(RunningStats, BasicMoments) {
  RunningStats rs;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(x);
  EXPECT_EQ(rs.count(), 8);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_NEAR(rs.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
  EXPECT_DOUBLE_EQ(rs.sum(), 40.0);
}

TEST(Quantile, InterpolatesLikeNumpy) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 1.75);
}

TEST(Quantile, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(quantile(std::vector<double>{}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(quantile(std::vector<double>{7.0}, 0.99), 7.0);
}

TEST(BoxStats, MatchesPaperDefinition) {
  // 1..100 plus one far outlier; whiskers clamp at 1.5 IQR.
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  v.push_back(1000.0);
  const BoxStats b = box_stats(v);
  EXPECT_NEAR(b.median, 51.0, 1e-9);
  EXPECT_GT(b.q3, b.q1);
  EXPECT_LT(b.whisker_hi, 1000.0);  // outlier excluded
  EXPECT_DOUBLE_EQ(b.whisker_lo, 1.0);
  EXPECT_EQ(b.count, 101);
}

TEST(Ecdf, EvaluatesFractions) {
  Ecdf e({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(e(0.5), 0.0);
  EXPECT_DOUBLE_EQ(e(3.0), 0.6);
  EXPECT_DOUBLE_EQ(e(5.0), 1.0);
  EXPECT_DOUBLE_EQ(e(100.0), 1.0);
}

TEST(Ecdf, IsMonotone) {
  Rng rng(11);
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(rng.lognormal(5.0, 2.0));
  Ecdf e(v);
  double prev = 0.0;
  for (double x : log_space_points(0.1, 1e6, 200)) {
    const double f = e(x);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

TEST(Ecdf, InverseRoundTrip) {
  Ecdf e({10.0, 20.0, 30.0, 40.0});
  EXPECT_DOUBLE_EQ(e.inverse(0.25), 10.0);
  EXPECT_DOUBLE_EQ(e.inverse(0.5), 20.0);
  EXPECT_DOUBLE_EQ(e.inverse(1.0), 40.0);
}

TEST(LogSpacePoints, EndpointsAndMonotone) {
  const auto pts = log_space_points(1.0, 1e6, 7);
  ASSERT_EQ(pts.size(), 7u);
  EXPECT_NEAR(pts.front(), 1.0, 1e-9);
  EXPECT_NEAR(pts.back(), 1e6, 1e-3);
  for (std::size_t i = 1; i < pts.size(); ++i) EXPECT_GT(pts[i], pts[i - 1]);
}

TEST(Histogram, BinningAndFractions) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(5.5);
  h.add(5.6);
  h.add(99.0);  // clamped into last bucket
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(5), 2.0);
  EXPECT_DOUBLE_EQ(h.count(9), 1.0);
  EXPECT_DOUBLE_EQ(h.fraction(5), 0.5);
}

TEST(Metrics, SmapeBounds) {
  const std::vector<double> a = {100.0, 100.0};
  const std::vector<double> p = {100.0, 0.0};
  EXPECT_DOUBLE_EQ(smape(a, a), 0.0);
  EXPECT_DOUBLE_EQ(smape(a, p), 100.0);  // one exact, one maximally wrong
}

TEST(Metrics, MaeRmseMape) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> p = {2.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(mae(a, p), 1.0);
  EXPECT_NEAR(rmse(a, p), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_NEAR(mape(a, p), (100.0 + 0.0 + 200.0 / 3.0) / 3.0, 1e-9);
}

TEST(Metrics, R2PerfectAndMean) {
  const std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(r2(a, a), 1.0);
  const std::vector<double> mean_pred(4, 2.5);
  EXPECT_DOUBLE_EQ(r2(a, mean_pred), 0.0);
}

TEST(Correlation, PearsonKnownValues) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> y = {2.0, 4.0, 6.0, 8.0, 10.0};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  std::vector<double> yneg(y.rbegin(), y.rend());
  EXPECT_NEAR(pearson(x, yneg), -1.0, 1e-12);
}

TEST(Correlation, SpearmanMonotoneNonlinear) {
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 1; i <= 50; ++i) {
    x.push_back(i);
    y.push_back(std::exp(0.2 * i));  // monotone but nonlinear
  }
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
  EXPECT_LT(pearson(x, y), 0.99);  // pearson penalises nonlinearity
}

}  // namespace
}  // namespace helios::stats
