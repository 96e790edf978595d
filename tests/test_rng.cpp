#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "stats/summary.h"

namespace helios {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexBounds) {
  Rng rng(42);
  std::array<int, 7> counts{};
  for (int i = 0; i < 70000; ++i) ++counts[rng.uniform_index(7)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(99);
  stats::RunningStats rs;
  for (int i = 0; i < 200000; ++i) rs.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(rs.mean(), 5.0, 0.05);
  EXPECT_NEAR(rs.stddev(), 2.0, 0.05);
}

TEST(Rng, LognormalMedian) {
  Rng rng(7);
  std::vector<double> xs;
  xs.reserve(100000);
  for (int i = 0; i < 100000; ++i) xs.push_back(rng.lognormal(std::log(206.0), 1.0));
  EXPECT_NEAR(stats::median(xs), 206.0, 10.0);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  stats::RunningStats rs;
  for (int i = 0; i < 100000; ++i) rs.add(rng.exponential(0.25));
  EXPECT_NEAR(rs.mean(), 4.0, 0.1);
}

TEST(Rng, ParetoRespectsScale) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(CategoricalSampler, MatchesWeights) {
  Rng rng(29);
  const std::vector<double> w = {5.0, 0.0, 3.0, 2.0};
  CategoricalSampler s{std::span<const double>(w)};
  ASSERT_EQ(s.size(), 4u);
  std::array<int, 4> counts{};
  for (int i = 0; i < 100000; ++i) ++counts[s.sample(rng)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0] / 100000.0, 0.5, 0.01);
  EXPECT_NEAR(counts[2] / 100000.0, 0.3, 0.01);
  EXPECT_NEAR(counts[3] / 100000.0, 0.2, 0.01);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

}  // namespace
}  // namespace helios
