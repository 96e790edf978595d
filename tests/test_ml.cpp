#include <gtest/gtest.h>

#include <cmath>

#include "ml/dataset.h"
#include "ml/gbdt.h"
#include "ml/levenshtein.h"
#include "ml/linear.h"
#include "stats/metrics.h"

namespace helios::ml {
namespace {

// ---------------------------------------------------------------------------
// Levenshtein
// ---------------------------------------------------------------------------

TEST(Levenshtein, ClassicCases) {
  EXPECT_EQ(levenshtein("kitten", "sitting"), 3u);
  EXPECT_EQ(levenshtein("flaw", "lawn"), 2u);
  EXPECT_EQ(levenshtein("", "abc"), 3u);
  EXPECT_EQ(levenshtein("abc", ""), 3u);
  EXPECT_EQ(levenshtein("same", "same"), 0u);
}

TEST(Levenshtein, Symmetry) {
  EXPECT_EQ(levenshtein("train_resnet50", "train_resnet101"),
            levenshtein("train_resnet101", "train_resnet50"));
}

TEST(Levenshtein, NormalizedRange) {
  EXPECT_DOUBLE_EQ(normalized_levenshtein("", ""), 0.0);
  EXPECT_DOUBLE_EQ(normalized_levenshtein("abc", "abc"), 0.0);
  EXPECT_DOUBLE_EQ(normalized_levenshtein("abc", "xyz"), 1.0);
  EXPECT_NEAR(normalized_levenshtein("u1_train_bert", "u1_train_bert_v2"),
              3.0 / 16.0, 1e-12);
}

TEST(Levenshtein, WithinDistanceAgreesWithExact) {
  const char* names[] = {"u1_train_bert", "u1_train_bert_v2", "u2_eval_gpt2",
                         "debug", "u1_train_resnet50", "query_state"};
  for (const char* a : names) {
    for (const char* b : names) {
      const std::size_t d = levenshtein(a, b);
      for (std::size_t limit : {0u, 1u, 2u, 4u, 8u, 16u}) {
        EXPECT_EQ(within_distance(a, b, limit), d <= limit)
            << a << " vs " << b << " limit " << limit;
      }
    }
  }
}

TEST(NameBucketizer, GroupsVariantsSplitsUnrelated) {
  NameBucketizer buckets(0.3);
  const auto b1 = buckets.bucket("u042_train_resnet50");
  const auto b2 = buckets.bucket("u042_train_resnet50_v1");
  const auto b3 = buckets.bucket("u042_train_resnet50_v2");
  const auto b4 = buckets.bucket("u913_preprocess_pointnet");
  EXPECT_EQ(b1, b2);
  EXPECT_EQ(b1, b3);
  EXPECT_NE(b1, b4);
  EXPECT_EQ(buckets.bucket_count(), 2u);
}

TEST(NameBucketizer, LookupDoesNotCreate) {
  NameBucketizer buckets(0.3);
  buckets.bucket("alpha_job_name");
  EXPECT_EQ(buckets.lookup("alpha_job_name"), 0u);
  EXPECT_EQ(buckets.lookup("alpha_job_name_v3"), 0u);
  EXPECT_EQ(buckets.lookup("completely_different_thing"),
            NameBucketizer::kNoBucket);
  EXPECT_EQ(buckets.bucket_count(), 1u);
}

// ---------------------------------------------------------------------------
// Dataset
// ---------------------------------------------------------------------------

TEST(Dataset, RowsAndAccessors) {
  Dataset d(2);
  for (int i = 0; i < 1000; ++i) {
    const double row[] = {static_cast<double>(i), static_cast<double>(i % 7)};
    d.add_row(row, i * 2.0);
  }
  EXPECT_EQ(d.rows(), 1000u);
  EXPECT_DOUBLE_EQ(d.at(10, 0), 10.0);
  EXPECT_DOUBLE_EQ(d.target(10), 20.0);
}

// ---------------------------------------------------------------------------
// GBDT
// ---------------------------------------------------------------------------

Dataset make_linear_dataset(std::size_t n, double noise, Rng& rng) {
  Dataset d(3);
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-5.0, 5.0);
    const double x1 = rng.uniform(0.0, 1.0);
    const double x2 = rng.uniform(-1.0, 1.0);  // irrelevant
    const double row[] = {x0, x1, x2};
    d.add_row(row, 3.0 * x0 + 10.0 * x1 + rng.normal(0.0, noise));
  }
  return d;
}

TEST(FeatureBinner, CategoricalGetsOneBinPerValue) {
  Dataset d(1);
  for (int i = 0; i < 100; ++i) {
    const double row[] = {static_cast<double>(i % 5)};
    d.add_row(row, 0.0);
  }
  Rng rng(1);
  FeatureBinner binner;
  binner.fit(d, 64, rng);
  EXPECT_EQ(binner.bins(0), 5);
  EXPECT_EQ(binner.bin(0, 0.0), 0);
  EXPECT_EQ(binner.bin(0, 4.0), 4);
  EXPECT_EQ(binner.bin(0, 99.0), 4);  // clamped
}

TEST(Gbdt, FitsLinearFunction) {
  Rng rng(42);
  const Dataset train = make_linear_dataset(8000, 0.1, rng);
  const Dataset test = make_linear_dataset(2000, 0.1, rng);
  GBDTConfig cfg;
  cfg.n_trees = 80;
  cfg.max_depth = 5;
  GBDTRegressor model(cfg);
  model.fit(train);
  const auto pred = model.predict_many(test);
  std::vector<double> actual(test.targets().begin(), test.targets().end());
  EXPECT_GT(stats::r2(actual, pred), 0.95);
}

TEST(Gbdt, TrainingLossDecreases) {
  Rng rng(7);
  const Dataset train = make_linear_dataset(4000, 0.5, rng);
  GBDTRegressor model;
  model.fit(train);
  const auto& rmse = model.training_rmse();
  ASSERT_GT(rmse.size(), 10u);
  EXPECT_LT(rmse.back(), 0.5 * rmse.front());
  for (std::size_t i = 5; i < rmse.size(); i += 10) {
    EXPECT_LT(rmse[i], rmse[0]);
  }
}

TEST(Gbdt, Deterministic) {
  Rng rng(11);
  const Dataset train = make_linear_dataset(2000, 0.3, rng);
  GBDTRegressor a;
  GBDTRegressor b;
  a.fit(train);
  b.fit(train);
  const double probe[] = {1.0, 0.5, 0.0};
  EXPECT_DOUBLE_EQ(a.predict(probe), b.predict(probe));
}

TEST(Gbdt, HandlesStepFunction) {
  // Trees should nail piecewise-constant targets that linear models cannot.
  Dataset d(1);
  Rng rng(13);
  for (int i = 0; i < 4000; ++i) {
    const double x = rng.uniform(0.0, 10.0);
    const double row[] = {x};
    d.add_row(row, x < 3.0 ? 1.0 : x < 7.0 ? 5.0 : -2.0);
  }
  GBDTRegressor model;
  model.fit(d);
  const double p1[] = {1.0};
  const double p2[] = {5.0};
  const double p3[] = {9.0};
  EXPECT_NEAR(model.predict(p1), 1.0, 0.3);
  EXPECT_NEAR(model.predict(p2), 5.0, 0.3);
  EXPECT_NEAR(model.predict(p3), -2.0, 0.3);
}

TEST(FeatureBinner, ClampsBinBudgetToByteRange) {
  // > 256 bins cannot be represented in a uint8 bin id; the budget used to
  // wrap silently (bin 256 -> 0), scrambling splits. It must clamp instead.
  Dataset d(1);
  for (int i = 0; i < 3000; ++i) {
    const double row[] = {static_cast<double>(i)};  // 3000 distinct values
    d.add_row(row, 0.0);
  }
  Rng rng(3);
  for (const int budget : {256, 257, 300, 100000}) {
    FeatureBinner binner;
    binner.fit(d, budget, rng);
    ASSERT_LE(binner.bins(0), 256) << "budget " << budget;
    // Monotone bin ids end-to-end: no wraparound anywhere in the range.
    int prev = -1;
    for (int i = 0; i < 3000; i += 7) {
      const int b = binner.bin(0, static_cast<double>(i));
      ASSERT_GE(b, prev);
      prev = b;
    }
    ASSERT_EQ(prev, binner.bins(0) - 1);  // top value lands in the last bin
  }
  // The categorical one-bin-per-value path must clamp too: 500 distinct
  // values with a 1000-bin budget used to yield 501 bins and wrap.
  Dataset cat(1);
  for (int i = 0; i < 500; ++i) {
    const double row[] = {static_cast<double>(i)};
    cat.add_row(row, 0.0);
  }
  FeatureBinner binner;
  binner.fit(cat, 1000, rng);
  EXPECT_LE(binner.bins(0), 256);
  EXPECT_EQ(binner.bin(0, 499.0), binner.bins(0) - 1);
}

TEST(Gbdt, OversizedBinBudgetStillLearns) {
  Rng rng(23);
  const Dataset train = make_linear_dataset(4000, 0.1, rng);
  GBDTConfig cfg;
  cfg.max_bins = 300;  // pre-clamp this silently wrapped bin ids
  cfg.n_trees = 40;
  GBDTRegressor model(cfg);
  model.fit(train);
  const double probe[] = {2.0, 0.5, 0.0};
  EXPECT_NEAR(model.predict(probe), 11.0, 1.5);
}

TEST(Gbdt, EmptyAfterRowCapFallsBackToEmptyModel) {
  // With a tiny input and an aggressive cap, the Bernoulli row cap can
  // reject every row; fit() must yield a clean empty model, not NaNs from a
  // 0/0 base prediction.
  Dataset tiny(1);
  for (int i = 0; i < 3; ++i) {
    const double row[] = {static_cast<double>(i)};
    tiny.add_row(row, 1.0 + i);
  }
  const double probe[] = {1.0};
  bool saw_empty_capped_fit = false;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    GBDTConfig cfg;
    cfg.max_training_rows = 1;  // keep probability ~(2/3)^3 per seed
    cfg.seed = seed;
    GBDTRegressor model(cfg);
    model.fit(tiny);
    const double p = model.predict(probe);
    ASSERT_FALSE(std::isnan(p)) << "seed " << seed;
    if (!model.trained() && model.training_rmse().empty()) {
      saw_empty_capped_fit = p == 0.0;
      if (saw_empty_capped_fit) break;
    }
  }
  // At least one seed must have exercised the empty-after-cap guard.
  EXPECT_TRUE(saw_empty_capped_fit);
}

TEST(Gbdt, DenormalTinyTargetsStayFinite) {
  // Residuals around 1e-300 push the quantization exponent past ldexp's
  // range; the scale must saturate instead of going infinite (which turned
  // every quantized gradient into INT_MIN garbage).
  Dataset d(1);
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    const double row[] = {static_cast<double>(i % 7)};
    d.add_row(row, 1e-300 * static_cast<double>(i % 5));
  }
  GBDTConfig cfg;
  cfg.n_trees = 5;
  cfg.min_samples_leaf = 5;
  GBDTRegressor model(cfg);
  model.fit(d);
  const double probe[] = {3.0};
  EXPECT_TRUE(std::isfinite(model.predict(probe)));
  for (const double rmse : model.training_rmse()) {
    EXPECT_TRUE(std::isfinite(rmse));
  }
}

TEST(Gbdt, EmptyAndTinyDatasets) {
  GBDTRegressor model;
  model.fit(Dataset(2));
  EXPECT_FALSE(model.trained());
  const double probe[] = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(model.predict(probe), 0.0);

  Dataset tiny(1);
  const double row[] = {1.0};
  tiny.add_row(row, 5.0);
  model.fit(tiny);
  EXPECT_NEAR(model.predict(row), 5.0, 1e-9);  // base prediction = mean
}

TEST(Gbdt, MaxTrainingRowsCap) {
  Rng rng(17);
  const Dataset train = make_linear_dataset(20000, 0.2, rng);
  GBDTConfig cfg;
  cfg.max_training_rows = 2000;
  cfg.n_trees = 30;
  GBDTRegressor model(cfg);
  model.fit(train);  // should be fast and still learn the signal
  const double probe[] = {2.0, 0.5, 0.0};
  EXPECT_NEAR(model.predict(probe), 11.0, 1.5);
}

TEST(RegressionTree, SingleSplit) {
  Dataset d(1);
  for (int i = 0; i < 200; ++i) {
    const double row[] = {static_cast<double>(i)};
    d.add_row(row, i < 100 ? 0.0 : 10.0);
  }
  Rng rng(1);
  FeatureBinner binner;
  binner.fit(d, 64, rng);
  std::vector<std::uint32_t> rows(d.rows());
  for (std::size_t r = 0; r < rows.size(); ++r) rows[r] = static_cast<std::uint32_t>(r);
  const auto grad = QuantizedGradients::from(d.targets());
  std::vector<std::int32_t> leaf_of(d.rows(), -1);
  GBDTConfig cfg;
  cfg.max_depth = 1;
  cfg.min_samples_leaf = 5;
  cfg.lambda = 0.0;
  const BinnedMatrix binned = bin_dataset(d, binner);
  RegressionTree tree;
  tree.fit(binned, binner, grad, rows, leaf_of, cfg);
  const double lo[] = {50.0};
  const double hi[] = {150.0};
  EXPECT_NEAR(tree.predict(lo), 0.0, 0.5);
  EXPECT_NEAR(tree.predict(hi), 10.0, 0.5);
  // Training rows recorded their leaf, and the binned walk agrees.
  for (std::size_t r = 0; r < d.rows(); ++r) {
    EXPECT_EQ(leaf_of[r], tree.leaf_for_binned(binned, r));
  }
}

// ---------------------------------------------------------------------------
// Ridge regression
// ---------------------------------------------------------------------------

TEST(Ridge, RecoversLinearWeights) {
  Rng rng(21);
  Dataset d(2);
  for (int i = 0; i < 5000; ++i) {
    const double x0 = rng.normal(0.0, 1.0);
    const double x1 = rng.normal(0.0, 1.0);
    const double row[] = {x0, x1};
    d.add_row(row, 4.0 * x0 - 2.5 * x1 + 7.0 + rng.normal(0.0, 0.01));
  }
  RidgeRegression model(1e-6);
  model.fit(d);
  ASSERT_TRUE(model.trained());
  EXPECT_NEAR(model.weights()[0], 4.0, 0.01);
  EXPECT_NEAR(model.weights()[1], -2.5, 0.01);
  EXPECT_NEAR(model.intercept(), 7.0, 0.01);
}

TEST(Ridge, DegenerateFallsBackToMean) {
  Dataset d(1);
  for (int i = 0; i < 10; ++i) {
    const double row[] = {3.0};  // constant feature -> singular after ridge? no:
    d.add_row(row, 5.0);         // ridge keeps it SPD; weight ~ 0
  }
  RidgeRegression model(1.0);
  model.fit(d);
  const double probe[] = {3.0};
  EXPECT_NEAR(model.predict(probe), 5.0, 1e-6);
}

TEST(CholeskySolve, KnownSystem) {
  // A = [[4,2],[2,3]], b = [10, 8] -> x = [1.75, 1.5]
  std::vector<double> a = {4.0, 2.0, 2.0, 3.0};
  std::vector<double> b = {10.0, 8.0};
  ASSERT_TRUE(cholesky_solve(a, b, 2));
  EXPECT_NEAR(b[0], 1.75, 1e-12);
  EXPECT_NEAR(b[1], 1.5, 1e-12);
}

TEST(CholeskySolve, RejectsNonSpd) {
  std::vector<double> a = {0.0, 0.0, 0.0, 0.0};
  std::vector<double> b = {1.0, 1.0};
  EXPECT_FALSE(cholesky_solve(a, b, 2));
}

}  // namespace
}  // namespace helios::ml
