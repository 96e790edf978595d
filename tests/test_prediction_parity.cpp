// Golden parity suite for the prediction layer (smoke):
//
//  * GBDT training (sibling-subtraction, row-parallel, chunked histograms)
//    must reproduce a from-scratch oracle trainer that lives only in this
//    file — every tree's nodes (features, split bins, thresholds, links, leaf
//    values, gains) and every row's leaf, boosting round by boosting round,
//    and then the regressor's whole model and per-iteration training RMSE —
//    across seeds and configs on trace::synthetic-derived data. Exactness is
//    by construction (int64 quantized gradients), and this suite is the
//    regression net for the row-set / subtraction / leaf-tracking machinery
//    on top. Every node runs the trainer's one histogram path (packed
//    per-chunk partials folded into (sum, count) planes); CMakeLists.txt
//    also runs the oracle cases at pool widths 1 and 4.
//  * predict_many (batched, binned, tree-at-a-time) must equal predict()
//    per row, bitwise.
//  * OnlinePriorityEvaluator's batched mode (P_M from one predict_many
//    pass) must reproduce the per-row reference — priorities,
//    prediction-quality vectors, and the service's final state down to its
//    saved bytes — trained, untrained and without job names.
//  * The AVX2 forest walk must be bit-identical to the scalar walk:
//    predict_many and evaluator output are compared with the dispatch forced
//    on vs off. Skipped (not silently passed) where the hardware or build
//    lacks AVX2.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <utility>

#include "common/rng.h"
#include "common/simd.h"
#include "core/qssf_service.h"
#include "ml/dataset.h"
#include "ml/gbdt.h"
#include "serialize/binary.h"
#include "trace/synthetic.h"

namespace {

/// Forces the SIMD dispatch for one scope; restores the prior state on exit.
/// `active` reports whether the requested state actually took effect (asking
/// for SIMD on a scalar-only build/CPU yields false — callers GTEST_SKIP).
class ScopedSimd {
 public:
  explicit ScopedSimd(bool on)
      : prev_(helios::common::simd_enabled()),
        active_(helios::common::set_simd_enabled(on) == on) {}
  ~ScopedSimd() { helios::common::set_simd_enabled(prev_); }
  ScopedSimd(const ScopedSimd&) = delete;
  ScopedSimd& operator=(const ScopedSimd&) = delete;
  [[nodiscard]] bool active() const noexcept { return active_; }

 private:
  bool prev_;
  bool active_;
};

}  // namespace

namespace helios::ml {
namespace {

/// QSSF-shaped feature encoding of a synthetic trace: demand, user/VC ids,
/// calendar fields; target = log1p(duration) — the shape the service trains
/// on, without depending on core/.
Dataset trace_dataset(const trace::Trace& t) {
  Dataset d(7);
  std::vector<double> row(7);
  for (const auto& j : t.jobs()) {
    if (!j.is_gpu_job()) continue;
    const CivilTime c = to_civil(j.submit_time);
    row[0] = static_cast<double>(j.num_gpus);
    row[1] = static_cast<double>(j.num_cpus);
    row[2] = static_cast<double>(j.vc);
    row[3] = static_cast<double>(j.user);
    row[4] = static_cast<double>(c.weekday);
    row[5] = static_cast<double>(c.hour);
    row[6] = static_cast<double>(c.minute);
    d.add_row(row, std::log1p(static_cast<double>(j.duration)));
  }
  return d;
}

// ---------------------------------------------------------------------------
// Oracle trainer
// ---------------------------------------------------------------------------

/// The straightforward GBDT tree builder, kept as a test oracle: every node
/// rebuilds its histograms from scratch over its own rows, feature by
/// feature, serially, into separate sum/count arrays, then splits with
/// std::partition. It shares no code with RegressionTree::fit beyond the
/// inputs both read (binned matrix, binner, quantized gradients, config), so
/// agreement is evidence, not tautology.
struct OracleTreeBuilder {
  const BinnedMatrix& x;
  const FeatureBinner& binner;
  const QuantizedGradients& grad;
  const GBDTConfig& cfg;
  std::span<std::int32_t> leaf_of;
  std::vector<RegressionTree::Node> nodes;

  struct Split {
    double gain = 0.0;
    std::int32_t feature = -1;
    int bin = -1;
  };

  [[nodiscard]] double leaf_value(std::int64_t total_q,
                                  std::int64_t total_cnt) const {
    return (static_cast<double>(total_q) * grad.inv_scale) /
           (static_cast<double>(total_cnt) + cfg.lambda);
  }

  /// Best variance-gain split of one feature's histogram.
  [[nodiscard]] Split best_split(const std::vector<std::int64_t>& sum,
                                 const std::vector<std::int64_t>& cnt,
                                 std::int64_t total_q, std::int64_t total_cnt,
                                 std::int32_t feature) const {
    Split best;
    const double total_sum = static_cast<double>(total_q) * grad.inv_scale;
    const double parent_score =
        total_sum * total_sum / (static_cast<double>(total_cnt) + cfg.lambda);
    std::int64_t left_q = 0;
    std::int64_t left_cnt = 0;
    for (std::size_t b = 0; b + 1 < sum.size(); ++b) {
      left_q += sum[b];
      left_cnt += cnt[b];
      const std::int64_t right_cnt = total_cnt - left_cnt;
      if (left_cnt < cfg.min_samples_leaf) continue;
      if (right_cnt < cfg.min_samples_leaf) break;
      const double left_sum = static_cast<double>(left_q) * grad.inv_scale;
      const double right_sum =
          static_cast<double>(total_q - left_q) * grad.inv_scale;
      const double gain =
          left_sum * left_sum / (static_cast<double>(left_cnt) + cfg.lambda) +
          right_sum * right_sum /
              (static_cast<double>(right_cnt) + cfg.lambda) -
          parent_score;
      if (gain > best.gain) best = {gain, feature, static_cast<int>(b)};
    }
    return best;
  }

  std::int32_t build(std::span<std::uint32_t> rows, int depth) {
    const auto node_id = static_cast<std::int32_t>(nodes.size());
    nodes.emplace_back();

    std::int64_t total_q = 0;
    for (const std::uint32_t r : rows) total_q += grad.q[r];
    const auto total_cnt = static_cast<std::int64_t>(rows.size());

    const auto make_leaf = [&] {
      nodes[static_cast<std::size_t>(node_id)].value =
          leaf_value(total_q, total_cnt);
      for (const std::uint32_t r : rows) leaf_of[r] = node_id;
      return node_id;
    };
    if (depth >= cfg.max_depth ||
        total_cnt < 2 * static_cast<std::int64_t>(cfg.min_samples_leaf)) {
      return make_leaf();
    }

    Split best;
    for (std::size_t f = 0; f < x.features; ++f) {
      std::vector<std::int64_t> sum(static_cast<std::size_t>(binner.bins(f)), 0);
      std::vector<std::int64_t> cnt(sum.size(), 0);
      for (const std::uint32_t r : rows) {
        sum[x.at(r, f)] += grad.q[r];
        ++cnt[x.at(r, f)];
      }
      const Split s = best_split(sum, cnt, total_q, total_cnt,
                                 static_cast<std::int32_t>(f));
      if (s.gain > best.gain) best = s;
    }
    if (best.feature < 0 || best.gain <= 1e-12) return make_leaf();

    const auto f = static_cast<std::size_t>(best.feature);
    const auto mid = std::partition(rows.begin(), rows.end(), [&](std::uint32_t r) {
      return x.at(r, f) <= best.bin;
    });
    const auto n_left = static_cast<std::size_t>(mid - rows.begin());
    if (n_left == 0 || n_left == rows.size()) return make_leaf();

    {
      auto& node = nodes[static_cast<std::size_t>(node_id)];
      node.feature = best.feature;
      node.split_bin = best.bin;
      node.threshold = binner.edge(f, best.bin);
      node.gain = best.gain;
    }
    const std::int32_t left = build(rows.subspan(0, n_left), depth + 1);
    const std::int32_t right = build(rows.subspan(n_left), depth + 1);
    auto& node = nodes[static_cast<std::size_t>(node_id)];
    node.left = left;
    node.right = right;
    return node_id;
  }
};

struct OracleModel {
  std::vector<std::vector<RegressionTree::Node>> trees;
  std::vector<double> training_rmse;
};

/// Plain boosting loop around the oracle builder: row cap, binning, one
/// residual pass, one subsample pass and a raw-feature prediction update
/// per round, drawing from the RNG in the same order GBDTRegressor::fit
/// documents. Each round, RegressionTree::fit runs on the very same binned
/// matrix, quantized gradients and sampled rows and must match the oracle's
/// nodes and every row's recorded leaf exactly.
void oracle_fit(const Dataset& full, const GBDTConfig& cfg, OracleModel& out) {
  Rng rng(cfg.seed);
  Dataset capped(full.features());
  const Dataset* data = &full;
  if (cfg.max_training_rows > 0 && full.rows() > cfg.max_training_rows) {
    const double keep = static_cast<double>(cfg.max_training_rows) /
                        static_cast<double>(full.rows());
    for (std::size_t r = 0; r < full.rows(); ++r) {
      if (rng.bernoulli(keep)) capped.add_row(full.row(r), full.target(r));
    }
    data = &capped;
  }
  const std::size_t n = data->rows();
  if (n == 0) return;
  double mean = 0.0;
  for (std::size_t r = 0; r < n; ++r) mean += data->target(r);
  std::vector<double> prediction(n, mean / static_cast<double>(n));

  FeatureBinner binner;
  binner.fit(*data, cfg.max_bins, rng);
  const BinnedMatrix x = bin_dataset(*data, binner);

  std::vector<double> residuals(n);
  for (int t = 0; t < cfg.n_trees; ++t) {
    double sq = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      residuals[r] = data->target(r) - prediction[r];
      sq += residuals[r] * residuals[r];
    }
    out.training_rmse.push_back(std::sqrt(sq / static_cast<double>(n)));

    std::vector<std::uint32_t> rows;
    for (std::size_t r = 0; r < n; ++r) {
      if (cfg.subsample >= 1.0 || rng.bernoulli(cfg.subsample)) {
        rows.push_back(static_cast<std::uint32_t>(r));
      }
    }
    if (rows.size() < static_cast<std::size_t>(2 * cfg.min_samples_leaf)) break;

    const QuantizedGradients grad = QuantizedGradients::from(residuals);
    std::vector<std::int32_t> oracle_leaf(n, -1);
    OracleTreeBuilder oracle{x, binner, grad, cfg, oracle_leaf, {}};
    std::vector<std::uint32_t> oracle_rows = rows;
    if (!oracle_rows.empty()) oracle.build(oracle_rows, 0);

    std::vector<std::int32_t> tree_leaf(n, -1);
    RegressionTree tree;
    tree.fit(x, binner, grad, rows, tree_leaf, cfg);
    ASSERT_TRUE(tree.nodes() == oracle.nodes) << "tree " << out.trees.size();
    for (std::size_t r = 0; r < n; ++r) {
      ASSERT_EQ(tree_leaf[r], oracle_leaf[r])
          << "tree " << out.trees.size() << " row " << r;
    }
    if (oracle.nodes.empty()) break;

    for (std::size_t r = 0; r < n; ++r) {
      std::size_t i = 0;
      while (oracle.nodes[i].feature >= 0) {
        const auto& node = oracle.nodes[i];
        i = static_cast<std::size_t>(
            data->at(r, static_cast<std::size_t>(node.feature)) <= node.threshold
                ? node.left
                : node.right);
      }
      prediction[r] += cfg.learning_rate * oracle.nodes[i].value;
    }
    out.trees.push_back(std::move(oracle.nodes));
  }
}

/// The oracle's configs: depths 1/4/6, min_samples_leaf 0/5/20, with and
/// without subsampling and the training-row cap.
std::vector<GBDTConfig> oracle_configs(std::size_t rows, std::uint64_t seed) {
  std::vector<GBDTConfig> configs(5);
  configs[0].n_trees = 10;
  configs[1].n_trees = 8;
  configs[1].max_depth = 4;
  configs[1].max_bins = 33;
  configs[1].subsample = 1.0;
  configs[2].n_trees = 8;
  configs[2].min_samples_leaf = 5;
  configs[2].max_training_rows = rows / 2;
  configs[3].n_trees = 8;
  configs[3].max_depth = 1;
  configs[3].min_samples_leaf = 0;
  configs[4].n_trees = 6;
  configs[4].min_samples_leaf = 0;
  configs[4].subsample = 0.5;
  for (auto& cfg : configs) cfg.seed = seed;
  return configs;
}

/// Runs the oracle over every config and seed, then checks that the
/// regressor's own boosting loop reproduces the oracle's whole model. The
/// largest trace has root nodes above the 16k-row histogram grain, so a
/// multi-thread pool accumulates them in several chunks.
TEST(GbdtOracle, MatchesAcrossSeedsAndConfigs) {
  const std::pair<std::uint64_t, double> traces[] = {
      {11, 0.02}, {29, 0.02}, {47, 0.2}};
  for (const auto& [seed, scale] : traces) {
    auto gen = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"),
                                              seed, scale);
    const Dataset data =
        trace_dataset(trace::SyntheticTraceGenerator(gen).generate());
    ASSERT_GT(data.rows(), 1000u);
    for (const GBDTConfig& cfg : oracle_configs(data.rows(), seed)) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " depth " +
                   std::to_string(cfg.max_depth) + " min_leaf " +
                   std::to_string(cfg.min_samples_leaf));
      OracleModel oracle;
      oracle_fit(data, cfg, oracle);
      if (::testing::Test::HasFatalFailure()) return;
      ASSERT_FALSE(oracle.trees.empty());

      GBDTRegressor model(cfg);
      model.fit(data);
      ASSERT_EQ(model.tree_count(), oracle.trees.size());
      ASSERT_EQ(model.training_rmse(), oracle.training_rmse);
      for (std::size_t t = 0; t < oracle.trees.size(); ++t) {
        ASSERT_TRUE(model.trees()[t].nodes() == oracle.trees[t])
            << "tree " << t;
      }
    }
  }
}

TEST(GbdtEngineParity, PredictManyMatchesPerRowBitwise) {
  auto gen = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"), 11,
                                            0.02);
  const Dataset data = trace_dataset(trace::SyntheticTraceGenerator(gen).generate());
  GBDTConfig cfg;
  cfg.n_trees = 10;
  GBDTRegressor model(cfg);
  model.fit(data);
  const auto batched = model.predict_many(data);
  ASSERT_EQ(batched.size(), data.rows());
  for (std::size_t r = 0; r < data.rows(); ++r) {
    ASSERT_EQ(batched[r], model.predict(data.row(r))) << "row " << r;
  }
}

// The AVX2 forest walk performs the same separate multiply-then-add per
// (row, tree) as the scalar loop, so batched predictions must match the
// scalar batch AND the per-row reference bitwise — including the tail rows
// the kernel hands back to the scalar walker.
TEST(SimdParity, PredictManyBitIdenticalToScalar) {
  {
    ScopedSimd probe(true);
    if (!probe.active()) GTEST_SKIP() << "AVX2 unavailable: " << common::simd_mode();
  }
  auto gen = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"), 31,
                                            0.02);
  const Dataset data = trace_dataset(trace::SyntheticTraceGenerator(gen).generate());
  GBDTConfig cfg;
  cfg.n_trees = 12;
  GBDTRegressor model(cfg);
  model.fit(data);
  std::vector<double> simd_out;
  std::vector<double> scalar_out;
  {
    ScopedSimd simd(true);
    simd_out = model.predict_many(data);
  }
  {
    ScopedSimd scalar(false);
    scalar_out = model.predict_many(data);
  }
  ASSERT_EQ(simd_out.size(), data.rows());
  for (std::size_t r = 0; r < data.rows(); ++r) {
    ASSERT_EQ(simd_out[r], scalar_out[r]) << "row " << r;
    ASSERT_EQ(simd_out[r], model.predict(data.row(r))) << "row " << r;
  }
}

}  // namespace
}  // namespace helios::ml

namespace helios::core {
namespace {

TEST(EvaluatorParity, BatchedMatchesPerRowBitwise) {
  auto gen = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"), 13,
                                            0.02);
  const trace::Trace t = trace::SyntheticTraceGenerator(gen).generate();
  const auto train =
      t.between(trace::helios_trace_begin(), from_civil(2020, 9, 1));
  const auto eval = t.between(from_civil(2020, 9, 1), trace::helios_trace_end());

  auto saved = [](const QssfService& svc) {
    serialize::Writer w;
    svc.save(w);
    return w.buffer();
  };
  struct Case {
    bool trained;
    bool use_names;
  };
  for (const Case c : {Case{true, true}, Case{false, true}, Case{true, false}}) {
    QssfConfig cfg;
    cfg.gbdt.n_trees = 15;
    cfg.use_names = c.use_names;
    QssfService serial_svc(cfg);
    QssfService batched_svc(cfg);
    if (c.trained) {
      serial_svc.fit(train);
      batched_svc.fit(train);
    }
    EvalOptions serial_opts;
    serial_opts.execution = common::ExecMode::kSerial;
    EvalOptions batched_opts;
    batched_opts.execution = common::ExecMode::kParallel;
    OnlinePriorityEvaluator serial_eval(serial_svc, eval, serial_opts);
    OnlinePriorityEvaluator batched_eval(batched_svc, eval, batched_opts);
    const std::string config = "trained=" + std::to_string(c.trained) +
                               " use_names=" + std::to_string(c.use_names);
    ASSERT_EQ(serial_eval.predicted_gpu_time(),
              batched_eval.predicted_gpu_time())
        << config;
    ASSERT_EQ(serial_eval.actual_gpu_time(), batched_eval.actual_gpu_time());
    for (const auto& j : eval.jobs()) {
      if (!j.is_gpu_job()) continue;
      ASSERT_EQ(serial_eval.priority_of(j), batched_eval.priority_of(j))
          << "job " << j.job_id << " " << config;
      // The service's final rolling state must match the per-row feed too.
      ASSERT_EQ(serial_svc.rolling().estimate(eval, j),
                batched_svc.rolling().estimate(eval, j))
          << "job " << j.job_id << " " << config;
    }
    // ...down to the saved bytes: dedupe ids, the observe counter, the
    // name-eviction clocks and the name buckets, which no estimate reads
    // directly.
    ASSERT_EQ(saved(serial_svc), saved(batched_svc)) << config;
  }
}

// End-to-end dispatch sweep: the whole evaluator pipeline (GBDT fit +
// batched predict_many + the causal loop) must produce bit-identical
// priorities and quality vectors with SIMD forced on vs forced off.
TEST(EvaluatorParity, SimdDispatchBitIdentical) {
  {
    ScopedSimd probe(true);
    if (!probe.active()) {
      GTEST_SKIP() << "AVX2 unavailable: " << common::simd_mode();
    }
  }
  auto gen = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"), 41,
                                            0.02);
  const trace::Trace t = trace::SyntheticTraceGenerator(gen).generate();
  const auto train =
      t.between(trace::helios_trace_begin(), from_civil(2020, 9, 1));
  const auto eval = t.between(from_civil(2020, 9, 1), trace::helios_trace_end());

  QssfConfig cfg;
  cfg.gbdt.n_trees = 12;
  auto run = [&](bool simd_on) {
    ScopedSimd simd(simd_on);
    QssfService svc(cfg);
    svc.fit(train);
    OnlinePriorityEvaluator ev(svc, eval, {});
    return std::make_pair(ev.predicted_gpu_time(), ev.actual_gpu_time());
  };
  const auto simd_result = run(true);
  const auto scalar_result = run(false);
  ASSERT_EQ(simd_result.first, scalar_result.first);
  ASSERT_EQ(simd_result.second, scalar_result.second);
}

TEST(EvaluatorParity, EmptyAndCpuOnlyTraces) {
  trace::ClusterSpec spec;
  spec.name = "s";
  spec.vcs = {{"vc0", 2, 8}};
  spec.nodes = 2;
  trace::Trace empty(spec);
  trace::Trace cpu_only(spec);
  cpu_only.add(0, 100, 0, 8, "u", "vc0", "prep", trace::JobState::kCompleted);

  for (const auto execution : {common::ExecMode::kParallel, common::ExecMode::kSerial}) {
    EvalOptions opts;
    opts.execution = execution;
    QssfService svc;
    OnlinePriorityEvaluator a(svc, empty, opts);
    EXPECT_TRUE(a.predicted_gpu_time().empty());
    OnlinePriorityEvaluator b(svc, cpu_only, opts);
    EXPECT_TRUE(b.predicted_gpu_time().empty());
  }
}

}  // namespace
}  // namespace helios::core
