#include "ml/gbdt.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/simd.h"
#include "common/thread_pool.h"
#include "ml/gbdt_kernels.h"
#include "serialize/binary.h"

namespace helios::ml {

// ---------------------------------------------------------------------------
// QuantizedGradients
// ---------------------------------------------------------------------------

void QuantizedGradients::assign(std::span<const double> gradients) {
  double max_abs = 0.0;
  for (const double g : gradients) max_abs = std::max(max_abs, std::fabs(g));
  assign(gradients, max_abs);
}

void QuantizedGradients::assign(std::span<const double> gradients,
                                double max_abs) {
  q.resize(gradients.size());

  // Pick scale = 2^k such that |sum of all n quantized gradients| < 2^38 and
  // every |q| < 2^30: int64-exact sums under any accumulation order and
  // subtraction, headroom for the histogram engine to pack a 24-bit row
  // count into the low bits of the same int64, and int32 storage per row.
  // Powers of two keep q * inv_scale an exact rescaling (only the int ->
  // double conversion rounds, identically everywhere). The quantum,
  // ~max_abs * n / 2^38, is ~1e-6 relative — far below the residual noise
  // the trees are fitting.
  double scale = 1.0;
  if (max_abs > 0.0 && std::isfinite(max_abs)) {
    int exp = 0;
    std::frexp(max_abs, &exp);  // max_abs < 2^exp
    const int n_bits = static_cast<int>(std::bit_width(gradients.size() + 1));
    // Cap at 1023 so ldexp stays finite when the residuals are themselves
    // denormal-tiny (exp << 0); the quantization just bottoms out there.
    const int k = std::min({38 - exp - n_bits, 29 - exp, 1023});
    scale = std::ldexp(1.0, k);
  }
  inv_scale = 1.0 / scale;
  parallel_for_chunks(
      0, gradients.size(),
      [this, gradients, scale](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          // Round half away from zero — llround semantics without the call;
          // copysign keeps the loop branch-free (vectorizable).
          const double x = gradients[r] * scale;
          q[r] = static_cast<std::int32_t>(x + std::copysign(0.5, x));
        }
      },
      /*grain=*/16384);
}

// ---------------------------------------------------------------------------
// Tree builders
// ---------------------------------------------------------------------------

namespace {

/// Within one chunk's accumulation the histogram kernel packs each bucket
/// into one int64: (gradient_sum << 24) + row_count, so a single integer add
/// updates both. A chunk has fewer than 2^24 rows (build_hist plans them so)
/// and |gradient_sum| stays below 2^38 (the QuantizedGradients scale), so the
/// fields cannot bleed into each other. Each packed partial is then unpacked
/// into the node histogram's two planes.
constexpr int kCountBits = 24;
/// Row-chunk grain of the parallel histogram accumulation.
constexpr std::size_t kHistGrain = 16384;
/// Most rows one packed accumulation may hold.
constexpr std::size_t kMaxChunkRows = (std::size_t{1} << kCountBits) - 1;

struct SplitDecision {
  double gain = 0.0;
  std::int32_t feature = -1;
  int bin = -1;  // go left iff bin(value) <= bin
  std::int64_t left_q = 0;
  std::int64_t left_cnt = 0;
};

/// Shrunk mean residual.
double leaf_value(std::int64_t total_q, std::int64_t total_cnt, double inv_scale,
                  const GBDTConfig& cfg) {
  return (static_cast<double>(total_q) * inv_scale) /
         (static_cast<double>(total_cnt) + cfg.lambda);
}

/// Best split for one feature from its exact per-bin gradient sums and row
/// counts.
SplitDecision best_split(const std::int64_t* hist_sum,
                         const std::int64_t* hist_cnt, int n_bins,
                         std::int64_t total_q, std::int64_t total_cnt,
                         double inv_scale, std::int32_t feature,
                         const GBDTConfig& cfg) {
  SplitDecision best;
  const double total_sum = static_cast<double>(total_q) * inv_scale;
  const double parent_score =
      total_sum * total_sum / (static_cast<double>(total_cnt) + cfg.lambda);
  std::int64_t left_q = 0;
  std::int64_t left_cnt = 0;
  for (int b = 0; b + 1 < n_bins; ++b) {
    left_q += hist_sum[b];
    left_cnt += hist_cnt[b];
    const std::int64_t right_cnt = total_cnt - left_cnt;
    if (left_cnt < cfg.min_samples_leaf) continue;
    if (right_cnt < cfg.min_samples_leaf) break;
    const double left_sum = static_cast<double>(left_q) * inv_scale;
    const double right_sum = static_cast<double>(total_q - left_q) * inv_scale;
    const double score =
        left_sum * left_sum / (static_cast<double>(left_cnt) + cfg.lambda) +
        right_sum * right_sum / (static_cast<double>(right_cnt) + cfg.lambda);
    const double gain = score - parent_score;
    if (gain > best.gain) {
      best.gain = gain;
      best.feature = feature;
      best.bin = b;
      best.left_q = left_q;
      best.left_cnt = left_cnt;
    }
  }
  return best;
}

/// Tree builder: persistent row sets partitioned in place over a
/// row-major binned matrix (a row's features are adjacent bytes, so each row
/// costs 1-2 cache lines), row-parallel accumulation into per-chunk buffers
/// folded in chunk order on the shared pool, and the sibling-subtraction
/// trick — only the smaller child scans its rows; the larger child's
/// histogram is parent minus sibling, exact in int64.
///
/// A node histogram is one buffer of two int64 planes: gradient sums in
/// [0, total_bins), row counts in [total_bins, 2 * total_bins). Both are
/// exact integers, so chunk folds and subtraction are exact under any order.
struct HistogramBuilder {
  const BinnedMatrix& x;
  const FeatureBinner& binner;
  std::span<const std::int32_t> grad;
  double inv_scale;
  const GBDTConfig& cfg;
  std::vector<RegressionTree::Node>& nodes;
  std::span<std::int32_t> leaf_of;

  std::size_t p = 0;
  int total_bins = 0;
  std::vector<int> offset{};           // per-feature slice into a histogram
  // Freed node histograms for reuse (allocating + zeroing ~9KB per node adds
  // up over thousands of nodes per fit).
  std::vector<std::vector<std::int64_t>> hist_pool{};

  void init() {
    p = x.features;
    offset.resize(p);
    total_bins = 0;
    for (std::size_t f = 0; f < p; ++f) {
      offset[f] = total_bins;
      total_bins += binner.bins(f);
    }
  }

  [[nodiscard]] std::vector<std::int64_t> take_buffer(std::size_t size) {
    if (hist_pool.empty()) return std::vector<std::int64_t>(size, 0);
    std::vector<std::int64_t> h = std::move(hist_pool.back());
    hist_pool.pop_back();
    h.assign(size, 0);
    return h;
  }
  void recycle(std::vector<std::int64_t>&& h) {
    if (!h.empty()) hist_pool.push_back(std::move(h));
  }

  /// Packed accumulation of rows[lo, hi) into `h` (2 * total_bins zeros),
  /// then unpacked in place into the (sum, count) planes.
  void accumulate(std::span<const std::uint32_t> rows, std::size_t lo,
                  std::size_t hi, std::vector<std::int64_t>& h) const {
    // Two arenas, alternating rows: consecutive rows that hit the same
    // bucket would otherwise serialize on the store-to-load forward of one
    // int64 — skewed (categorical-like) features do this constantly. The
    // arenas merge exactly (integer adds), so parity is unaffected. The
    // uint16 global plane folds the per-feature histogram offset into the
    // matrix itself: one indexed add per cell.
    const auto nb = static_cast<std::size_t>(total_bins);
    std::int64_t* h0 = h.data();
    std::int64_t* h1 = h.data() + nb;
    if (x.global.empty()) {
      // Generic fallback (> 64k total bins): uint8 bins + explicit offsets.
      const int* off = offset.data();
      for (std::size_t k = lo; k < hi; ++k) {
        const std::uint8_t* rb = x.bins.data() + rows[k] * p;
        const std::int64_t gp =
            (static_cast<std::int64_t>(grad[rows[k]]) << kCountBits) | 1;
        for (std::size_t f = 0; f < p; ++f) {
          h0[static_cast<std::size_t>(off[f]) + rb[f]] += gp;
        }
      }
    } else {
      kernels::hist_accumulate(x.global.data(), p, rows.data(), lo, hi,
                               grad.data(), h0, h1);
    }
    for (std::size_t b = 0; b < nb; ++b) {
      const std::int64_t pack = h0[b] + h1[b];
      h0[b] = pack >> kCountBits;  // arithmetic shift = floor division: exact
      h1[b] = pack & ((std::int64_t{1} << kCountBits) - 1);
    }
  }

  /// Node histogram of `rows` (non-empty). The chunk plan is the pool's
  /// (one chunk on a 1-thread pool, up to 2 per thread otherwise) with
  /// enough chunks that none reaches 2^24 rows; partials fold in chunk order.
  [[nodiscard]] std::vector<std::int64_t> build_hist(
      std::span<const std::uint32_t> rows) {
    const std::size_t threads = global_pool().thread_count();
    const std::size_t max_chunks = std::max<std::size_t>(
        threads > 1 ? 2 * threads : 1,
        (rows.size() + kMaxChunkRows - 1) / kMaxChunkRows);
    const auto chunks = chunk_ranges(0, rows.size(), max_chunks, kHistGrain);
    // The buffer pool is only safe when every chunk runs on this thread: a
    // 1-thread pool, or a single chunk (which the driver runs inline).
    // Concurrent chunks allocate their own.
    const bool pooled = threads <= 1 || chunks.size() == 1;
    const auto size = 2 * static_cast<std::size_t>(total_bins);
    std::vector<std::vector<std::int64_t>> parts(chunks.size());
    parallel_run_chunks(
        chunks, [&](std::size_t i, std::size_t lo, std::size_t hi) {
          parts[i] = pooled ? take_buffer(size)
                            : std::vector<std::int64_t>(size, 0);
          accumulate(rows, lo, hi, parts[i]);
        });
    std::vector<std::int64_t> hist = std::move(parts.front());
    for (std::size_t i = 1; i < parts.size(); ++i) {
      for (std::size_t b = 0; b < size; ++b) hist[b] += parts[i][b];
      if (pooled) recycle(std::move(parts[i]));
    }
    return hist;
  }

  std::int32_t build(std::span<std::uint32_t> rows,
                     std::vector<std::int64_t> hist,
                     std::int64_t total_q, int depth) {
    const auto node_id = static_cast<std::int32_t>(nodes.size());
    nodes.emplace_back();
    const auto total_cnt = static_cast<std::int64_t>(rows.size());

    auto make_leaf = [&] {
      nodes[static_cast<std::size_t>(node_id)].value =
          leaf_value(total_q, total_cnt, inv_scale, cfg);
      for (const std::uint32_t r : rows) leaf_of[r] = node_id;
      return node_id;
    };

    if (depth >= cfg.max_depth ||
        total_cnt < 2 * static_cast<std::int64_t>(cfg.min_samples_leaf)) {
      recycle(std::move(hist));
      return make_leaf();
    }

    SplitDecision best;
    const std::int64_t* sums = hist.data();
    const std::int64_t* counts = hist.data() + total_bins;
    for (std::size_t f = 0; f < p; ++f) {
      const SplitDecision d =
          best_split(sums + offset[f], counts + offset[f], binner.bins(f),
                     total_q, total_cnt, inv_scale,
                     static_cast<std::int32_t>(f), cfg);
      if (d.gain > best.gain) best = d;
    }
    if (best.feature < 0 || best.gain <= 1e-12) {
      recycle(std::move(hist));
      return make_leaf();
    }

    // The histogram counts are exact row counts, so the split sizes are
    // known before touching a row. (A zero-sized side is possible only with
    // min_samples_leaf == 0; it makes a leaf.)
    const std::size_t n_left = static_cast<std::size_t>(best.left_cnt);
    if (n_left == 0 || n_left == rows.size()) {
      recycle(std::move(hist));
      return make_leaf();
    }

    // Stable branchless split: one store per row at an arithmetically
    // selected cursor instead of std::partition's 50/50-mispredicted branch
    // and swaps (a ternary select here compiles to exactly that branch).
    // Stability keeps every node's row list sorted ascending, which keeps
    // the child histogram gathers prefetch-friendly. Row order never affects
    // results (int64 histograms are order-exact), only speed.
    const std::size_t split_col = static_cast<std::size_t>(best.feature);
    {
      thread_local std::vector<std::uint32_t> split_tmp;
      split_tmp.resize(rows.size());
      const std::uint8_t* bins = x.bins.data();
      std::size_t li = 0;
      std::size_t ri = n_left;
      for (const std::uint32_t r : rows) {
        const auto go_right = static_cast<std::size_t>(
            bins[static_cast<std::size_t>(r) * p + split_col] > best.bin);
        split_tmp[li + go_right * (ri - li)] = r;
        ri += go_right;
        li += 1 - go_right;
      }
      std::copy(split_tmp.begin(), split_tmp.end(), rows.begin());
    }
    const auto left_rows = rows.subspan(0, n_left);
    const auto right_rows = rows.subspan(n_left);

    {
      auto& node = nodes[static_cast<std::size_t>(node_id)];
      node.feature = best.feature;
      node.split_bin = best.bin;
      node.threshold = binner.edge(split_col, best.bin);
      node.gain = best.gain;
    }

    const std::int64_t right_q = total_q - best.left_q;
    // A child only needs a histogram if it will attempt a split itself (the
    // entry checks of the recursive call). Skipping the build for leaf-only
    // children drops the entire last tree level's histogram work.
    const auto will_split = [&](std::size_t n_rows) {
      return depth + 1 < cfg.max_depth &&
             static_cast<std::int64_t>(n_rows) >=
                 2 * static_cast<std::int64_t>(cfg.min_samples_leaf);
    };
    std::vector<std::int64_t> left_hist;
    std::vector<std::int64_t> right_hist;
    if (will_split(left_rows.size()) || will_split(right_rows.size())) {
      // Build the smaller child's histogram; the larger child's is the
      // parent's minus the sibling's, exact in int64.
      if (left_rows.size() <= right_rows.size()) {
        left_hist = build_hist(left_rows);
        right_hist = std::move(hist);
        subtract(right_hist, left_hist);
      } else {
        right_hist = build_hist(right_rows);
        left_hist = std::move(hist);
        subtract(left_hist, right_hist);
      }
    } else {
      recycle(std::move(hist));
    }
    const std::int32_t left =
        build(left_rows, std::move(left_hist), best.left_q, depth + 1);
    const std::int32_t right =
        build(right_rows, std::move(right_hist), right_q, depth + 1);
    auto& node = nodes[static_cast<std::size_t>(node_id)];
    node.left = left;
    node.right = right;
    return node_id;
  }

  static void subtract(std::vector<std::int64_t>& parent,
                       const std::vector<std::int64_t>& child) {
    for (std::size_t b = 0; b < parent.size(); ++b) parent[b] -= child[b];
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// RegressionTree
// ---------------------------------------------------------------------------

void RegressionTree::fit(const BinnedMatrix& x, const FeatureBinner& binner,
                         const QuantizedGradients& grad,
                         std::span<std::uint32_t> rows,
                         std::span<std::int32_t> leaf_of, const GBDTConfig& cfg) {
  nodes_.clear();
  if (rows.empty()) return;
  HistogramBuilder builder{x,  binner,  grad.q, grad.inv_scale,
                           cfg, nodes_, leaf_of};
  builder.init();
  const bool root_splits =
      cfg.max_depth > 0 &&
      rows.size() >= static_cast<std::size_t>(2 * cfg.min_samples_leaf);
  std::vector<std::int64_t> root_hist;
  if (root_splits) root_hist = builder.build_hist(rows);
  std::int64_t total_q = 0;
  if (!root_hist.empty() && builder.p > 0) {
    // Feature 0's slice counts every row exactly once: its bucket sums add
    // up to the root gradient total, saving the row scan.
    for (int b = 0; b < binner.bins(0); ++b) {
      total_q += root_hist[static_cast<std::size_t>(b)];
    }
  } else {
    for (const std::uint32_t r : rows) total_q += grad.q[r];
  }
  builder.build(rows, std::move(root_hist), total_q, 0);
}

double RegressionTree::predict(std::span<const double> features) const noexcept {
  if (nodes_.empty()) return 0.0;
  std::int32_t i = 0;
  for (;;) {
    const Node& n = nodes_[static_cast<std::size_t>(i)];
    if (n.feature < 0) return n.value;
    i = features[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left
                                                                     : n.right;
  }
}

std::int32_t RegressionTree::leaf_for_binned(const BinnedMatrix& x,
                                             std::size_t row) const noexcept {
  const std::uint8_t* rb = x.row(row);
  std::int32_t i = 0;
  for (;;) {
    const Node& n = nodes_[static_cast<std::size_t>(i)];
    if (n.feature < 0) return i;
    i = rb[static_cast<std::size_t>(n.feature)] <= n.split_bin ? n.left : n.right;
  }
}

// ---------------------------------------------------------------------------
// GBDTRegressor
// ---------------------------------------------------------------------------

void GBDTRegressor::fit(const Dataset& full_data) {
  // A NaN or infinite target would reach the int32 gradient quantization as
  // a non-finite residual (undefined behaviour) and poison every tree.
  for (std::size_t r = 0; r < full_data.rows(); ++r) {
    if (!std::isfinite(full_data.target(r))) {
      throw std::invalid_argument(
          "GBDTRegressor::fit: target of row " + std::to_string(r) + " is " +
          std::to_string(full_data.target(r)));
    }
  }
  trees_.clear();
  forest_ = PackedForest();
  train_rmse_.clear();
  n_features_ = full_data.features();
  base_prediction_ = 0.0;
  binner_ = FeatureBinner();
  if (full_data.empty()) return;

  Rng rng(config_.seed);

  // Optional row cap: train on a uniform subsample of the data.
  const Dataset* data = &full_data;
  Dataset capped(full_data.features());
  if (config_.max_training_rows > 0 &&
      full_data.rows() > config_.max_training_rows) {
    capped.reserve(config_.max_training_rows);
    const double keep = static_cast<double>(config_.max_training_rows) /
                        static_cast<double>(full_data.rows());
    for (std::size_t r = 0; r < full_data.rows(); ++r) {
      if (rng.bernoulli(keep)) capped.add_row(full_data.row(r), full_data.target(r));
    }
    data = &capped;
  }
  const std::size_t n = data->rows();
  // The Bernoulli cap can reject every row of a tiny input; without this
  // guard the mean below would be 0/0 and every prediction NaN.
  if (n == 0) return;

  const GBDTConfig& cfg = config_;

  double mean = 0.0;
  for (std::size_t r = 0; r < n; ++r) mean += data->target(r);
  base_prediction_ = mean / static_cast<double>(n);

  binner_.fit(*data, cfg.max_bins, rng);
  const BinnedMatrix binned = bin_dataset(*data, binner_);

  std::vector<double> prediction(n, base_prediction_);
  std::vector<double> residuals(n, 0.0);
  std::vector<std::int32_t> leaf_of(n, -1);
  // Per-tree scratch reused across iterations (fresh vectors would fault in
  // hundreds of pages per tree).
  std::vector<std::uint32_t> rows(n);
  QuantizedGradients grad;

  trees_.reserve(static_cast<std::size_t>(cfg.n_trees));
  // The previous tree's prediction update is fused into this iteration's
  // residual pass (one sweep instead of two; the final tree's update feeds
  // nothing and is skipped). The per-element arithmetic and order are
  // unchanged, so residuals and RMSE are bitwise identical to the separate
  // passes. With a multi-thread pool the update runs as its own row-parallel
  // pass instead (same elementwise ops, same results) so it can use the
  // pool; the RMSE reduction stays serial either way to keep its summation
  // order fixed.
  const RegressionTree* fused_update = nullptr;
  const bool fuse_update = global_pool().thread_count() <= 1;
  // The row subsample rides in the same sweep: one Bernoulli draw per row in
  // ascending order, a branchless take.
  const bool fuse_sample = cfg.subsample < 1.0;
  for (int t = 0; t < cfg.n_trees; ++t) {
    double sq = 0.0;
    double max_abs = 0.0;
    std::size_t taken = 0;
    if (fuse_sample) rows.resize(n);
    if (fused_update != nullptr) {
      const auto& prev_nodes = fused_update->nodes();
      for (std::size_t r = 0; r < n; ++r) {
        std::int32_t leaf = leaf_of[r];
        if (leaf < 0) leaf = fused_update->leaf_for_binned(binned, r);
        prediction[r] +=
            cfg.learning_rate * prev_nodes[static_cast<std::size_t>(leaf)].value;
        residuals[r] = data->target(r) - prediction[r];
        sq += residuals[r] * residuals[r];
        max_abs = std::max(max_abs, std::fabs(residuals[r]));
        if (fuse_sample) {
          rows[taken] = static_cast<std::uint32_t>(r);
          taken += rng.bernoulli(cfg.subsample) ? 1 : 0;
        }
      }
      fused_update = nullptr;
    } else {
      for (std::size_t r = 0; r < n; ++r) {
        residuals[r] = data->target(r) - prediction[r];
        sq += residuals[r] * residuals[r];
        max_abs = std::max(max_abs, std::fabs(residuals[r]));
        if (fuse_sample) {
          rows[taken] = static_cast<std::uint32_t>(r);
          taken += rng.bernoulli(cfg.subsample) ? 1 : 0;
        }
      }
    }
    train_rmse_.push_back(std::sqrt(sq / static_cast<double>(n)));

    if (fuse_sample) {
      rows.resize(taken);
    } else {
      taken = n;
      rows.resize(n);
      std::iota(rows.begin(), rows.end(), 0);
    }
    if (taken < static_cast<std::size_t>(2 * cfg.min_samples_leaf)) break;

    grad.assign(residuals, max_abs);
    std::fill(leaf_of.begin(), leaf_of.end(), -1);
    RegressionTree tree;
    tree.fit(binned, binner_, grad, rows, leaf_of, cfg);
    if (tree.empty()) break;

    if (fuse_update) {
      // Applied lazily at the top of the next iteration (fused with the
      // residual pass); leaf_of stays valid until then.
      trees_.push_back(std::move(tree));
      fused_update = &trees_.back();
      continue;
    }
    // Sampled rows had their leaf recorded during construction; only
    // out-of-sample rows walk the tree, and they walk the binned matrix.
    const auto& nodes = tree.nodes();
    parallel_for_chunks(
        0, n,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t r = lo; r < hi; ++r) {
            std::int32_t leaf = leaf_of[r];
            if (leaf < 0) leaf = tree.leaf_for_binned(binned, r);
            prediction[r] +=
                cfg.learning_rate * nodes[static_cast<std::size_t>(leaf)].value;
          }
        },
        /*grain=*/8192);
    trees_.push_back(std::move(tree));
  }
  forest_.build(trees_);
}

double GBDTRegressor::predict(std::span<const double> features) const noexcept {
  double out = base_prediction_;
  for (const auto& tree : trees_) {
    out += config_.learning_rate * tree.predict(features);
  }
  return out;
}

std::vector<double> GBDTRegressor::predict_many(const Dataset& data) const {
  std::vector<double> out(data.rows(), base_prediction_);
  if (data.empty() || trees_.empty()) return out;
  const BinnedMatrix binned = bin_dataset(data, binner_);
  // SIMD walk: blocked rows over the SoA forest. Bit-identical to the scalar
  // path below (same mul/add per row in the same tree order), so dispatch is
  // free to differ across machines. The int32 guard covers the kernel's
  // 32-bit gather offsets (~238M rows at 9 features before it trips).
  if (common::simd_enabled() && !forest_.empty() && binned.features > 0 &&
      data.rows() * binned.features + binned.features <=
          static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max())) {
    parallel_for_chunks(
        0, data.rows(),
        [&](std::size_t lo, std::size_t hi) {
          kernels::predict_forest_avx2(forest_, binned.bins.data(),
                                       binned.features, lo, hi,
                                       config_.learning_rate, out.data());
        },
        /*grain=*/4096);
    return out;
  }
  parallel_for_chunks(
      0, data.rows(),
      [&](std::size_t lo, std::size_t hi) {
        // Tree-at-a-time within the chunk keeps each tree's nodes hot; the
        // per-row accumulation order over trees matches predict(), so the
        // results are bitwise identical to the per-row path.
        for (const auto& tree : trees_) {
          const auto& nodes = tree.nodes();
          for (std::size_t r = lo; r < hi; ++r) {
            const auto leaf =
                static_cast<std::size_t>(tree.leaf_for_binned(binned, r));
            out[r] += config_.learning_rate * nodes[leaf].value;
          }
        }
      },
      /*grain=*/4096);
  return out;
}

// ---------------------------------------------------------------------------
// Persistence (docs/FORMATS.md)
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kTreeTag = serialize::fourcc("TREE");
constexpr std::uint32_t kTreeVersion = 1;
constexpr std::uint32_t kGbdtTag = serialize::fourcc("GBDT");
constexpr std::uint32_t kGbdtVersion = 1;

[[noreturn]] void corrupt(const std::string& what) {
  throw serialize::Error(serialize::ErrorCode::kCorrupt, what);
}

}  // namespace

void RegressionTree::save(serialize::Writer& w) const {
  w.begin_section(kTreeTag);
  w.u32(kTreeVersion);
  w.u64(nodes_.size());
  for (const Node& n : nodes_) {
    w.i32(n.feature);
    w.i32(n.split_bin);
    w.f64(n.threshold);
    w.i32(n.left);
    w.i32(n.right);
    w.f64(n.value);
    w.f64(n.gain);
  }
  w.end_section();
}

void RegressionTree::load(serialize::Reader& r, std::size_t n_features) {
  serialize::Reader s = r.section(kTreeTag);
  const std::uint32_t version = s.u32();
  if (version != kTreeVersion) {
    throw serialize::Error(serialize::ErrorCode::kUnsupportedVersion,
                           "tree section version " + std::to_string(version));
  }
  const std::size_t count = s.length(36);  // bytes per serialized node
  // fit() never emits an empty tree (the regressor drops them before
  // saving), and leaf_for_binned reads nodes_[0] unconditionally — so a
  // zero-node tree can only be corruption.
  if (count == 0) corrupt("tree with zero nodes");
  std::vector<Node> nodes(count);
  for (std::size_t i = 0; i < count; ++i) {
    Node& n = nodes[i];
    n.feature = s.i32();
    n.split_bin = s.i32();
    n.threshold = s.f64();
    n.left = s.i32();
    n.right = s.i32();
    n.value = s.f64();
    n.gain = s.f64();
    if (n.feature < 0) continue;  // leaf: child links are ignored
    // Interior node. Trees are built preorder (children are appended after
    // their parent), so requiring child > own index both matches every
    // writer and makes cycles — hence unbounded predict() loops —
    // unrepresentable.
    if (static_cast<std::size_t>(n.feature) >= n_features) {
      corrupt("tree node " + std::to_string(i) + " splits on feature " +
              std::to_string(n.feature) + " of " + std::to_string(n_features));
    }
    const auto in_range = [&](std::int32_t child) {
      return child > static_cast<std::int32_t>(i) &&
             static_cast<std::size_t>(child) < count;
    };
    if (!in_range(n.left) || !in_range(n.right)) {
      corrupt("tree node " + std::to_string(i) + " has out-of-order children");
    }
  }
  s.close("tree");
  nodes_ = std::move(nodes);
}

void GBDTRegressor::save(serialize::Writer& w) const {
  w.begin_section(kGbdtTag);
  w.u32(kGbdtVersion);
  w.i32(config_.n_trees);
  w.i32(config_.max_depth);
  w.f64(config_.learning_rate);
  w.i32(config_.min_samples_leaf);
  w.f64(config_.subsample);
  w.i32(config_.max_bins);
  w.f64(config_.lambda);
  w.u64(config_.seed);
  w.u64(config_.max_training_rows);
  w.u8(0);  // trainer id; see load()
  w.f64(base_prediction_);
  w.u64(n_features_);
  w.vec_f64(train_rmse_);
  binner_.save(w);
  w.u64(trees_.size());
  for (const RegressionTree& t : trees_) t.save(w);
  w.end_section();
}

void GBDTRegressor::load(serialize::Reader& r) {
  serialize::Reader s = r.section(kGbdtTag);
  const std::uint32_t version = s.u32();
  if (version != kGbdtVersion) {
    throw serialize::Error(serialize::ErrorCode::kUnsupportedVersion,
                           "gbdt section version " + std::to_string(version));
  }
  GBDTConfig cfg;
  cfg.n_trees = s.i32();
  cfg.max_depth = s.i32();
  cfg.learning_rate = s.f64();
  cfg.min_samples_leaf = s.i32();
  cfg.subsample = s.f64();
  cfg.max_bins = s.i32();
  cfg.lambda = s.f64();
  cfg.seed = s.u64();
  cfg.max_training_rows = s.u64();
  // Trainer id: files written when the library still carried a second,
  // bit-identical reference trainer may hold 1; both ids describe the same
  // model, so either loads as the one trainer.
  const std::uint8_t engine = s.u8();
  if (engine > 1) corrupt("unknown engine id " + std::to_string(engine));
  const double base = s.f64();
  const std::uint64_t n_features = s.u64();
  std::vector<double> rmse = s.vec_f64();
  FeatureBinner binner;
  binner.load(s);
  // A trained model's binner covers exactly its features; an untrained one
  // has neither. Anything else cannot have come from save().
  if (binner.features() != 0 && binner.features() != n_features) {
    corrupt("binner covers " + std::to_string(binner.features()) +
            " features, model has " + std::to_string(n_features));
  }
  const std::size_t n_trees = s.length(12);  // section tag + length minimum
  std::vector<RegressionTree> trees(n_trees);
  for (std::size_t t = 0; t < n_trees; ++t) {
    trees[t].load(s, static_cast<std::size_t>(n_features));
  }
  s.close("gbdt");
  // predict_many bins every feature through the binner; trees without a
  // matching binner would index an empty BinnedMatrix.
  if (!trees.empty() && binner.features() != n_features) {
    corrupt("model has " + std::to_string(n_trees) + " trees but the binner"
            " covers " + std::to_string(binner.features()) + " of " +
            std::to_string(n_features) + " features");
  }

  config_ = cfg;
  base_prediction_ = base;
  n_features_ = static_cast<std::size_t>(n_features);
  train_rmse_ = std::move(rmse);
  binner_ = std::move(binner);
  trees_ = std::move(trees);
  forest_.build(trees_);
}

void PackedForest::build(std::span<const RegressionTree> trees) {
  n_trees = 0;
  levels = 0;
  split.clear();
  value.clear();
  if (trees.empty()) return;
  // Forest-wide depth: the deepest leaf of any tree. Node depths fall out of
  // one forward pass per tree: nodes are stored preorder, so every child
  // index is visited after its parent.
  std::int32_t max_depth = 0;
  for (const RegressionTree& tree : trees) {
    const auto& nodes = tree.nodes();
    std::vector<std::int32_t> d(nodes.size(), 0);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto& n = nodes[i];
      if (n.feature >= 0) {
        d[static_cast<std::size_t>(n.left)] = d[i] + 1;
        d[static_cast<std::size_t>(n.right)] = d[i] + 1;
      }
      max_depth = std::max(max_depth, d[i]);
    }
  }
  if (max_depth > kMaxLevels) return;  // stays empty; callers fall back
  const std::size_t slots = (std::size_t{1} << max_depth) - 1;  // interior
  const std::size_t leaves = slots + 1;                         // 2^levels
  // The SIMD walk computes leaf-value addresses in int32 lanes.
  if (trees.size() * leaves >
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max())) {
    return;
  }
  // Phantom slots (below a shallow leaf) keep the dummy split 0xff:
  // feature 0, bin 255 — in-bounds to read and never compares "right",
  // though both phantom subtrees replicate the same leaf so the direction
  // is irrelevant.
  split.assign(trees.size() * slots, 0xff);
  value.assign(trees.size() * leaves, 0.0);
  for (std::size_t t = 0; t < trees.size(); ++t) {
    const auto& nodes = trees[t].nodes();
    std::int32_t* sp = split.data() + t * slots;
    double* lv = value.data() + t * leaves;
    // Pad the tree to a perfect tree of depth `max_depth`: descend with
    // (node, heap slot, depth); a leaf met early is carried down both
    // phantom children until the deepest level, where its value lands.
    const auto fill = [&](auto&& self, std::int32_t ni, std::size_t slot,
                          std::int32_t d) -> void {
      const auto& n = nodes[static_cast<std::size_t>(ni)];
      if (d == max_depth) {
        lv[slot - slots] = n.value;
        return;
      }
      if (n.feature >= 0) {
        sp[slot] = (n.feature << 8) | n.split_bin;
        self(self, n.left, 2 * slot + 1, d + 1);
        self(self, n.right, 2 * slot + 2, d + 1);
      } else {
        self(self, ni, 2 * slot + 1, d + 1);
        self(self, ni, 2 * slot + 2, d + 1);
      }
    };
    fill(fill, 0, 0, 0);
  }
  n_trees = static_cast<std::int32_t>(trees.size());
  levels = max_depth;
}

}  // namespace helios::ml
