#include "forecast/models.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/thread_pool.h"

#include "serialize/binary.h"

namespace helios::forecast {

// ---------------------------------------------------------------------------
// SeasonalNaive
// ---------------------------------------------------------------------------

void SeasonalNaiveForecaster::fit(const TimeSeries&) {}

std::vector<double> SeasonalNaiveForecaster::forecast(const TimeSeries& prefix,
                                                      int horizon) const {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(std::max(0, horizon)));
  const auto& v = prefix.values;
  const auto n = static_cast<std::int64_t>(v.size());
  for (int h = 1; h <= horizon; ++h) {
    if (n == 0) {
      out.push_back(0.0);
      continue;
    }
    std::int64_t idx = n + h - 1;
    if (period_ > 0) {
      while (idx >= n) idx -= period_;
    }
    idx = std::clamp<std::int64_t>(idx, 0, n - 1);
    out.push_back(v[static_cast<std::size_t>(idx)]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Holt-Winters
// ---------------------------------------------------------------------------

HoltWintersForecaster::State HoltWintersForecaster::run(
    std::span<const double> v) const {
  State s;
  const auto m = static_cast<std::size_t>(std::max(1, period_));
  if (v.size() < 2 * m) {
    // Too short for seasonal initialisation: flat level model.
    double mean = 0.0;
    for (double x : v) mean += x;
    s.level = v.empty() ? 0.0 : mean / static_cast<double>(v.size());
    s.trend = 0.0;
    s.season.assign(m, 0.0);
    return s;
  }
  // Classical initialisation from the first two seasons.
  double mean1 = 0.0;
  double mean2 = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    mean1 += v[i];
    mean2 += v[m + i];
  }
  mean1 /= static_cast<double>(m);
  mean2 /= static_cast<double>(m);
  s.level = mean1;
  s.trend = (mean2 - mean1) / static_cast<double>(m);
  s.season.resize(m);
  for (std::size_t i = 0; i < m; ++i) s.season[i] = v[i] - mean1;

  for (std::size_t t = 0; t < v.size(); ++t) {
    const std::size_t si = t % m;
    const double prev_level = s.level;
    s.level = alpha_ * (v[t] - s.season[si]) + (1.0 - alpha_) * (s.level + s.trend);
    s.trend = beta_ * (s.level - prev_level) + (1.0 - beta_) * s.trend;
    s.season[si] = gamma_ * (v[t] - s.level) + (1.0 - gamma_) * s.season[si];
  }
  return s;
}

void HoltWintersForecaster::fit(const TimeSeries&) {
  // Smoothing constants are fixed; all state is rebuilt per forecast so the
  // model can be applied to any prefix.
}

std::vector<double> HoltWintersForecaster::forecast(const TimeSeries& prefix,
                                                    int horizon) const {
  const State s = run(prefix.values);
  const auto m = static_cast<std::size_t>(std::max(1, period_));
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(std::max(0, horizon)));
  const std::size_t n = prefix.values.size();
  for (int h = 1; h <= horizon; ++h) {
    const std::size_t si = (n + static_cast<std::size_t>(h) - 1) % m;
    out.push_back(s.level + static_cast<double>(h) * s.trend + s.season[si]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// AR(p)
// ---------------------------------------------------------------------------

void ARForecaster::fit(const TimeSeries& history) {
  std::vector<double> v = history.values;
  for (int k = 0; k < d_; ++k) v = diff(v);
  const auto p = static_cast<std::size_t>(std::max(1, p_));
  model_ = ml::RidgeRegression(lambda_);
  if (v.size() <= p) return;
  ml::Dataset data(p);
  data.reserve(v.size() - p);
  std::vector<double> row(p);
  for (std::size_t t = p; t < v.size(); ++t) {
    for (std::size_t j = 0; j < p; ++j) row[j] = v[t - 1 - j];
    data.add_row(row, v[t]);
  }
  model_.fit(data);
}

std::vector<double> ARForecaster::forecast(const TimeSeries& prefix,
                                           int horizon) const {
  const auto p = static_cast<std::size_t>(std::max(1, p_));
  std::vector<double> v = prefix.values;
  // Keep the last values needed to difference and recurse.
  std::vector<double> levels(v.end() - std::min<std::ptrdiff_t>(
                                           static_cast<std::ptrdiff_t>(v.size()),
                                           static_cast<std::ptrdiff_t>(p + 4)),
                             v.end());
  std::vector<double> work = v;
  for (int k = 0; k < d_; ++k) work = diff(work);

  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(std::max(0, horizon)));
  double last_level = v.empty() ? 0.0 : v.back();
  std::vector<double> row(p);
  for (int h = 0; h < horizon; ++h) {
    double next_diff = 0.0;
    if (model_.trained() && work.size() >= p) {
      for (std::size_t j = 0; j < p; ++j) row[j] = work[work.size() - 1 - j];
      next_diff = model_.predict(row);
    } else if (!work.empty()) {
      next_diff = work.back();
    }
    work.push_back(next_diff);
    const double next_level = d_ > 0 ? last_level + next_diff : next_diff;
    out.push_back(next_level);
    last_level = next_level;
  }
  (void)levels;
  return out;
}

// ---------------------------------------------------------------------------
// GBDT forecaster
// ---------------------------------------------------------------------------

int LagFeatureConfig::max_lag() const {
  int mx = 1;
  for (int l : lags) mx = std::max(mx, l);
  for (int w : rolling_windows) mx = std::max(mx, w);
  return mx;
}

std::size_t LagFeatureConfig::feature_count() const {
  return lags.size() + 2 * rolling_windows.size() + (calendar ? 4 : 0);
}

ml::GBDTConfig GBDTForecaster::default_gbdt_config() {
  ml::GBDTConfig cfg;
  cfg.n_trees = 120;
  cfg.max_depth = 5;
  cfg.learning_rate = 0.08;
  cfg.min_samples_leaf = 24;
  cfg.subsample = 0.8;
  cfg.max_bins = 64;
  return cfg;
}

void GBDTForecaster::build_features(std::span<const double> v, std::size_t idx,
                                    UnixTime t_pred,
                                    std::vector<double>& out) const {
  out.clear();
  // idx is the index the prediction is for; lags are relative to idx.
  for (int l : features_.lags) {
    const auto lag = static_cast<std::size_t>(l);
    out.push_back(lag <= idx && idx - lag < v.size() ? v[idx - lag] : v.empty() ? 0.0 : v[0]);
  }
  for (int w : features_.rolling_windows) {
    const auto win = static_cast<std::size_t>(w);
    const std::size_t hi = std::min(idx, v.size());  // values before idx
    const std::size_t lo = hi > win ? hi - win : 0;
    double sum = 0.0;
    double sum2 = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      sum += v[i];
      sum2 += v[i] * v[i];
    }
    const double n = hi > lo ? static_cast<double>(hi - lo) : 1.0;
    const double mean = sum / n;
    out.push_back(mean);
    out.push_back(std::sqrt(std::max(0.0, sum2 / n - mean * mean)));
  }
  if (features_.calendar) {
    const CivilTime c = to_civil(t_pred);
    out.push_back(static_cast<double>(c.hour));
    out.push_back(static_cast<double>(minute_of_day(t_pred) / 10));
    out.push_back(static_cast<double>(c.weekday));
    out.push_back(is_holiday(t_pred) ? 1.0 : 0.0);
  }
}

void GBDTForecaster::fit(const TimeSeries& history) {
  const auto start = static_cast<std::size_t>(features_.max_lag());
  ml::Dataset data(features_.feature_count());
  if (history.size() > start) data.reserve(history.size() - start);
  std::vector<double> row;
  for (std::size_t t = start; t < history.size(); ++t) {
    build_features(history.values, t, history.time_at(t), row);
    data.add_row(row, history.values[t]);
  }
  model_.fit(data);
}

std::vector<double> GBDTForecaster::forecast(const TimeSeries& prefix,
                                             int horizon) const {
  // The features read at most max_lag() values before the predicted index,
  // so copy only that window of the prefix. Exact: with a full window every
  // (positive) lag lands inside it, so the v[0] fallback never fires, and
  // each rolling window sums the same values in the same order.
  const auto steps = static_cast<std::size_t>(std::max(0, horizon));
  const auto keep = static_cast<std::size_t>(features_.max_lag());
  const std::size_t skip =
      prefix.values.size() > keep ? prefix.values.size() - keep : 0;
  std::vector<double> v;
  v.reserve(prefix.values.size() - skip + steps);
  v.assign(prefix.values.begin() + static_cast<std::ptrdiff_t>(skip),
           prefix.values.end());
  std::vector<double> out;
  out.reserve(steps);
  std::vector<double> row;
  for (int h = 0; h < horizon; ++h) {
    const std::size_t idx = v.size();
    const UnixTime t_pred =
        prefix.begin + static_cast<UnixTime>(skip + idx) * prefix.step;
    build_features(v, idx, t_pred, row);
    const double pred = model_.trained() ? model_.predict(row)
                        : v.empty()      ? 0.0
                                         : v.back();
    out.push_back(pred);
    v.push_back(pred);  // recursive: prediction feeds the next step's lags
  }
  return out;
}

// ---------------------------------------------------------------------------
// Persistence (docs/FORMATS.md)
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kForecasterTag = serialize::fourcc("FCST");
constexpr std::uint32_t kForecasterVersion = 1;
constexpr std::uint32_t kSeasonalNaiveTag = serialize::fourcc("SNAV");
constexpr std::uint32_t kHoltWintersTag = serialize::fourcc("HOLT");
constexpr std::uint32_t kArTag = serialize::fourcc("ARPD");
constexpr std::uint32_t kGbdtForecasterTag = serialize::fourcc("GBFC");

}  // namespace

std::uint32_t SeasonalNaiveForecaster::type_tag() const noexcept {
  return kSeasonalNaiveTag;
}

void SeasonalNaiveForecaster::save_state(serialize::Writer& w) const {
  w.i32(period_);
}

void SeasonalNaiveForecaster::load_state(serialize::Reader& r) {
  period_ = r.i32();
}

std::uint32_t HoltWintersForecaster::type_tag() const noexcept {
  return kHoltWintersTag;
}

void HoltWintersForecaster::save_state(serialize::Writer& w) const {
  w.i32(period_);
  w.f64(alpha_);
  w.f64(beta_);
  w.f64(gamma_);
}

void HoltWintersForecaster::load_state(serialize::Reader& r) {
  // Stage then commit, so a throw mid-read cannot leave a half-updated model.
  const int period = r.i32();
  const double alpha = r.f64();
  const double beta = r.f64();
  const double gamma = r.f64();
  period_ = period;
  alpha_ = alpha;
  beta_ = beta;
  gamma_ = gamma;
}

std::uint32_t ARForecaster::type_tag() const noexcept { return kArTag; }

void ARForecaster::save_state(serialize::Writer& w) const {
  w.i32(p_);
  w.i32(d_);
  w.f64(lambda_);
  model_.save(w);
}

void ARForecaster::load_state(serialize::Reader& r) {
  // Stage then commit, so a throw (e.g. a corrupt embedded RIDG section)
  // cannot leave new p/d/lambda paired with the old ridge weights.
  const int p = r.i32();
  const int d = r.i32();
  const double lambda = r.f64();
  ml::RidgeRegression model;
  model.load(r);
  p_ = p;
  d_ = d;
  lambda_ = lambda;
  model_ = std::move(model);
}

std::uint32_t GBDTForecaster::type_tag() const noexcept {
  return kGbdtForecasterTag;
}

void GBDTForecaster::save_state(serialize::Writer& w) const {
  w.vec_i32(features_.lags);
  w.vec_i32(features_.rolling_windows);
  w.u8(features_.calendar ? 1 : 0);
  model_.save(w);
}

void GBDTForecaster::load_state(serialize::Reader& r) {
  LagFeatureConfig features;
  features.lags = r.vec_i32();
  features.rolling_windows = r.vec_i32();
  features.calendar = r.u8() != 0;
  // build_features indexes lags/windows relative to the current position;
  // non-positive values would walk before the series.
  for (const int l : features.lags) {
    if (l <= 0) {
      throw serialize::Error(serialize::ErrorCode::kCorrupt,
                             "non-positive lag " + std::to_string(l));
    }
  }
  for (const int win : features.rolling_windows) {
    if (win <= 0) {
      throw serialize::Error(serialize::ErrorCode::kCorrupt,
                             "non-positive rolling window " +
                                 std::to_string(win));
    }
  }
  ml::GBDTRegressor model;
  model.load(r);
  // build_features emits feature_count() values per row; a trained model
  // expecting a different width would index past the row. (GBDT load
  // guarantees binner width == the model's feature count when trained.)
  if (model.trained() &&
      model.binner().features() != features.feature_count()) {
    throw serialize::Error(
        serialize::ErrorCode::kCorrupt,
        "forecaster model expects " +
            std::to_string(model.binner().features()) +
            " features, lag config builds " +
            std::to_string(features.feature_count()));
  }
  features_ = std::move(features);
  model_ = std::move(model);
}

void save_forecaster(serialize::Writer& w, const Forecaster& model) {
  w.begin_section(kForecasterTag);
  w.u32(kForecasterVersion);
  w.u32(model.type_tag());
  model.save_state(w);
  w.end_section();
}

std::unique_ptr<Forecaster> load_forecaster(serialize::Reader& r) {
  serialize::Reader s = r.section(kForecasterTag);
  const std::uint32_t version = s.u32();
  if (version != kForecasterVersion) {
    throw serialize::Error(
        serialize::ErrorCode::kUnsupportedVersion,
        "forecaster section version " + std::to_string(version));
  }
  const std::uint32_t tag = s.u32();
  std::unique_ptr<Forecaster> model;
  // Placeholder constructor arguments; load_state() restores the real ones.
  if (tag == kSeasonalNaiveTag) {
    model = std::make_unique<SeasonalNaiveForecaster>(1);
  } else if (tag == kHoltWintersTag) {
    model = std::make_unique<HoltWintersForecaster>(1);
  } else if (tag == kArTag) {
    model = std::make_unique<ARForecaster>(1);
  } else if (tag == kGbdtForecasterTag) {
    model = std::make_unique<GBDTForecaster>();
  } else {
    throw serialize::Error(serialize::ErrorCode::kCorrupt,
                           "unknown forecaster type tag " +
                               std::to_string(tag));
  }
  model->load_state(s);
  s.close("forecaster");
  return model;
}

// ---------------------------------------------------------------------------
// Backtest
// ---------------------------------------------------------------------------

BacktestResult backtest(const Forecaster& model, const TimeSeries& series,
                        std::size_t min_train, int horizon, std::size_t stride,
                        common::ExecMode execution) {
  BacktestResult r;
  if (horizon <= 0 || stride == 0) return r;
  const auto h = static_cast<std::size_t>(horizon);
  if (min_train + h > series.size()) return r;
  // Preassign one slot per origin: each evaluation writes disjoint indices,
  // so the parallel pass is bit-identical to the serial loop regardless of
  // scheduling order.
  const std::size_t n = (series.size() - h - min_train) / stride + 1;
  r.actual.resize(n);
  r.predicted.resize(n);
  auto eval = [&](std::size_t i) {
    const std::size_t origin = min_train + i * stride;
    const TimeSeries prefix = series.slice(0, origin);
    const auto pred = model.forecast(prefix, horizon);
    r.actual[i] = series.values[origin + h - 1];
    r.predicted[i] = pred.back();
  };
  if (execution == common::ExecMode::kSerial) {
    for (std::size_t i = 0; i < n; ++i) eval(i);
  } else {
    parallel_for(0, n, eval);
  }
  return r;
}

void fit_forecasters(std::span<Forecaster* const> models,
                     const TimeSeries& history) {
  std::vector<std::function<void()>> tasks;
  tasks.reserve(models.size());
  for (Forecaster* m : models) {
    if (m != nullptr) tasks.push_back([m, &history] { m->fit(history); });
  }
  parallel_run_tasks(std::move(tasks));
}

}  // namespace helios::forecast
