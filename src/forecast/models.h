// Time-series forecasters for cluster load (paper §4.3.2).
//
// The paper evaluates GBDT against "classical or deep learning models, e.g.,
// ARIMA, Prophet, and LSTM" and picks GBDT (~3.6% SMAPE on Earth). This
// module provides:
//   * SeasonalNaiveForecaster  — repeat-last-season reference baseline
//   * HoltWintersForecaster    — additive trend+seasonality smoothing (the
//                                classical decomposition family Prophet
//                                belongs to)
//   * ARForecaster             — AR(p) with optional differencing, the
//                                non-seasonal core of ARIMA, fit by ridge LS
//   * GBDTForecaster           — one-step GBDT on lag/rolling/calendar
//                                features, recursive multi-step
// All models share the Forecaster interface: fit() learns parameters from a
// history; forecast() predicts the next `horizon` steps after an arbitrary
// prefix (which must end where predictions begin).
//
// Determinism: fit() is a pure function of (history, constructor
// parameters) and forecast() of (fitted state, prefix, horizon) — repeated
// calls with the same inputs return bit-identical values on any thread
// count, and a model restored via load_forecaster (docs/FORMATS.md, "FCST"
// frame) forecasts bit-identically to the saved one (test_serialize).
//
// Thread-safety: each forecaster is externally synchronized — fit() and
// load_state() mutate; const forecast() calls may then run concurrently
// from any number of threads. GBDTForecaster::fit() parallelizes
// internally on the shared global_pool(), and may do so from inside a pool
// task; the other models are single-threaded.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/exec_mode.h"
#include "forecast/series.h"
#include "ml/gbdt.h"
#include "ml/linear.h"

namespace helios::serialize {
class Reader;
class Writer;
}  // namespace helios::serialize

namespace helios::forecast {

class Forecaster {
 public:
  virtual ~Forecaster() = default;

  /// Learn parameters from `history`.
  virtual void fit(const TimeSeries& history) = 0;

  /// Predict the `horizon` values following `prefix` (the prefix supplies
  /// the lags; it may extend beyond the fitted history).
  [[nodiscard]] virtual std::vector<double> forecast(const TimeSeries& prefix,
                                                     int horizon) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Stable fourcc identifying the concrete model inside a persisted "FCST"
  /// section (see docs/FORMATS.md).
  [[nodiscard]] virtual std::uint32_t type_tag() const noexcept = 0;
  /// Persist / restore the full fitted state (constructor parameters
  /// included); a restored model forecasts bit-identically. load_state()
  /// throws serialize::Error on malformed input. Prefer the free
  /// save_forecaster/load_forecaster pair, which adds the type tag.
  virtual void save_state(serialize::Writer& w) const = 0;
  virtual void load_state(serialize::Reader& r) = 0;
};

/// Persist `model` (type tag + state) into a "FCST" section.
void save_forecaster(serialize::Writer& w, const Forecaster& model);

/// Reconstruct whichever Forecaster the "FCST" section holds; throws
/// serialize::Error (kCorrupt) for an unknown type tag.
[[nodiscard]] std::unique_ptr<Forecaster> load_forecaster(serialize::Reader& r);

/// y[t+h] = y[t + h - k*period] for the smallest valid k.
class SeasonalNaiveForecaster final : public Forecaster {
 public:
  explicit SeasonalNaiveForecaster(int period) : period_(period) {}
  void fit(const TimeSeries& history) override;
  [[nodiscard]] std::vector<double> forecast(const TimeSeries& prefix,
                                             int horizon) const override;
  [[nodiscard]] std::string name() const override { return "seasonal-naive"; }
  [[nodiscard]] std::uint32_t type_tag() const noexcept override;
  void save_state(serialize::Writer& w) const override;
  void load_state(serialize::Reader& r) override;

 private:
  int period_;
};

/// Additive Holt-Winters triple exponential smoothing. Defaults are
/// conservative (gamma << alpha, tiny beta): long seasons (m ~ 144) couple
/// the level and seasonal states, and aggressive gamma makes the pair
/// oscillate on near-flat series.
class HoltWintersForecaster final : public Forecaster {
 public:
  HoltWintersForecaster(int period, double alpha = 0.20, double beta = 0.005,
                        double gamma = 0.04)
      : period_(period), alpha_(alpha), beta_(beta), gamma_(gamma) {}
  void fit(const TimeSeries& history) override;
  [[nodiscard]] std::vector<double> forecast(const TimeSeries& prefix,
                                             int horizon) const override;
  [[nodiscard]] std::string name() const override { return "holt-winters"; }
  [[nodiscard]] std::uint32_t type_tag() const noexcept override;
  void save_state(serialize::Writer& w) const override;
  void load_state(serialize::Reader& r) override;

 private:
  /// Run the smoothing recursion over `v`; returns final level/trend/season.
  struct State {
    double level = 0.0;
    double trend = 0.0;
    std::vector<double> season;
  };
  [[nodiscard]] State run(std::span<const double> v) const;

  int period_;
  double alpha_;
  double beta_;
  double gamma_;
};

/// AR(p) on the (optionally differenced) series, fit with ridge regression.
class ARForecaster final : public Forecaster {
 public:
  explicit ARForecaster(int p, int d = 0, double ridge_lambda = 1e-2)
      : p_(p), d_(d), lambda_(ridge_lambda) {}
  void fit(const TimeSeries& history) override;
  [[nodiscard]] std::vector<double> forecast(const TimeSeries& prefix,
                                             int horizon) const override;
  [[nodiscard]] std::string name() const override {
    return "ar(" + std::to_string(p_) + ",d=" + std::to_string(d_) + ")";
  }
  [[nodiscard]] std::uint32_t type_tag() const noexcept override;
  void save_state(serialize::Writer& w) const override;
  void load_state(serialize::Reader& r) override;

 private:
  int p_;
  int d_;
  double lambda_;
  ml::RidgeRegression model_;
};

/// Feature layout shared by GBDTForecaster training and inference.
struct LagFeatureConfig {
  std::vector<int> lags = {1, 2, 3, 6, 12, 24, 36, 72, 144, 1008};
  std::vector<int> rolling_windows = {6, 36, 144};
  bool calendar = true;  ///< hour, minute-of-day bucket, weekday, holiday

  [[nodiscard]] int max_lag() const;
  [[nodiscard]] std::size_t feature_count() const;
};

/// One-step-ahead GBDT on lag + rolling + calendar features; multi-step
/// forecasts are produced recursively (predictions feed back into lags).
class GBDTForecaster final : public Forecaster {
 public:
  explicit GBDTForecaster(LagFeatureConfig features = {},
                          ml::GBDTConfig gbdt = default_gbdt_config())
      : features_(std::move(features)), model_(gbdt) {}

  void fit(const TimeSeries& history) override;
  [[nodiscard]] std::vector<double> forecast(const TimeSeries& prefix,
                                             int horizon) const override;
  [[nodiscard]] std::string name() const override { return "gbdt"; }
  [[nodiscard]] std::uint32_t type_tag() const noexcept override;
  void save_state(serialize::Writer& w) const override;
  void load_state(serialize::Reader& r) override;

  [[nodiscard]] static ml::GBDTConfig default_gbdt_config();
  [[nodiscard]] const ml::GBDTRegressor& model() const noexcept { return model_; }

 private:
  /// Features for predicting the value at sample-time `t_pred`, given the
  /// (possibly partially predicted) value history `v` aligned to `series0`.
  void build_features(std::span<const double> v, std::size_t idx, UnixTime t_pred,
                      std::vector<double>& out) const;

  LagFeatureConfig features_;
  ml::GBDTRegressor model_;
};

/// Rolling-origin backtest: starting after `min_train` samples, every
/// `stride` samples forecast `horizon` steps ahead and record the terminal
/// prediction vs actual. Returns (actual, predicted) aligned vectors —
/// exactly what SMAPE comparison tables consume. The model must already be
/// fit; only const forecast() calls are issued, which the Forecaster
/// contract makes safe to run concurrently.
struct BacktestResult {
  std::vector<double> actual;
  std::vector<double> predicted;
};

[[nodiscard]] BacktestResult backtest(
    const Forecaster& model, const TimeSeries& series, std::size_t min_train,
    int horizon, std::size_t stride,
    common::ExecMode execution = common::ExecMode::kParallel);

/// Fit several forecasters to the same history concurrently on the shared
/// pool. GBDTForecaster::fit parallelizes again inside its task; that nesting
/// cannot deadlock because every pool driver's caller drains its own chunks
/// (common/thread_pool.h). Each fit is independent and a pure function of
/// (model, history), so the result is identical to fitting serially.
void fit_forecasters(std::span<Forecaster* const> models,
                     const TimeSeries& history);

}  // namespace helios::forecast
