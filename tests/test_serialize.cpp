// Persistence suite (smoke): round-trip parity + malformed-input handling.
//
//  * For every persisted model type — GBDTRegressor, RidgeRegression,
//    NameBucketizer, RollingEstimator, QssfService, and the four forecast::
//    models — load(save(m)) must predict bit-identically to m, across the
//    same synthetic seeds/configs the PR 3 parity harness uses
//    (test_prediction_parity).
//  * Malformed input — truncation at any byte, bad magic, a future format
//    version, CRC mismatch, wrong section tags, hostile lengths, and
//    invariant-violating payloads — must throw serialize::Error with the
//    right ErrorCode, never crash or invoke UB.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/qssf_service.h"
#include "forecast/models.h"
#include "ml/dataset.h"
#include "ml/gbdt.h"
#include "ml/levenshtein.h"
#include "ml/linear.h"
#include "serialize/binary.h"
#include "trace/synthetic.h"

namespace helios {
namespace {

using serialize::Error;
using serialize::ErrorCode;

/// Save via `save`, frame, unframe, and load into `out` — the full in-memory
/// round trip every model goes through on disk.
template <typename SaveFn, typename LoadFn>
void round_trip(SaveFn&& save, LoadFn&& load) {
  serialize::Writer w;
  save(w);
  const std::vector<std::uint8_t> file = serialize::frame(w);
  const std::vector<std::uint8_t> body = serialize::unframe(file);
  serialize::Reader r(body);
  load(r);
  r.close("frame body");
}

ml::Dataset trace_dataset(const trace::Trace& t) {
  ml::Dataset d(7);
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

trace::Trace venus_trace(std::uint64_t seed) {
  auto gen = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"),
                                            seed, 0.02);
  return trace::SyntheticTraceGenerator(gen).generate();
}

void expect_models_identical(const ml::GBDTRegressor& a,
                             const ml::GBDTRegressor& b) {
  ASSERT_EQ(a.tree_count(), b.tree_count());
  ASSERT_EQ(a.training_rmse(), b.training_rmse());
  for (std::size_t t = 0; t < a.tree_count(); ++t) {
    const auto& na = a.trees()[t].nodes();
    const auto& nb = b.trees()[t].nodes();
    ASSERT_EQ(na.size(), nb.size()) << "tree " << t;
    for (std::size_t i = 0; i < na.size(); ++i) {
      ASSERT_EQ(na[i].feature, nb[i].feature) << "tree " << t << " node " << i;
      ASSERT_EQ(na[i].split_bin, nb[i].split_bin) << "tree " << t << " node " << i;
      ASSERT_EQ(na[i].threshold, nb[i].threshold) << "tree " << t << " node " << i;
      ASSERT_EQ(na[i].left, nb[i].left) << "tree " << t << " node " << i;
      ASSERT_EQ(na[i].right, nb[i].right) << "tree " << t << " node " << i;
      ASSERT_EQ(na[i].value, nb[i].value) << "tree " << t << " node " << i;
      ASSERT_EQ(na[i].gain, nb[i].gain) << "tree " << t << " node " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Round-trip parity
// ---------------------------------------------------------------------------

TEST(SerializeRoundTrip, GbdtBitIdenticalAcrossSeedsAndConfigs) {
  for (const std::uint64_t seed : {11ull, 29ull}) {
    const ml::Dataset data = trace_dataset(venus_trace(seed));
    ASSERT_GT(data.rows(), 1000u);

    ml::GBDTConfig configs[3];
    configs[0].n_trees = 10;
    configs[1].n_trees = 8;
    configs[1].max_depth = 4;
    configs[1].max_bins = 33;
    configs[1].subsample = 1.0;
    configs[2].n_trees = 8;
    configs[2].min_samples_leaf = 5;
    configs[2].max_training_rows = data.rows() / 2;
    for (ml::GBDTConfig cfg : configs) {
      cfg.seed = seed;
      ml::GBDTRegressor model(cfg);
      model.fit(data);
      ASSERT_TRUE(model.trained());

      ml::GBDTRegressor loaded;
      round_trip([&](serialize::Writer& w) { model.save(w); },
                 [&](serialize::Reader& r) { loaded.load(r); });

      expect_models_identical(model, loaded);
      const auto& c = loaded.config();
      EXPECT_EQ(c.n_trees, cfg.n_trees);
      EXPECT_EQ(c.seed, cfg.seed);
      EXPECT_EQ(c.max_training_rows, cfg.max_training_rows);

      const auto batched = model.predict_many(data);
      const auto loaded_batched = loaded.predict_many(data);
      ASSERT_EQ(batched, loaded_batched);
      for (std::size_t r = 0; r < data.rows(); r += 97) {
        ASSERT_EQ(model.predict(data.row(r)), loaded.predict(data.row(r)))
            << "row " << r;
      }
    }
  }
}

TEST(SerializeRoundTrip, UntrainedGbdt) {
  ml::GBDTRegressor model;
  ml::GBDTRegressor loaded;
  round_trip([&](serialize::Writer& w) { model.save(w); },
             [&](serialize::Reader& r) { loaded.load(r); });
  EXPECT_FALSE(loaded.trained());
  const double probe[3] = {1.0, 2.0, 3.0};
  EXPECT_EQ(model.predict(probe), loaded.predict(probe));
}

TEST(SerializeRoundTrip, RidgeRegression) {
  Rng rng(5);
  ml::Dataset data(4);
  std::vector<double> row(4);
  for (int i = 0; i < 500; ++i) {
    for (auto& v : row) v = rng.uniform(-2.0, 2.0);
    data.add_row(row, 3.0 * row[0] - row[2] + rng.normal(0.0, 0.05));
  }
  ml::RidgeRegression model(1e-2);
  model.fit(data);
  ml::RidgeRegression loaded;
  round_trip([&](serialize::Writer& w) { model.save(w); },
             [&](serialize::Reader& r) { loaded.load(r); });
  ASSERT_EQ(model.weights(), loaded.weights());
  ASSERT_EQ(model.intercept(), loaded.intercept());
  for (std::size_t r = 0; r < data.rows(); ++r) {
    ASSERT_EQ(model.predict(data.row(r)), loaded.predict(data.row(r))) << r;
  }
}

TEST(SerializeRoundTrip, NameBucketizerKeepsAssignments) {
  ml::NameBucketizer buckets(0.2, /*prefix_len=*/6);
  std::vector<std::string> names;
  for (int u = 0; u < 20; ++u) {
    for (int t = 0; t < 5; ++t) {
      names.push_back("u" + std::to_string(1000 + u) + "_train_model" +
                      std::to_string(t) + "_v" + std::to_string(t % 3));
    }
  }
  std::vector<std::uint32_t> ids;
  for (const auto& n : names) ids.push_back(buckets.bucket(n));

  ml::NameBucketizer loaded;
  round_trip([&](serialize::Writer& w) { buckets.save(w); },
             [&](serialize::Reader& r) { loaded.load(r); });
  ASSERT_EQ(buckets.bucket_count(), loaded.bucket_count());
  ASSERT_EQ(buckets.representatives(), loaded.representatives());
  // Replaying the same names — and growing with fresh ones — must agree.
  for (std::size_t i = 0; i < names.size(); ++i) {
    ASSERT_EQ(loaded.bucket(names[i]), ids[i]) << names[i];
  }
  for (int t = 0; t < 5; ++t) {
    const std::string fresh = "u9999_eval_model" + std::to_string(t);
    ASSERT_EQ(buckets.bucket(fresh), loaded.bucket(fresh)) << fresh;
  }
}

TEST(SerializeRoundTrip, RollingEstimatorStateAndDedupe) {
  const trace::Trace t = venus_trace(17);
  core::QssfConfig cfg;
  core::RollingEstimator rolling(cfg);
  for (const auto& job : t.jobs()) rolling.observe(t, job);
  ASSERT_GT(rolling.observed_jobs(), 0);

  core::RollingEstimator loaded;
  round_trip([&](serialize::Writer& w) { rolling.save(w); },
             [&](serialize::Reader& r) { loaded.load(r); });

  ASSERT_EQ(rolling.observed_jobs(), loaded.observed_jobs());
  for (const auto& job : t.jobs()) {
    if (!job.is_gpu_job()) continue;
    ASSERT_EQ(rolling.estimate(t, job), loaded.estimate(t, job))
        << "job " << job.job_id;
  }
  // Dedupe keys survived: re-feeding the very same trace is a no-op.
  const std::int64_t before = loaded.observed_jobs();
  for (const auto& job : t.jobs()) loaded.observe(t, job);
  EXPECT_EQ(loaded.observed_jobs(), before);
  // And both copies keep evolving identically on genuinely new jobs.
  trace::Trace more = t;
  auto& fresh = more.add(trace::helios_trace_end() + 60, 1234, 4, 16, "new_u",
                         "vc42", "train_llm_v9", trace::JobState::kCompleted);
  fresh.job_id = 1u << 30;
  rolling.observe(more, fresh);
  loaded.observe(more, fresh);
  for (const auto& job : more.jobs()) {
    if (!job.is_gpu_job()) continue;
    ASSERT_EQ(rolling.estimate(more, job), loaded.estimate(more, job));
  }
}

TEST(SerializeRoundTrip, RollingEstimatorAt80kIdsIsByteStable) {
  // The serve-sized dedupe set: save -> load -> save must reproduce the
  // bytes exactly. The loaded set is built from sorted ids, so its slot
  // layout differs from the original's; equal bytes show the ROLL section
  // does not depend on the in-memory container.
  trace::Trace t;
  for (std::uint32_t i = 0; i < 85'000; ++i) {
    t.add(1'600'000'000 + static_cast<UnixTime>(i) * 7,
          60 + static_cast<std::int32_t>(i % 5000),
          1 + static_cast<std::int32_t>(i % 8), 4,
          "u" + std::to_string(i % 300), "vc" + std::to_string(i % 7),
          "job_" + std::to_string(i % 4), trace::JobState::kCompleted);
  }
  core::QssfConfig cfg;
  core::RollingEstimator rolling(cfg);
  for (const auto& job : t.jobs()) rolling.observe(t, job);
  ASSERT_GE(rolling.observed_jobs(), 80'000);

  serialize::Writer first;
  rolling.save(first);
  core::RollingEstimator loaded;
  serialize::Reader r(first.buffer());
  loaded.load(r);
  r.close("rolling");
  serialize::Writer second;
  loaded.save(second);
  EXPECT_EQ(first.buffer(), second.buffer());

  // The restored dedupe set still skips every job it holds.
  const std::int64_t before = loaded.observed_jobs();
  for (const auto& job : t.jobs()) loaded.observe(t, job);
  EXPECT_EQ(loaded.observed_jobs(), before);
}

TEST(SerializeRoundTrip, QssfServiceWarmRestart) {
  const trace::Trace t = venus_trace(13);
  const auto train =
      t.between(trace::helios_trace_begin(), from_civil(2020, 9, 1));
  const auto eval = t.between(from_civil(2020, 9, 1), trace::helios_trace_end());

  core::QssfConfig cfg;
  cfg.gbdt.n_trees = 10;
  core::QssfService service(cfg);
  service.fit(train);

  core::QssfService loaded;
  round_trip([&](serialize::Writer& w) { service.save(w); },
             [&](serialize::Reader& r) { loaded.load(r); });

  ASSERT_TRUE(loaded.trained());
  EXPECT_EQ(loaded.config().lambda, cfg.lambda);
  EXPECT_EQ(loaded.config().gbdt.n_trees, cfg.gbdt.n_trees);
  for (const auto& job : eval.jobs()) {
    if (!job.is_gpu_job()) continue;
    ASSERT_EQ(service.rolling_estimate(eval, job),
              loaded.rolling_estimate(eval, job))
        << "job " << job.job_id;
    ASSERT_EQ(service.ml_estimate(eval, job), loaded.ml_estimate(eval, job))
        << "job " << job.job_id;
    ASSERT_EQ(service.priority(eval, job), loaded.priority(eval, job))
        << "job " << job.job_id;
  }

  // The full windowed evaluation — including the rolling state both services
  // end up with — must be indistinguishable from the original's.
  core::EvalOptions opts;
  opts.min_window = 1;
  opts.max_windows = 5;
  core::OnlinePriorityEvaluator orig_eval(service, eval, opts);
  core::OnlinePriorityEvaluator loaded_eval(loaded, eval, opts);
  ASSERT_EQ(orig_eval.predicted_gpu_time(), loaded_eval.predicted_gpu_time());
  ASSERT_EQ(orig_eval.actual_gpu_time(), loaded_eval.actual_gpu_time());
  for (const auto& job : eval.jobs()) {
    if (!job.is_gpu_job()) continue;
    ASSERT_EQ(orig_eval.priority_of(job), loaded_eval.priority_of(job));
    ASSERT_EQ(service.rolling_estimate(eval, job),
              loaded.rolling_estimate(eval, job));
  }
}

TEST(SerializeRoundTrip, QssfServiceLimitedInfoMode) {
  const trace::Trace t = venus_trace(23);
  const auto train =
      t.between(trace::helios_trace_begin(), from_civil(2020, 7, 1));
  core::QssfConfig cfg;
  cfg.use_names = false;
  cfg.gbdt.n_trees = 6;
  core::QssfService service(cfg);
  service.fit(train);
  core::QssfService loaded;
  round_trip([&](serialize::Writer& w) { service.save(w); },
             [&](serialize::Reader& r) { loaded.load(r); });
  EXPECT_FALSE(loaded.config().use_names);
  for (const auto& job : t.jobs()) {
    if (!job.is_gpu_job()) continue;
    ASSERT_EQ(service.priority(t, job), loaded.priority(t, job));
  }
}

TEST(SerializeRoundTrip, ForecastersBitIdentical) {
  // A daily-seasonal series with trend + noise, 10-minute samples.
  Rng rng(3);
  forecast::TimeSeries series;
  series.begin = from_civil(2020, 4, 1);
  series.step = 600;
  for (int i = 0; i < 2500; ++i) {
    const double day = 40.0 * std::sin(2.0 * 3.141592653589793 *
                                       static_cast<double>(i % 144) / 144.0);
    series.values.push_back(200.0 + 0.01 * i + day + rng.normal(0.0, 3.0));
  }
  const forecast::TimeSeries prefix = series.slice(0, 2000);

  std::vector<std::unique_ptr<forecast::Forecaster>> models;
  models.push_back(std::make_unique<forecast::SeasonalNaiveForecaster>(144));
  models.push_back(std::make_unique<forecast::HoltWintersForecaster>(144));
  models.push_back(std::make_unique<forecast::ARForecaster>(6, 1));
  {
    auto gbdt_cfg = forecast::GBDTForecaster::default_gbdt_config();
    gbdt_cfg.n_trees = 8;
    models.push_back(std::make_unique<forecast::GBDTForecaster>(
        forecast::LagFeatureConfig{}, gbdt_cfg));
  }

  for (const auto& model : models) {
    model->fit(series);
    std::unique_ptr<forecast::Forecaster> loaded;
    round_trip(
        [&](serialize::Writer& w) { forecast::save_forecaster(w, *model); },
        [&](serialize::Reader& r) { loaded = forecast::load_forecaster(r); });
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(model->name(), loaded->name());
    for (const int horizon : {1, 12, 144}) {
      ASSERT_EQ(model->forecast(prefix, horizon),
                loaded->forecast(prefix, horizon))
          << model->name() << " horizon " << horizon;
    }
  }
}

TEST(SerializeRoundTrip, FileIo) {
  const ml::Dataset data = trace_dataset(venus_trace(11));
  ml::GBDTConfig cfg;
  cfg.n_trees = 6;
  ml::GBDTRegressor model(cfg);
  model.fit(data);

  const std::string path = testing::TempDir() + "helios_model_roundtrip.bin";
  serialize::save_file(path, model);

  // load_file validates the frame, loads, and rejects trailing bytes — and
  // is byte-equivalent to the longhand write_file/read_file pair.
  const auto loaded = serialize::load_file<ml::GBDTRegressor>(path);
  expect_models_identical(model, loaded);

  serialize::Writer w;
  model.save(w);
  EXPECT_EQ(serialize::read_file(path), serialize::unframe(serialize::frame(w)));

  // In-place overload (for non-default-constructible types).
  ml::GBDTRegressor in_place;
  serialize::load_file(path, in_place);
  expect_models_identical(model, in_place);
  std::remove(path.c_str());

  EXPECT_THROW(
      { auto missing = serialize::read_file(path); (void)missing; }, Error);
  EXPECT_THROW(
      { auto missing = serialize::load_file<ml::GBDTRegressor>(path); (void)missing; },
      Error);
}

// ---------------------------------------------------------------------------
// Malformed input
// ---------------------------------------------------------------------------

/// A small but real frame to corrupt: a trained QSSF service.
const std::vector<std::uint8_t>& sample_frame() {
  static const std::vector<std::uint8_t> file = [] {
    trace::ClusterSpec spec;
    spec.name = "s";
    spec.vcs = {{"vc0", 2, 8}};
    spec.nodes = 2;
    trace::Trace t(spec);
    for (int i = 0; i < 50; ++i) {
      t.add(600 * i, 300 + 10 * i, 1 + i % 4, 8, "u" + std::to_string(i % 5),
            "vc0", "train_job_v" + std::to_string(i % 7),
            trace::JobState::kCompleted);
    }
    core::QssfConfig cfg;
    cfg.gbdt.n_trees = 3;
    core::QssfService service(cfg);
    service.fit(t);
    serialize::Writer w;
    service.save(w);
    return serialize::frame(w);
  }();
  return file;
}

void expect_error(const std::vector<std::uint8_t>& file, ErrorCode code) {
  try {
    const auto body = serialize::unframe(file);
    serialize::Reader r(body);
    core::QssfService svc;
    svc.load(r);
    FAIL() << "expected serialize::Error " << serialize::to_string(code);
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), code) << e.what();
  }
}

TEST(SerializeMalformed, BadMagic) {
  auto file = sample_frame();
  file[0] ^= 0x40;
  expect_error(file, ErrorCode::kBadMagic);
}

TEST(SerializeMalformed, FutureFormatVersion) {
  // Craft a structurally valid frame claiming version kFormatVersion + 1
  // (CRC recomputed, so only the version is "wrong").
  serialize::Writer raw;
  raw.bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(serialize::kMagic), 8));
  raw.u32(serialize::kFormatVersion + 1);
  raw.u32(0);
  raw.str("payload from the future");
  serialize::Writer file = std::move(raw);
  file.u32(serialize::crc32(file.buffer()));
  expect_error(file.buffer(), ErrorCode::kUnsupportedVersion);
}

TEST(SerializeMalformed, CrcMismatch) {
  auto file = sample_frame();
  file[file.size() / 2] ^= 0x01;  // body bit flip
  expect_error(file, ErrorCode::kCrcMismatch);
}

TEST(SerializeMalformed, TruncationAtEveryByte) {
  const auto& file = sample_frame();
  // Every strict prefix must throw a typed Error — never crash, never
  // produce a usable model. Step 1 keeps the sweep exhaustive.
  for (std::size_t len = 0; len < file.size(); ++len) {
    std::vector<std::uint8_t> prefix(file.begin(),
                                     file.begin() + static_cast<long>(len));
    EXPECT_THROW(
        {
          const auto body = serialize::unframe(prefix);
          serialize::Reader r(body);
          core::QssfService svc;
          svc.load(r);
        },
        Error)
        << "prefix length " << len;
  }
}

TEST(SerializeMalformed, WrongSectionTag) {
  // A GBDT body handed to QssfService::load -> kBadSection, and vice versa.
  ml::GBDTRegressor model;
  serialize::Writer w;
  model.save(w);
  serialize::Reader r(w.buffer());
  core::QssfService svc;
  try {
    svc.load(r);
    FAIL() << "expected kBadSection";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadSection);
  }
}

TEST(SerializeMalformed, HostileLengthRejectedBeforeAllocation) {
  // A declared element count far beyond the payload must be rejected by
  // Reader::length() without attempting the allocation.
  serialize::Writer w;
  w.u64(std::uint64_t{1} << 60);
  serialize::Reader r(w.buffer());
  try {
    const auto v = r.vec_f64();
    FAIL() << "expected kTruncated, got vector of " << v.size();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTruncated);
  }
}

TEST(SerializeMalformed, TreeWithCycleRejected) {
  // An interior node pointing at itself (left = right = 0) would loop
  // forever in predict(); load must reject it as corrupt.
  serialize::Writer w;
  w.begin_section(serialize::fourcc("TREE"));
  w.u32(1);   // section version
  w.u64(1);
  w.i32(0);   // feature 0 -> interior
  w.i32(0);   // split_bin
  w.f64(0.5);
  w.i32(0);   // left: backward edge
  w.i32(0);   // right: backward edge
  w.f64(0.0);
  w.f64(0.0);
  w.end_section();
  serialize::Reader r(w.buffer());
  ml::RegressionTree tree;
  try {
    tree.load(r, /*n_features=*/4);
    FAIL() << "expected kCorrupt";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorrupt);
  }
}

TEST(SerializeMalformed, TreesWithoutMatchingBinnerRejected) {
  // A model claiming trees but shipping an empty binner would make
  // predict_many index a zero-feature BinnedMatrix; load must reject it.
  serialize::Writer w;
  w.begin_section(serialize::fourcc("GBDT"));
  w.u32(1);    // section version
  w.i32(1);    // n_trees
  w.i32(6);    // max_depth
  w.f64(0.1);  // learning_rate
  w.i32(20);   // min_samples_leaf
  w.f64(0.8);  // subsample
  w.i32(64);   // max_bins
  w.f64(1.0);  // lambda
  w.u64(42);   // seed
  w.u64(0);    // max_training_rows
  w.u8(0);     // engine
  w.f64(1.5);  // base prediction
  w.u64(1);    // n_features
  w.u64(0);    // empty rmse vector
  w.begin_section(serialize::fourcc("BINR"));
  w.u32(1);    // version
  w.u64(0);    // zero features despite n_features = 1
  w.end_section();
  w.u64(1);    // one tree
  w.begin_section(serialize::fourcc("TREE"));
  w.u32(1);    // version
  w.u64(1);    // one leaf node
  w.i32(-1);   // feature < 0 -> leaf
  w.i32(-1);
  w.f64(0.0);
  w.i32(-1);
  w.i32(-1);
  w.f64(2.0);
  w.f64(0.0);
  w.end_section();
  w.end_section();
  serialize::Reader r(w.buffer());
  ml::GBDTRegressor loaded;
  try {
    loaded.load(r);
    FAIL() << "expected kCorrupt";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorrupt);
  }
}

/// A small but genuinely trained GBDT with an unusual feature width, for
/// crafting cross-layer width-mismatch payloads.
ml::GBDTRegressor trained_model(std::size_t n_features) {
  Rng rng(9);
  ml::Dataset data(n_features);
  std::vector<double> row(n_features);
  for (int i = 0; i < 800; ++i) {
    double y = 0.0;
    for (std::size_t f = 0; f < n_features; ++f) {
      row[f] = rng.uniform(-1.0, 1.0);
      y += (f % 2 == 0 ? 1.0 : -0.5) * row[f];
    }
    data.add_row(row, y);
  }
  ml::GBDTConfig cfg;
  cfg.n_trees = 2;
  cfg.min_samples_leaf = 10;
  ml::GBDTRegressor model(cfg);
  model.fit(data);
  return model;
}

TEST(SerializeMalformed, EmptyTreeRejected) {
  // leaf_for_binned reads nodes_[0] unconditionally; a zero-node tree must
  // be refused at load time.
  serialize::Writer w;
  w.begin_section(serialize::fourcc("TREE"));
  w.u32(1);  // section version
  w.u64(0);  // zero nodes
  w.end_section();
  serialize::Reader r(w.buffer());
  ml::RegressionTree tree;
  try {
    tree.load(r, /*n_features=*/4);
    FAIL() << "expected kCorrupt";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorrupt);
  }
}

TEST(SerializeMalformed, GbdtTrainerIdLegacyLoadsUnknownRejected) {
  // The GBDT config keeps a u8 trainer id: save() writes 0, files from when
  // the library also had a bit-identical reference trainer may hold 1 and
  // must load as the same model, and anything above 1 is corrupt.
  const ml::Dataset data = trace_dataset(venus_trace(11));
  ml::GBDTConfig cfg;
  cfg.n_trees = 6;
  ml::GBDTRegressor model(cfg);
  model.fit(data);
  serialize::Writer w;
  model.save(w);
  // Section header (u32 tag, u64 length), then the payload: u32 version,
  // i32 trees, i32 depth, f64 learning rate, i32 min leaf, f64 subsample,
  // i32 bins, f64 lambda, u64 seed, u64 row cap — 60 bytes — then the id.
  constexpr std::size_t kTrainerIdOffset = 12 + 60;
  std::vector<std::uint8_t> body = w.buffer();
  ASSERT_EQ(body[kTrainerIdOffset], 0);

  // Patch the body, then frame it, so the CRC covers the patched byte.
  const auto load_patched = [&](std::uint8_t id, ml::GBDTRegressor& out) {
    body[kTrainerIdOffset] = id;
    serialize::Writer patched;
    patched.bytes(body);
    const std::vector<std::uint8_t> file = serialize::frame(patched);
    const std::vector<std::uint8_t> unframed = serialize::unframe(file);
    serialize::Reader r(unframed);
    out.load(r);
    r.close("frame body");
  };

  ml::GBDTRegressor legacy;
  load_patched(1, legacy);
  expect_models_identical(model, legacy);
  ASSERT_EQ(model.predict_many(data), legacy.predict_many(data));
  for (std::size_t r = 0; r < data.rows(); r += 97) {
    ASSERT_EQ(model.predict(data.row(r)), legacy.predict(data.row(r)));
  }
  // Re-saving a legacy model writes the one trainer id.
  serialize::Writer resaved;
  legacy.save(resaved);
  EXPECT_EQ(resaved.buffer(), w.buffer());

  ml::GBDTRegressor unknown;
  try {
    load_patched(2, unknown);
    FAIL() << "expected kCorrupt";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorrupt) << e.what();
  }
}

TEST(SerializeMalformed, QssfFeatureWidthMismatchRejected) {
  // A QSSF snapshot embedding an internally-consistent GBDT trained on 16
  // features: every section validates in isolation, but the service always
  // encodes 9-feature rows, so load must reject the pairing.
  const ml::GBDTRegressor wide = trained_model(16);
  ASSERT_TRUE(wide.trained());
  serialize::Writer w;
  w.begin_section(serialize::fourcc("QSSF"));
  w.u32(1);     // section version
  w.f64(0.45);  // lambda
  w.f64(0.20);  // name_match_threshold
  w.f64(0.75);  // rolling_decay
  w.u64(64);    // max_names_per_user
  w.u8(1);      // use_names
  wide.save(w);
  ml::NameBucketizer().save(w);
  core::RollingEstimator().save(w);
  w.end_section();
  serialize::Reader r(w.buffer());
  core::QssfService svc;
  try {
    svc.load(r);
    FAIL() << "expected kCorrupt";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorrupt);
  }
}

TEST(SerializeMalformed, ForecasterFeatureWidthMismatchRejected) {
  // Same class through load_forecaster: a lag config building 1 feature
  // paired with a model trained on 16.
  const ml::GBDTRegressor wide = trained_model(16);
  ASSERT_TRUE(wide.trained());
  serialize::Writer w;
  w.begin_section(serialize::fourcc("FCST"));
  w.u32(1);                             // section version
  w.u32(serialize::fourcc("GBFC"));     // concrete type tag
  const std::int32_t lags[1] = {1};
  w.vec_i32(lags);                      // one lag
  w.vec_i32({});                        // no rolling windows
  w.u8(0);                              // calendar off -> feature_count() == 1
  wide.save(w);
  w.end_section();
  serialize::Reader r(w.buffer());
  try {
    auto loaded = forecast::load_forecaster(r);
    FAIL() << "expected kCorrupt, got " << loaded->name();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorrupt);
  }
}

TEST(SerializeMalformed, TrailingBytesRejected) {
  ml::RidgeRegression model;
  serialize::Writer w;
  model.save(w);
  w.u8(0x5a);  // trailing garbage after the section
  serialize::Reader r(w.buffer());
  ml::RidgeRegression loaded;
  loaded.load(r);  // section itself is fine
  try {
    r.close("test");
    FAIL() << "expected kCorrupt";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorrupt);
  }
}

TEST(SerializeMalformed, BinnerEdgeValidation) {
  // Unsorted edges would break FeatureBinner::bin()'s halving search.
  serialize::Writer w;
  w.begin_section(serialize::fourcc("BINR"));
  w.u32(1);   // version
  w.u64(1);   // one feature
  const double edges[3] = {1.0, 3.0, 2.0};
  w.vec_f64(edges);
  w.end_section();
  serialize::Reader r(w.buffer());
  ml::FeatureBinner binner;
  try {
    binner.load(r);
    FAIL() << "expected kCorrupt";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorrupt);
  }
}

}  // namespace
}  // namespace helios
