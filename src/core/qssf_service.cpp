#include "core/qssf_service.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/civil_time.h"
#include "serialize/binary.h"

namespace helios::core {

using trace::JobRecord;
using trace::Trace;

ml::GBDTConfig QssfConfig::default_gbdt_config() {
  ml::GBDTConfig cfg;
  cfg.n_trees = 60;
  cfg.max_depth = 6;
  cfg.learning_rate = 0.12;
  cfg.min_samples_leaf = 30;
  cfg.subsample = 0.7;
  cfg.max_bins = 64;
  cfg.max_training_rows = 200'000;  // keeps multi-month fits to seconds
  return cfg;
}

// ---------------------------------------------------------------------------
// RollingEstimator
// ---------------------------------------------------------------------------

RollingEstimator::NameEntry& RollingEstimator::UserHistory::add_name(
    std::string_view name) {
  NameEntry& e = names.emplace_back();
  e.offset = arena.size();
  e.size = name.size();
  arena += name;
  return e;
}

void RollingEstimator::UserHistory::erase_name(std::size_t i) {
  const NameEntry gone = names[i];
  arena.erase(gone.offset, gone.size);
  names.erase(names.begin() + static_cast<std::ptrdiff_t>(i));
  for (std::size_t k = i; k < names.size(); ++k) names[k].offset -= gone.size;
}

namespace {

/// lower_bound order of a GPU-demand sum table.
constexpr auto demand_below = [](const auto& sum, int gpus) {
  return sum.gpus < gpus;
};

}  // namespace

RollingEstimator::GpuSum& RollingEstimator::sum_for(GpuSums& sums, int gpus) {
  const auto it = std::lower_bound(sums.begin(), sums.end(), gpus, demand_below);
  if (it != sums.end() && it->gpus == gpus) return *it;
  return *sums.insert(it, GpuSum{gpus, 0.0, 0});
}

const RollingEstimator::GpuSum* RollingEstimator::find_sum(
    const GpuSums& sums, int gpus) noexcept {
  const auto it = std::lower_bound(sums.begin(), sums.end(), gpus, demand_below);
  return it != sums.end() && it->gpus == gpus ? &*it : nullptr;
}

const RollingEstimator::NameEntry* RollingEstimator::find_name(
    const UserHistory& u, std::string_view name) const {
  const NameEntry* best = nullptr;
  double best_dist = name_match_threshold_;
  for (const auto& e : u.names) {
    const std::string_view candidate = u.name(e);
    if (candidate == name) return &e;  // exact hit wins immediately
    const auto limit = static_cast<std::size_t>(std::floor(
        name_match_threshold_ *
        static_cast<double>(std::max(candidate.size(), name.size()))));
    if (!ml::within_distance(candidate, name, limit)) continue;
    const double d = ml::normalized_levenshtein(candidate, name);
    if (d <= best_dist) {
      best_dist = d;
      best = &e;
    }
  }
  return best;
}

std::uint64_t RollingEstimator::dedupe_key(const JobRecord& job) noexcept {
  // Keyed on job identity *content* (id + submit + duration + demand +
  // user), not the id alone — independently built traces restart ids at 0,
  // and an id collision across lineages must not silently drop a genuinely
  // new observation.
  std::uint64_t key = job.job_id;
  key = (key ^ static_cast<std::uint64_t>(job.submit_time)) * 0x9e3779b97f4a7c15ULL;
  key = (key ^ ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(job.duration))
                 << 32) |
                ((static_cast<std::uint64_t>(job.user) << 8) ^
                 static_cast<std::uint32_t>(job.num_gpus)))) *
        0xbf58476d1ce4e5b9ULL;
  return key;
}

void RollingEstimator::observe(const Trace& t, const JobRecord& job) {
  if (query_only_) {
    throw std::logic_error("RollingEstimator::observe on a query-only copy");
  }
  if (!job.is_gpu_job()) return;
  // Dedupe: the Model Update Engine may be fed cumulative traces
  // (QssfService::fit), and re-observing a job would double-count the
  // global/user sums and re-decay the name EWMAs.
  if (!observed_ids_.insert(dedupe_key(job))) return;
  const double dur = static_cast<double>(job.duration);
  ++observe_counter_;

  GpuSum& g = sum_for(global_by_gpus_, job.num_gpus);
  g.sum += dur;
  ++g.n;
  global_duration_sum_ += dur;
  ++global_jobs_;

  UserHistory& u = users_[t.user_name(job)];
  GpuSum& ug = sum_for(u.by_gpus, job.num_gpus);
  ug.sum += dur;
  ++ug.n;
  u.duration_sum += dur;
  ++u.jobs;

  if (!use_names_) return;  // limited-information mode
  const std::string& name = t.job_name(job);
  if (auto* e = const_cast<NameEntry*>(find_name(u, name))) {
    // Exponentially-weighted rolling duration (newest dominates).
    e->ewma_duration = rolling_decay_ * e->ewma_duration +
                       (1.0 - rolling_decay_) * dur;
    e->weight = rolling_decay_ * e->weight + (1.0 - rolling_decay_);
    e->last_seen = observe_counter_;
  } else {
    if (u.names.size() >= max_names_per_user_) {
      // Evict the least-recently-seen entry.
      auto oldest = std::min_element(u.names.begin(), u.names.end(),
                                     [](const NameEntry& a, const NameEntry& b) {
                                       return a.last_seen < b.last_seen;
                                     });
      u.erase_name(static_cast<std::size_t>(oldest - u.names.begin()));
    }
    NameEntry& fresh = u.add_name(name);
    fresh.ewma_duration = (1.0 - rolling_decay_) * dur;
    fresh.weight = 1.0 - rolling_decay_;
    fresh.last_seen = observe_counter_;
  }
}

RollingEstimator RollingEstimator::query_copy() const {
  RollingEstimator out;
  out.use_names_ = use_names_;
  out.name_match_threshold_ = name_match_threshold_;
  out.rolling_decay_ = rolling_decay_;
  out.max_names_per_user_ = max_names_per_user_;
  out.query_only_ = true;
  out.users_ = users_;
  out.global_by_gpus_ = global_by_gpus_;
  out.global_duration_sum_ = global_duration_sum_;
  out.global_jobs_ = global_jobs_;
  out.observe_counter_ = observe_counter_;
  return out;
}

double RollingEstimator::estimate(const Trace& t, const JobRecord& job) const {
  return estimate(t.user_name(job), t.job_name(job), job.num_gpus);
}

double RollingEstimator::estimate(const std::string& user,
                                  const std::string& job_name,
                                  int num_gpus) const {
  const auto user_it = users_.find(user);
  if (user_it == users_.end()) {
    // New user: cluster-wide mean duration for this GPU demand (line 14).
    const GpuSum* g = find_sum(global_by_gpus_, num_gpus);
    if (g != nullptr && g->n > 0) return g->sum / static_cast<double>(g->n);
    return global_jobs_ > 0 ? global_duration_sum_ / static_cast<double>(global_jobs_)
                            : 600.0;
  }
  const UserHistory& u = user_it->second;
  if (use_names_) {
    if (const NameEntry* e = find_name(u, job_name);
        e != nullptr && e->weight > 0.0) {
      // Similar name: exponentially-weighted decay of its durations (line 18).
      return e->ewma_duration / e->weight;
    }
  }
  // Known user, new job name: user's mean for this GPU demand (line 16).
  const GpuSum* g = find_sum(u.by_gpus, num_gpus);
  if (g != nullptr && g->n > 0) return g->sum / static_cast<double>(g->n);
  return u.jobs > 0 ? u.duration_sum / static_cast<double>(u.jobs) : 600.0;
}

// ---------------------------------------------------------------------------
// Persistence (docs/FORMATS.md)
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kRollingTag = serialize::fourcc("ROLL");
constexpr std::uint32_t kRollingVersion = 1;
constexpr std::uint32_t kQssfTag = serialize::fourcc("QSSF");
constexpr std::uint32_t kQssfVersion = 1;

}  // namespace

/// Already ascending by demand: canonical bytes as they stand.
void RollingEstimator::save_sums(serialize::Writer& w, const GpuSums& sums) {
  w.u64(sums.size());
  for (const GpuSum& g : sums) {
    w.i32(g.gpus);
    w.f64(g.sum);
    w.i64(g.n);
  }
}

RollingEstimator::GpuSums RollingEstimator::load_sums(serialize::Reader& r) {
  GpuSums sums(r.length(20));  // i32 + f64 + i64
  for (std::size_t i = 0; i < sums.size(); ++i) {
    GpuSum& g = sums[i];
    g.gpus = r.i32();
    g.sum = r.f64();
    g.n = r.i64();
    // save() writes each demand once, ascending; find_sum() relies on it.
    if (i > 0 && sums[i - 1].gpus >= g.gpus) {
      throw serialize::Error(serialize::ErrorCode::kCorrupt,
                             "rolling GPU-demand sums not strictly ascending");
    }
  }
  return sums;
}

void RollingEstimator::save(serialize::Writer& w) const {
  if (query_only_) {
    throw std::logic_error("RollingEstimator::save on a query-only copy");
  }
  w.begin_section(kRollingTag);
  w.u32(kRollingVersion);
  w.u8(use_names_ ? 1 : 0);
  w.f64(name_match_threshold_);
  w.f64(rolling_decay_);
  w.u64(max_names_per_user_);
  w.f64(global_duration_sum_);
  w.i64(global_jobs_);
  w.u64(observe_counter_);
  save_sums(w, global_by_gpus_);

  // Users sorted by name for canonical bytes; each user's name entries keep
  // their vector (insertion) order, which find_name's scan depends on.
  std::vector<const std::pair<const std::string, UserHistory>*> users;
  users.reserve(users_.size());
  for (const auto& kv : users_) users.push_back(&kv);
  std::sort(users.begin(), users.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  w.u64(users.size());
  for (const auto* kv : users) {
    w.str(kv->first);
    const UserHistory& u = kv->second;
    w.f64(u.duration_sum);
    w.i64(u.jobs);
    save_sums(w, u.by_gpus);
    w.u64(u.names.size());
    for (const NameEntry& e : u.names) {
      w.str(u.name(e));
      w.f64(e.ewma_duration);
      w.f64(e.weight);
      w.u64(e.last_seen);
    }
  }

  w.vec_u64(observed_ids_.sorted_keys());
  w.end_section();
}

void RollingEstimator::load(serialize::Reader& r) {
  serialize::Reader s = r.section(kRollingTag);
  const std::uint32_t version = s.u32();
  if (version != kRollingVersion) {
    throw serialize::Error(serialize::ErrorCode::kUnsupportedVersion,
                           "rolling section version " + std::to_string(version));
  }
  RollingEstimator out;
  out.use_names_ = s.u8() != 0;
  out.name_match_threshold_ = s.f64();
  out.rolling_decay_ = s.f64();
  out.max_names_per_user_ = static_cast<std::size_t>(s.u64());
  out.global_duration_sum_ = s.f64();
  out.global_jobs_ = s.i64();
  out.observe_counter_ = s.u64();
  out.global_by_gpus_ = load_sums(s);

  const std::size_t n_users = s.length(8);
  out.users_.reserve(n_users);
  for (std::size_t i = 0; i < n_users; ++i) {
    std::string user = s.str();
    UserHistory u;
    u.duration_sum = s.f64();
    u.jobs = s.i64();
    u.by_gpus = load_sums(s);
    const std::size_t n_names = s.length(8);
    u.names.reserve(n_names);
    for (std::size_t k = 0; k < n_names; ++k) {
      NameEntry& e = u.add_name(s.str());
      e.ewma_duration = s.f64();
      e.weight = s.f64();
      e.last_seen = s.u64();
    }
    out.users_.emplace(std::move(user), std::move(u));
  }

  const std::vector<std::uint64_t> ids = s.vec_u64();
  out.observed_ids_.reserve(ids.size());
  for (const std::uint64_t id : ids) out.observed_ids_.insert(id);
  s.close("rolling");
  *this = std::move(out);
}

// ---------------------------------------------------------------------------
// QssfService
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kFeatureCount = 9;

/// The GBDT feature row (P_M's input): GPU/CPU demand, VC and user ids, name
/// bucket (0 when names are not used), submission-time calendar features.
/// Trace jobs and queries differ only in how they find the name bucket.
std::array<double, kFeatureCount> feature_row(std::int32_t num_gpus,
                                              std::int32_t num_cpus,
                                              std::uint32_t vc,
                                              std::uint32_t user,
                                              std::size_t name_bucket,
                                              UnixTime submit_time) {
  const CivilTime c = to_civil(submit_time);
  return {static_cast<double>(num_gpus), static_cast<double>(num_cpus),
          static_cast<double>(vc),       static_cast<double>(user),
          static_cast<double>(name_bucket), static_cast<double>(c.month),
          static_cast<double>(c.weekday),  static_cast<double>(c.hour),
          static_cast<double>(c.minute)};
}

/// Feature row of a trace job; an unseen name mints its bucket.
std::array<double, kFeatureCount> trace_row(const Trace& t,
                                            const JobRecord& job,
                                            const QssfConfig& config,
                                            ml::NameBucketizer& buckets) {
  return feature_row(job.num_gpus, job.num_cpus, job.vc, job.user,
                     config.use_names ? buckets.bucket(t.job_name(job)) : 0,
                     job.submit_time);
}

/// The GBDT predicts log1p(duration); seconds, floored at one.
double duration_of(double log_duration) {
  return std::max(1.0, std::expm1(log_duration));
}

/// λ-merge of the rolling and the GBDT duration estimate.
double merge(double lambda, double rolling, double ml) {
  return lambda * rolling + (1.0 - lambda) * ml;
}

}  // namespace

QssfService::QssfService(QssfConfig config)
    : config_(config),
      model_(std::make_shared<const ml::GBDTRegressor>(config.gbdt)),
      name_buckets_(config.name_match_threshold, /*prefix_len=*/6),
      rolling_(config) {}

ml::Dataset QssfService::encode_jobs(
    const Trace& t, std::span<const std::uint32_t> job_indices) const {
  ml::Dataset data(kFeatureCount);
  data.reserve(job_indices.size());
  for (const std::uint32_t i : job_indices) {
    data.add_row(trace_row(t, t.jobs()[i], config_, name_buckets_), 0.0);
  }
  return data;
}

void QssfService::observe(const Trace& t, const JobRecord& job) {
  rolling_.observe(t, job);
}

void QssfService::fit(const Trace& history) {
  // Rolling structures (job ids already folded in are skipped).
  for (const auto& job : history.jobs()) rolling_.observe(history, job);

  // GBDT on log-duration.
  ml::Dataset data(kFeatureCount);
  for (const auto& job : history.jobs()) {
    if (!job.is_gpu_job()) continue;
    data.add_row(trace_row(history, job, config_, name_buckets_),
                 std::log1p(static_cast<double>(job.duration)));
  }
  auto model = std::make_shared<ml::GBDTRegressor>(model_->config());
  model->fit(data);
  model_ = std::move(model);
}

QssfService QssfService::query_copy() const {
  QssfService out(config_);
  out.model_ = model_;
  out.name_buckets_ = name_buckets_;
  out.rolling_ = rolling_.query_copy();
  return out;
}

void QssfService::save(serialize::Writer& w) const {
  w.begin_section(kQssfTag);
  w.u32(kQssfVersion);
  w.f64(config_.lambda);
  w.f64(config_.name_match_threshold);
  w.f64(config_.rolling_decay);
  w.u64(config_.max_names_per_user);
  w.u8(config_.use_names ? 1 : 0);
  model_->save(w);  // carries config_.gbdt inside the GBDT section
  name_buckets_.save(w);
  rolling_.save(w);
  w.end_section();
}

void QssfService::load(serialize::Reader& r) {
  serialize::Reader s = r.section(kQssfTag);
  const std::uint32_t version = s.u32();
  if (version != kQssfVersion) {
    throw serialize::Error(serialize::ErrorCode::kUnsupportedVersion,
                           "qssf section version " + std::to_string(version));
  }
  QssfConfig cfg;
  cfg.lambda = s.f64();
  cfg.name_match_threshold = s.f64();
  cfg.rolling_decay = s.f64();
  cfg.max_names_per_user = static_cast<std::size_t>(s.u64());
  cfg.use_names = s.u8() != 0;
  auto model = std::make_shared<ml::GBDTRegressor>();
  model->load(s);
  // feature_row() always hands predict() a kFeatureCount-element row; a
  // trained model expecting any other width would index past it. (GBDT load
  // already guarantees binner width == the model's feature count when
  // trained.)
  if (model->trained() && model->binner().features() != kFeatureCount) {
    throw serialize::Error(
        serialize::ErrorCode::kCorrupt,
        "qssf model expects " + std::to_string(model->binner().features()) +
            " features, service encodes " + std::to_string(kFeatureCount));
  }
  cfg.gbdt = model->config();
  ml::NameBucketizer buckets;
  buckets.load(s);
  RollingEstimator rolling;
  rolling.load(s);
  s.close("qssf");

  config_ = cfg;
  model_ = std::move(model);
  name_buckets_ = std::move(buckets);
  rolling_ = std::move(rolling);
}

double QssfService::ml_estimate(const Trace& t, const JobRecord& job) const {
  if (!model_->trained()) return rolling_.estimate(t, job);
  return duration_of(
      model_->predict(trace_row(t, job, config_, name_buckets_)));
}

std::vector<double> QssfService::ml_estimates(
    const Trace& t, std::span<const std::uint32_t> job_indices) const {
  if (!model_->trained()) return {};
  std::vector<double> out = model_->predict_many(encode_jobs(t, job_indices));
  for (double& v : out) v = duration_of(v);
  return out;
}

double QssfService::predict_duration(const Trace& t, const JobRecord& job,
                                     std::optional<double> ml_duration) const {
  return merge(config_.lambda, rolling_.estimate(t, job),
               ml_duration ? *ml_duration : ml_estimate(t, job));
}

double QssfService::priority(const Trace& t, const JobRecord& job,
                             std::optional<double> ml_duration) const {
  return expected_gpu_time(job.num_gpus, predict_duration(t, job, ml_duration));
}

double QssfService::predict_duration(const JobQuery& query) const {
  const double pr = rolling_.estimate(query.user, query.job_name, query.num_gpus);
  double pm = pr;
  if (model_->trained()) {
    // lookup() never mints: an unseen name takes bucket_count(), the id
    // bucket() would give it.
    std::size_t bucket = 0;
    if (config_.use_names) {
      const std::uint32_t b = name_buckets_.lookup(query.job_name);
      bucket = b == ml::NameBucketizer::kNoBucket
                   ? name_buckets_.bucket_count()
                   : b;
    }
    pm = duration_of(model_->predict(feature_row(query.num_gpus, query.num_cpus,
                                                query.vc_id, query.user_id,
                                                bucket, query.submit_time)));
  }
  return merge(config_.lambda, pr, pm);
}

// ---------------------------------------------------------------------------
// OnlinePriorityEvaluator
// ---------------------------------------------------------------------------

OnlinePriorityEvaluator::OnlinePriorityEvaluator(QssfService& service,
                                                 const Trace& eval,
                                                 EvalOptions options) {
  const auto& jobs = eval.jobs();
  std::vector<std::uint32_t> gpu;
  gpu.reserve(jobs.size());
  {
    // priority_of() looks jobs up by id: a repeated id would answer with the
    // first job's priority for every later one.
    common::FlatU64Set ids;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (!jobs[i].is_gpu_job()) continue;
      if (!ids.insert(jobs[i].job_id)) {
        throw std::invalid_argument(
            "OnlinePriorityEvaluator: duplicate GPU job_id " +
            std::to_string(jobs[i].job_id) + " at row " + std::to_string(i));
      }
      gpu.push_back(static_cast<std::uint32_t>(i));
    }
  }

  std::vector<double> ml;
  if (options.execution == common::ExecMode::kParallel) {
    ml = service.ml_estimates(eval, gpu);
  }
  ReplayQueue pending;
  priorities_.reserve(gpu.size());
  predicted_.reserve(gpu.size());
  actual_.reserve(gpu.size());
  for (std::size_t pos = 0; pos < gpu.size(); ++pos) {
    const JobRecord& job = jobs[gpu[pos]];
    const double p = causal_step(
        service, pending, eval, gpu[pos],
        ml.empty() ? std::nullopt : std::optional<double>(ml[pos]));
    priorities_.emplace(job.job_id, p);
    predicted_.push_back(p);
    actual_.push_back(job.gpu_time());
  }
}

double OnlinePriorityEvaluator::priority_of(const JobRecord& job) const {
  const auto it = priorities_.find(job.job_id);
  return it != priorities_.end()
             ? it->second
             : static_cast<double>(job.num_gpus) * 600.0;
}

sim::PriorityFn OnlinePriorityEvaluator::as_priority_fn() const {
  return [this](const JobRecord& job) { return priority_of(job); };
}

}  // namespace helios::core
