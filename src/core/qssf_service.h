// Quasi-Shortest-Service-First scheduling service (paper §4.2, Algorithm 1).
//
// Assigns every incoming job a priority P = N * (λ * P_R + (1-λ) * P_M):
//   * P_R — rolling estimate from the user's history:
//       - unknown user           -> mean duration of all jobs with the same
//                                   GPU demand,
//       - user known, new name   -> mean duration of this user's jobs with
//                                   the same GPU demand,
//       - similar name found     -> exponentially-weighted mean of the
//                                   durations of name-matched jobs
//                                   (Levenshtein similarity),
//   * P_M — GBDT estimate from encoded job attributes (user, VC, bucketized
//     name, GPU/CPU demand, submission-time calendar features),
//   * N   — requested GPU count, turning the duration estimate into expected
//     GPU time (the paper ranks by GPU time, not duration, so that large
//     short jobs don't starve behind small ones).
// The scheduler then runs jobs in ascending priority (sim::SchedulerPolicy::
// kQssf). Lower P = expected-shorter service = runs first.
//
// Determinism: fit(), observe(), and the evaluator are pure functions of
// their inputs and the service's prior state — no wall clock, no unseeded
// randomness. A price has one definition (one GBDT feature row, λ-merge and
// GPU-time scaling), and causal_step() is the per-job drain -> price -> push
// that OnlinePriorityEvaluator and svc::PredictionServer share. The
// evaluator's two modes differ only in where P_M comes from (one batched
// predict_many pass or a per-row predict), and are bit-identical
// (test_prediction_parity). A service restored from save()
// (docs/FORMATS.md, "QSSF" frame) produces bit-identical priorities and
// estimates (test_serialize) — including the dedupe keys, so replaying an
// already-observed trace into a warm-restarted service still cannot
// double-count.
//
// Thread-safety: QssfService and RollingEstimator are externally
// synchronized — fit()/observe()/load() mutate and must be exclusive; the
// const estimate/predict accessors are safe to share across threads between
// mutations (predict-time name bucketing is memoized behind logical
// constness, so even const use requires external synchronization if callers
// race on previously-unseen job names). OnlinePriorityEvaluator's batched
// GBDT pass is row-parallel on the shared global_pool(); the evaluator is
// safe to read from any thread once constructed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/exec_mode.h"
#include "common/flat_u64_set.h"
#include "ml/gbdt.h"
#include "ml/levenshtein.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace helios::serialize {
class Reader;
class Writer;
}  // namespace helios::serialize

namespace helios::core {

struct QssfConfig {
  /// Merge coefficient λ between the rolling and the GBDT estimate.
  double lambda = 0.45;
  /// Normalised Levenshtein distance below which two job names "match".
  /// 0.20 keeps "_v2"-style variants together while separating different
  /// templates of the same user ("train_bert" vs "eval_bert").
  double name_match_threshold = 0.20;
  /// Exponential decay applied to older name-matched durations.
  double rolling_decay = 0.75;
  /// Per-user cap on remembered name entries (oldest evicted).
  std::size_t max_names_per_user = 64;
  /// GBDT hyper-parameters; max_training_rows caps fit cost on huge traces.
  ml::GBDTConfig gbdt = default_gbdt_config();
  /// Limited-information mode (paper §6.2 future work: "some attributes in
  /// our services may not be available in other clusters"): when false, job
  /// names are ignored — the rolling estimator skips name matching and the
  /// GBDT drops the name-bucket feature.
  bool use_names = true;

  [[nodiscard]] static ml::GBDTConfig default_gbdt_config();
};

/// The rolling half of Algorithm 1: per-user duration history with
/// Levenshtein name matching, plus cluster-wide fallbacks. Split out of the
/// service as a copyable value, so a svc snapshot can hold a query-only copy.
///
/// Every finished job is folded in at most once, keyed by a hash of its
/// identity content (job_id, submit time, duration, demand, user), so
/// feeding an overlapping or cumulative trace cannot double-count history —
/// and traces from a different lineage (ids restart at 0) still observe.
///
/// Storage is flat, so a copy (each svc snapshot publish, each service copy)
/// costs a few allocations per user, not one per remembered name:
/// a user's names live back to back in one char arena in entry order, and
/// each per-GPU-demand sum table is a small vector sorted by demand. A copy
/// is a plain value copy and shares nothing with its source.
class RollingEstimator {
 public:
  RollingEstimator() = default;
  explicit RollingEstimator(const QssfConfig& config)
      : use_names_(config.use_names),
        name_match_threshold_(config.name_match_threshold),
        rolling_decay_(config.rolling_decay),
        max_names_per_user_(config.max_names_per_user) {}

  /// Absorb one finished GPU job (idempotent per job_id). Throws
  /// std::logic_error on a query_copy().
  void observe(const trace::Trace& t, const trace::JobRecord& job);

  /// Expected duration (seconds) of an incoming job, Algorithm 1 lines 13-18.
  [[nodiscard]] double estimate(const trace::Trace& t,
                                const trace::JobRecord& job) const;

  /// Trace-free overload for callers that hold raw strings instead of a
  /// Trace (the serving layer's query path); the Trace overload delegates
  /// here, so both are the same algorithm.
  [[nodiscard]] double estimate(const std::string& user,
                                const std::string& job_name,
                                int num_gpus) const;

  [[nodiscard]] std::int64_t observed_jobs() const noexcept { return global_jobs_; }

  /// A copy for estimate() only: every history and fallback, but not the
  /// observe-dedupe set, which only observe() and save() read. observe()
  /// and save() on it throw std::logic_error.
  [[nodiscard]] RollingEstimator query_copy() const;

  /// Persist / restore the full rolling state ("ROLL" section,
  /// docs/FORMATS.md): per-user histories (GPU-demand sums, name EWMAs with
  /// their eviction clocks), the cluster-wide fallbacks, and the observed-id
  /// dedupe set — so a restored estimator both estimates bit-identically and
  /// keeps skipping jobs the saved one had already folded in. Throws
  /// serialize::Error on malformed input.
  void save(serialize::Writer& w) const;
  void load(serialize::Reader& r);

 private:
  /// Duration sum and job count for one GPU demand.
  struct GpuSum {
    int gpus = 0;
    double sum = 0.0;
    std::int64_t n = 0;
  };
  /// Ascending by gpus, one entry per demand seen.
  using GpuSums = std::vector<GpuSum>;
  struct NameEntry {
    std::size_t offset = 0;  // name bytes in UserHistory::arena
    std::size_t size = 0;
    double ewma_duration = 0.0;
    double weight = 0.0;
    std::uint64_t last_seen = 0;  // insertion counter, for eviction
  };
  struct UserHistory {
    GpuSums by_gpus;
    double duration_sum = 0.0;
    std::int64_t jobs = 0;
    /// The names of `names`, back to back in entry order.
    std::string arena;
    std::vector<NameEntry> names;

    [[nodiscard]] std::string_view name(const NameEntry& e) const noexcept {
      return {arena.data() + e.offset, e.size};
    }
    /// Appends an entry for `name`; returns it.
    NameEntry& add_name(std::string_view name);
    /// Erases names[i] and its bytes; later entries keep their order.
    void erase_name(std::size_t i);
  };

  /// The entry for `gpus`, inserted in order (zeroed) if absent.
  static GpuSum& sum_for(GpuSums& sums, int gpus);
  /// The entry for `gpus`, or nullptr when none was observed.
  static const GpuSum* find_sum(const GpuSums& sums, int gpus) noexcept;
  static void save_sums(serialize::Writer& w, const GpuSums& sums);
  static GpuSums load_sums(serialize::Reader& r);

  [[nodiscard]] const NameEntry* find_name(const UserHistory& u,
                                           std::string_view name) const;

  bool use_names_ = true;
  double name_match_threshold_ = 0.20;
  double rolling_decay_ = 0.75;
  std::size_t max_names_per_user_ = 64;
  bool query_only_ = false;

  /// Content-hash identity of a job for the observe dedupe set.
  [[nodiscard]] static std::uint64_t dedupe_key(
      const trace::JobRecord& job) noexcept;

  std::unordered_map<std::string, UserHistory> users_;
  GpuSums global_by_gpus_;
  double global_duration_sum_ = 0.0;
  std::int64_t global_jobs_ = 0;
  std::uint64_t observe_counter_ = 0;
  // Content-hash keys in one flat array, so a full copy of the estimator
  // (each QssfService copy) copies the set in one piece.
  common::FlatU64Set observed_ids_;
};

/// A job described by raw strings plus pre-resolved feature ids — the query
/// shape of the serving layer (svc::), which prices jobs that have no Trace
/// row yet. user_id/vc_id must be resolved against the interners of the
/// trace the service learned from (an unseen value maps to interner size,
/// the id a fresh intern would have received — svc::Snapshot does this).
struct JobQuery {
  std::string user;          ///< submitting user (rolling-estimator key)
  std::string job_name;      ///< job name (name match + bucket feature)
  std::uint32_t user_id = 0; ///< trace interner id of `user`
  std::uint32_t vc_id = 0;   ///< trace interner id of the virtual cluster
  std::int32_t num_gpus = 1;
  std::int32_t num_cpus = 0;
  UnixTime submit_time = 0;
};

class QssfService {
 public:
  explicit QssfService(QssfConfig config = {});

  /// Train the GBDT on `history` and absorb its finished jobs into the
  /// rolling estimator (the paper trains on April-August and evaluates on
  /// September). Already-seen jobs are skipped, so a cumulative feed — each
  /// call's trace a superset of the last — cannot double-count history.
  void fit(const trace::Trace& history);

  /// Absorb a single finished job into the rolling estimator (no GBDT refit).
  void observe(const trace::Trace& t, const trace::JobRecord& job);

  /// Expected duration (seconds) of an incoming job. `ml_duration`, when
  /// given, is the job's P_M from ml_estimates() and replaces the per-row
  /// ml_estimate() call (bitwise the same value).
  [[nodiscard]] double predict_duration(
      const trace::Trace& t, const trace::JobRecord& job,
      std::optional<double> ml_duration = std::nullopt) const;

  /// Algorithm 1's Priority(): expected GPU time, lower first.
  [[nodiscard]] double priority(
      const trace::Trace& t, const trace::JobRecord& job,
      std::optional<double> ml_duration = std::nullopt) const;

  /// GBDT estimate alone (the λ ablation; rolling().estimate() is P_R).
  [[nodiscard]] double ml_estimate(const trace::Trace& t,
                                   const trace::JobRecord& job) const;

  /// Frozen predict_duration() for the concurrent query path (svc::Snapshot):
  /// an unseen job name gets the bucket the Trace path would mint, without
  /// minting it, so any number of threads may share the service, and for a
  /// name already priced once the result is bit-identical to the Trace path.
  [[nodiscard]] double predict_duration(const JobQuery& query) const;

  /// Expected GPU time of a job demanding `num_gpus` for `duration` seconds:
  /// the N factor of Priority(), with a CPU-only job counted as one GPU.
  [[nodiscard]] static double expected_gpu_time(std::int32_t num_gpus,
                                                double duration) {
    return static_cast<double>(std::max(1, num_gpus)) * duration;
  }

  /// Encode the given jobs into a GBDT feature matrix, warming the name
  /// buckets in job order (the order per-row pricing would).
  [[nodiscard]] ml::Dataset encode_jobs(
      const trace::Trace& t, std::span<const std::uint32_t> job_indices) const;

  /// ml_estimate() of every given job from one encode_jobs() and one
  /// row-parallel predict_many pass, bitwise the per-row values. Empty when
  /// the model is untrained: P_M then falls back to the rolling estimate,
  /// which moves with every observe.
  [[nodiscard]] std::vector<double> ml_estimates(
      const trace::Trace& t, std::span<const std::uint32_t> job_indices) const;

  [[nodiscard]] const QssfConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool trained() const noexcept { return model_->trained(); }
  [[nodiscard]] const ml::GBDTRegressor& model() const noexcept { return *model_; }
  [[nodiscard]] const RollingEstimator& rolling() const noexcept { return rolling_; }

  /// A copy for predict_duration(const JobQuery&) only (svc::Snapshot): it
  /// shares this service's GBDT, copies the name buckets, and holds
  /// RollingEstimator::query_copy(), so it leaves the observe-dedupe set
  /// behind. observe(), save() and fit() on any history with jobs throw
  /// std::logic_error on it.
  [[nodiscard]] QssfService query_copy() const;

  /// Persist the whole service ("QSSF" frame, docs/FORMATS.md): config,
  /// GBDT model, name buckets, and rolling state. Wrap with
  /// serialize::save_file to snapshot; load() into a fresh service
  /// warm-restarts it — predictions and priorities are bit-identical to the
  /// saved instance, with no history replay or refit.
  void save(serialize::Writer& w) const;
  void load(serialize::Reader& r);

 private:
  QssfConfig config_;
  // Immutable once built: fit() and load() build a new model, so copies of
  // the service (and their snapshots) share one.
  std::shared_ptr<const ml::GBDTRegressor> model_;
  mutable ml::NameBucketizer name_buckets_;  // grows lazily at predict time
  RollingEstimator rolling_;
};

/// Pending-finish replay queue: a min-heap of (finish, index) events, popped
/// in (finish, then index) total order — identical however the heap was
/// assembled. causal_step() is the one drain/push sequence the evaluator and
/// the streaming svc::PredictionServer share. Externally synchronized, like
/// the estimators it feeds.
class ReplayQueue {
 public:
  struct Entry {
    std::int64_t finish = 0;   ///< approximate finish: submit + duration
    std::uint32_t index = 0;   ///< caller-defined job index (tie-break)
  };

  /// Queue the job's finish event under the given index.
  void push(const trace::JobRecord& job, std::uint32_t index) {
    heap_.push_back({job.submit_time + job.duration, index});
    std::push_heap(heap_.begin(), heap_.end(), after);
  }

  /// Pop every entry with finish <= now in (finish, index) order, invoking
  /// observe(index) for each.
  template <class ObserveFn>
  void drain(std::int64_t now, ObserveFn&& observe) {
    while (!heap_.empty() && heap_.front().finish <= now) {
      std::pop_heap(heap_.begin(), heap_.end(), after);
      const std::uint32_t index = heap_.back().index;
      heap_.pop_back();
      observe(index);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  /// Raw heap storage, for checkpointing; feed back through restore().
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept {
    return heap_;
  }
  /// Adopt entries() output verbatim (the storage is already heap-ordered).
  void restore(std::vector<Entry> entries) { heap_ = std::move(entries); }

 private:
  static bool after(const Entry& a, const Entry& b) noexcept {
    return a.finish != b.finish ? a.finish > b.finish : a.index > b.index;
  }

  std::vector<Entry> heap_;
};

/// One causal step of the Model Update Engine (paper §4.1) for the GPU job
/// at `index` of `t`: fold into `service` every queued job that has
/// (approximately) finished by the job's submit time — queuing delay is
/// unknown then, so submit + duration stands in for the termination feed —
/// price the job, and queue its own finish. Returns the priority.
/// `ml_duration` is the job's precomputed P_M, if any (QssfService::
/// ml_estimates()); the GBDT reads no rolling state, so it may be batched.
inline double causal_step(QssfService& service, ReplayQueue& pending,
                          const trace::Trace& t, std::uint32_t index,
                          std::optional<double> ml_duration = std::nullopt) {
  const trace::JobRecord& job = t.jobs()[index];
  pending.drain(job.submit_time, [&service, &t](std::uint32_t finished) {
    service.observe(t, t.jobs()[finished]);
  });
  const double p = service.priority(t, job, ml_duration);
  pending.push(job, index);
  return p;
}

struct EvalOptions {
  /// Where P_M comes from. kParallel batches it through one row-parallel
  /// predict_many pass; kSerial, the reference twin, predicts per row.
  /// Every other step is the same causal loop, so the two are bit-identical.
  common::ExecMode execution = common::ExecMode::kParallel;
};

/// Evaluates QSSF priorities for a stream of jobs in submission order while
/// honouring causality: one causal_step() per GPU job, so a job is folded
/// into the rolling estimator only once its (approximate) finish time
/// submit+duration has passed. This mirrors the deployed Model Update
/// Engine, which fine-tunes from jobs as they terminate, and leaves
/// `service` in the state that feed produces. Returns a PriorityFn suitable
/// for sim::SimConfig after precomputing priorities for every GPU job of
/// `eval`.
///
/// Priorities are keyed by job_id, so GPU job ids must be unique: a repeated
/// one throws std::invalid_argument naming the id and row, before `service`
/// is touched.
class OnlinePriorityEvaluator {
 public:
  OnlinePriorityEvaluator(QssfService& service, const trace::Trace& eval,
                          EvalOptions options = {});

  /// Priority for a trace job (precomputed; keyed by job_id).
  [[nodiscard]] double priority_of(const trace::JobRecord& job) const;

  /// Adapter for the simulator.
  [[nodiscard]] sim::PriorityFn as_priority_fn() const;

  /// Prediction quality over the evaluated jobs: predicted vs actual GPU time.
  [[nodiscard]] const std::vector<double>& predicted_gpu_time() const noexcept {
    return predicted_;
  }
  [[nodiscard]] const std::vector<double>& actual_gpu_time() const noexcept {
    return actual_;
  }

 private:
  std::unordered_map<std::uint64_t, double> priorities_;
  std::vector<double> predicted_;
  std::vector<double> actual_;
};

}  // namespace helios::core
