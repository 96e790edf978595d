// Cluster-level characterization (paper §3.1, Figures 2, 3, 4).
//
// Utilization is defined as in §2.3.1: the ratio of active GPUs to total
// GPUs, computed from the jobs' (start, end, num_gpus) intervals. The series
// is exact (busy GPU-seconds per bucket / capacity / bucket length), not a
// sampling approximation.
//
// Known defect (kept so recorded outputs stay comparable): vc_behaviors
// builds each VC's utilization series with vc_utilization_series(t, vi, ...),
// which keeps jobs whose interned `j.vc == vi`, i.e. it takes the cluster
// spec index for the trace's VC interner id. The job-stat loop beside it
// matches by name. The two agree only when VCs were interned in spec order,
// as in generated Venus and Earth traces. After a ParallelLoader load, 9-18
// of each Helios cluster's 10-18 VCs have id != spec index (scale 0.1,
// seeds 1, 3, 42), and generated Saturn and Uranus traces mismatch on 12
// VCs. There the utilization box stats describe another VC's jobs over this
// VC's capacity (perfbench `pipeline`'s vc_behaviors digest,
// example_characterize_cluster). fig04_vc_behaviors uses generated Earth and
// is unaffected. Matching by name moves recorded benchmark digests, so the
// fix waits for a benchmark re-record.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "stats/summary.h"
#include "trace/trace.h"

namespace helios::analysis {

/// Regular utilization (or load) series.
struct UtilizationSeries {
  UnixTime begin = 0;
  std::int64_t step = 0;           ///< bucket width, seconds
  std::vector<double> values;      ///< busy-GPU fraction per bucket, in [0, ~1]

  [[nodiscard]] std::size_t size() const noexcept { return values.size(); }
  [[nodiscard]] UnixTime time_at(std::size_t i) const noexcept {
    return begin + static_cast<UnixTime>(i) * step;
  }
};

using JobPredicate = std::function<bool(const trace::JobRecord&)>;

/// Busy GPU-seconds per bucket over [begin, end), counting jobs matching
/// `pred` (defaults to all GPU jobs). Jobs are clipped to the window.
/// Large traces are accumulated in parallel: `pred` may be invoked
/// concurrently from pool threads and must be thread-safe (stateless
/// lambdas and value captures are fine). Results are deterministic and
/// machine-independent.
[[nodiscard]] std::vector<double> busy_gpu_seconds(
    const trace::Trace& t, UnixTime begin, UnixTime end, std::int64_t step,
    const JobPredicate& pred = nullptr);

/// GPU utilization series with the trace's cluster capacity as denominator.
[[nodiscard]] UtilizationSeries utilization_series(
    const trace::Trace& t, UnixTime begin, UnixTime end, std::int64_t step,
    const JobPredicate& pred = nullptr);

/// Utilization restricted to one VC (capacity = that VC's GPUs).
[[nodiscard]] UtilizationSeries vc_utilization_series(const trace::Trace& t,
                                                      int vc_index,
                                                      UnixTime begin, UnixTime end,
                                                      std::int64_t step);

/// Average utilization per hour-of-day (Figure 2a): buckets the series by
/// the hour their midpoint falls in.
[[nodiscard]] std::array<double, 24> hourly_profile(const UtilizationSeries& s);

/// Average GPU-job submissions per hour-of-day (Figure 2b), averaged over
/// the days in [begin, end).
[[nodiscard]] std::array<double, 24> hourly_submission_rate(const trace::Trace& t,
                                                            UnixTime begin,
                                                            UnixTime end);

/// Monthly activity (Figure 3): submissions split single-/multi-GPU, plus
/// average utilization overall and from each class.
struct MonthlyActivity {
  int year = 0;
  int month = 0;
  std::int64_t single_gpu_jobs = 0;
  std::int64_t multi_gpu_jobs = 0;
  double avg_utilization = 0.0;
  double util_from_single = 0.0;
  double util_from_multi = 0.0;
};

[[nodiscard]] std::vector<MonthlyActivity> monthly_trends(const trace::Trace& t,
                                                          UnixTime begin,
                                                          UnixTime end);

/// Per-VC behaviour (Figure 4): utilization box stats (per-minute samples),
/// mean GPU demand, mean queuing delay and duration of the VC's GPU jobs.
struct VCBehavior {
  int vc_index = 0;
  std::string name;
  int gpus = 0;
  stats::BoxStats utilization;     ///< over per-minute utilization samples
  double avg_gpu_request = 0.0;
  double avg_queue_delay = 0.0;    ///< seconds (requires an operated trace)
  double avg_duration = 0.0;       ///< seconds
  std::int64_t jobs = 0;
};

/// Behaviour of every VC over [begin, end), sorted by VC size descending.
/// `minute_step` controls the utilization sampling bucket (default 60 s as
/// in the paper's "averaged per minute").
[[nodiscard]] std::vector<VCBehavior> vc_behaviors(const trace::Trace& t,
                                                   UnixTime begin, UnixTime end,
                                                   std::int64_t minute_step = 60);

}  // namespace helios::analysis
