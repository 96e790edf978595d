// Trace-driven discrete-event simulator of a multi-VC GPU cluster.
//
// Reproduces the evaluation methodology of §4.2.3: jobs flow through
// arrival -> per-VC queue -> gang placement -> completion, with no backfill
// and no cross-VC sharing. Five policies:
//   * kFifo — submission order (the paper's production baseline),
//   * kSjf  — oracle shortest-job-first, non-preemptive,
//   * kSrtf — oracle shortest-remaining-time-first with free preemption,
//   * kQssf — Quasi-Shortest-Service-First: jobs ordered by *predicted* GPU
//             time supplied by a PriorityFn (see core/qssf_service.h),
//   * kEnergyQssf  — energy-aware QSSF: jobs ordered by *predicted energy*
//                    (predicted GPU time × the job's per-GPU draw), so
//                    cheap-to-run jobs clear the queue first.
//
// Energy accounting is always on: every run carries a core::PowerProfile
// (idle/boot/sleep/failed node watts + per-GPU draw, overridable per job via
// SimConfig::gpu_watts_fn) and SimResult reports cumulative energy, mean and
// per-bucket-peak power series, and per-VC energy. Setting
// SimConfig::power_cap_watts > 0 additionally turns on budget-constrained
// admission for *every* policy — no placement (head start, SRTF
// preemption-start, or backfill) may exceed the VC's capacity-proportional
// share of the cap; backfill under a cap is power-proportional: candidates
// start only while the projected draw stays under the cap.
//
// Only GPU jobs are simulated; the paper does the same ("GPU resources are
// the bottleneck in our clusters").
#pragma once

#include <functional>
#include <limits>
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/exec_mode.h"
#include "core/power_model.h"
#include "forecast/series.h"
#include "sim/cluster_state.h"
#include "sim/fault_plan.h"
#include "trace/trace.h"

namespace helios::sim {

enum class SchedulerPolicy {
  kFifo,
  kSjf,
  kSrtf,
  kQssf,
  kEnergyQssf,  ///< QSSF ordered by predicted energy (GPU time × watts)
};

[[nodiscard]] std::string_view to_string(SchedulerPolicy p) noexcept;

/// All five policies in declaration order — the policy axis a scenario sweep
/// iterates (sweep/scenario.h).
[[nodiscard]] std::span<const SchedulerPolicy> all_policies() noexcept;

/// Priority for kQssf/kEnergyQssf: expected GPU time of the job; lower runs
/// first (kEnergyQssf multiplies it by the job's per-GPU draw). Called
/// concurrently from VC shards under common::ExecMode::kParallel, so it must
/// be thread-safe (pure functions and const lookups are).
using PriorityFn = std::function<double(const trace::JobRecord&)>;

/// Per-GPU draw (watts) of one job while running; overrides
/// core::PowerProfile::gpu_watts when set. Same thread-safety contract as
/// PriorityFn.
using GpuWattsFn = std::function<double(const trace::JobRecord&)>;

struct SimConfig {
  SchedulerPolicy policy = SchedulerPolicy::kFifo;
  PriorityFn priority_fn;  ///< required for kQssf, ignored otherwise
  common::ExecMode execution = common::ExecMode::kParallel;
  /// Queue delay (seconds) above which a job counts as "queued" in the
  /// Table 3 sense.
  std::int64_t queued_threshold = 1;
  /// Resolution of the busy-nodes / busy-GPUs output series.
  std::int64_t series_step = 600;
  /// Greedy backfill: when the queue head does not fit, later queued jobs
  /// that do fit may start (no reservations). The production Slurm that
  /// recorded the trace backfills, so *operating* a trace uses this; the
  /// §4.2.3 scheduler comparison keeps it off, exactly like the paper
  /// ("we do not consider the backfill mechanism").
  bool backfill = false;
  /// Cap on queue entries scanned per backfill pass.
  int backfill_depth = 256;
  /// Optional node-failure/recovery schedule (sim/fault_plan.h). Not owned;
  /// must outlive the run. nullptr = failure-free cluster. An injected
  /// failure kills the jobs running on the node (their gangs release fully,
  /// the jobs requeue with `restart` semantics) and removes the node's
  /// capacity until its recovery event — or forever, when the repair crosses
  /// the plan horizon.
  const FaultPlan* fault_plan = nullptr;
  /// Requeue semantics for jobs killed by a node failure.
  FaultRestart restart = FaultRestart::kRestart;
  /// Per-VC placement preference: node_order[vc][k] is the VC-local node
  /// index ranked k-th for allocation. Nodes within a VC are homogeneous, so
  /// the ranking only re-labels which physical node the consolidating
  /// allocator fills first — failure-aware placement passes risk-ascending
  /// ranks (core/failure_predictor.h) so gangs consolidate on predicted-
  /// healthy nodes and predicted-bad ones idle. Empty (or a size mismatch
  /// with the VC's node count) = node-id order.
  std::vector<std::vector<std::int32_t>> node_order;
  /// Node/GPU draw for the energy accounting. Integer-valued watts keep the
  /// energy sums exact (order-independent; see bucket_integrator.h).
  core::PowerProfile power_profile;
  /// Per-job per-GPU draw override; unset = power_profile.gpu_watts for
  /// every job.
  GpuWattsFn gpu_watts_fn;
  /// Cluster power cap in watts; <= 0 disables budget-constrained admission.
  /// VCs are simulated independently, so the cap is enforced per VC as a
  /// capacity-proportional share (cap × VC GPUs / cluster GPUs): no VC ever
  /// exceeds its share, hence the cluster never exceeds the cap. With the
  /// cap set, every policy's placements are power-gated and backfill becomes
  /// power-proportional (kFifo under a cap is budget-constrained FIFO
  /// admission).
  double power_cap_watts = 0.0;
};

struct JobOutcome {
  std::size_t trace_index = 0;  ///< index into the input trace's jobs()
  UnixTime submit = 0;
  std::int64_t start = trace::kNeverStarted;  ///< first launch time
  std::int64_t end = trace::kNeverStarted;
  std::int32_t gpus = 0;
  std::int32_t kills = 0;  ///< times a node failure killed a run of this job
  int vc = -1;  ///< cluster-spec VC index
  bool rejected = false;  ///< demanded more GPUs than its VC will ever have

  [[nodiscard]] std::int64_t queue_delay() const noexcept {
    return start - submit;
  }
  [[nodiscard]] std::int64_t jct() const noexcept { return end - submit; }
};

struct VCStat {
  std::string name;
  int gpus = 0;
  std::int64_t jobs = 0;
  double avg_queue_delay = 0.0;
  double avg_jct = 0.0;
  /// Energy drawn by this VC's nodes and jobs inside the series window,
  /// in joules. VCs with no GPU jobs still bill their idle baseline, so the
  /// per-VC energies sum exactly to SimResult::energy_joules.
  double energy_joules = 0.0;
};

/// A member added here, to JobOutcome or to VCStat must also be listed in
/// detail::fields (below); until then the header does not compile.
struct SimResult {
  std::vector<JobOutcome> outcomes;  ///< GPU jobs, in input order
  double avg_jct = 0.0;
  double avg_queue_delay = 0.0;
  std::int64_t queued_jobs = 0;
  std::int64_t preemptions = 0;
  std::int64_t rejected_jobs = 0;
  /// Jobs that never finished inside the simulated horizon — still queued
  /// (start == kNeverStarted) or killed by a failure and never rescheduled.
  /// They count toward queued_jobs but are excluded from the JCT/delay
  /// averages (they have no completion time), so the averages are over
  /// finished jobs while nothing is silently dropped.
  std::int64_t unfinished_jobs = 0;
  std::int64_t job_kills = 0;      ///< job runs killed by node failures
  std::int64_t node_failures = 0;  ///< failure events applied
  std::vector<VCStat> vc_stats;          ///< by cluster-spec VC index
  forecast::TimeSeries busy_nodes;       ///< mean busy nodes per bucket
  forecast::TimeSeries busy_gpus;       ///< mean busy GPUs per bucket
  /// -- energy accounting (SimConfig::power_profile / gpu_watts_fn) --------
  /// Cumulative cluster energy over the series window, joules. Exact sum of
  /// watts × seconds terms in VC order (integer-valued with the default
  /// profile), clamped to [window begin, window end) like the series.
  double energy_joules = 0.0;
  /// Highest instantaneous cluster draw inside the window (== the max of
  /// peak_power_watts' buckets).
  double max_power_watts = 0.0;
  forecast::TimeSeries power_watts;       ///< mean cluster draw per bucket
  forecast::TimeSeries peak_power_watts;  ///< peak cluster draw per bucket
};

namespace detail {

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

/// The one field list: every member of `r` in declaration order, as a tuple
/// of references. Each list is a structured binding, which stops compiling
/// when its struct gains or loses a member.
template <typename R>
auto fields(R& r) {
  using T = std::remove_const_t<R>;
  if constexpr (std::is_same_v<T, JobOutcome>) {
    auto& [trace_index, submit, start, end, gpus, kills, vc, rejected] = r;
    return std::tie(trace_index, submit, start, end, gpus, kills, vc,
                    rejected);
  } else if constexpr (std::is_same_v<T, VCStat>) {
    auto& [name, gpus, jobs, avg_queue_delay, avg_jct, energy_joules] = r;
    return std::tie(name, gpus, jobs, avg_queue_delay, avg_jct,
                    energy_joules);
  } else {
    static_assert(std::is_same_v<T, SimResult>);
    auto& [outcomes, avg_jct, avg_queue_delay, queued_jobs, preemptions,
           rejected_jobs, unfinished_jobs, job_kills, node_failures, vc_stats,
           busy_nodes, busy_gpus, energy_joules, max_power_watts, power_watts,
           peak_power_watts] = r;
    return std::tie(outcomes, avg_jct, avg_queue_delay, queued_jobs,
                    preemptions, rejected_jobs, unfinished_jobs, job_kills,
                    node_failures, vc_stats, busy_nodes, busy_gpus,
                    energy_joules, max_power_watts, power_watts,
                    peak_power_watts);
  }
}

/// The paired walk behind both for_each_field forms.
template <typename F, typename A, typename B>
bool visit(F& f, A& a, B& b) {
  using T = std::remove_const_t<A>;
  if constexpr (kIsVector<T>) {
    const std::size_t n = a.size();
    const std::size_t m = b.size();
    if (!f(n, m) || n != m) return false;
    for (std::size_t i = 0; i < n; ++i) {
      if (!visit(f, a[i], b[i])) return false;
    }
    return true;
  } else if constexpr (std::is_same_v<T, SimResult> ||
                       std::is_same_v<T, JobOutcome> ||
                       std::is_same_v<T, VCStat>) {
    constexpr std::size_t kMembers = std::tuple_size_v<decltype(fields(a))>;
    return [&]<std::size_t... I>(auto fa, auto fb, std::index_sequence<I...>) {
      return (visit(f, std::get<I>(fa), std::get<I>(fb)) && ...);
    }(fields(a), fields(b), std::make_index_sequence<kMembers>{});
  } else {
    return f(a, b);
  }
}

}  // namespace detail

/// Visits the matching leaves of two results, `f(leaf_a, leaf_b)`, or every
/// leaf of one, `f(leaf)`, in declaration order, each JobOutcome's and
/// VCStat's members in place of their vector. A leaf is a number,
/// VCStat::name or a whole forecast::TimeSeries; a vector's size comes first,
/// as a `const std::size_t` leaf, so a mutable visit can write every leaf but
/// cannot resize. `f` returns bool: false stops the visit, which returns
/// false, as it does after two results' sizes differ. detail::fields is the
/// one list of these fields that equality, the golden digest and the parity
/// gates read: a new member does not compile until it is listed there.
template <typename F, typename R, typename... Other>
  requires std::is_same_v<std::remove_const_t<R>, SimResult> &&
           (sizeof...(Other) <= 1) && (std::is_same_v<Other, R> && ...)
bool for_each_field(F&& f, R& r, Other&... other) {
  if constexpr (sizeof...(Other) == 1) {
    return detail::visit(f, r, other...);
  } else {
    auto first = [&f](auto& leaf, auto&) { return f(leaf); };
    return detail::visit(first, r, r);
  }
}

/// Exact equality of two results: every leaf compares by bit pattern, so a
/// NaN (the energy of a run with a NaN per-GPU draw) equals itself and -0.0
/// differs from +0.0. Every parallel ≡ serial gate compares through this.
[[nodiscard]] bool results_identical(const SimResult& a,
                                     const SimResult& b) noexcept;

/// Trace-driven simulator over all VCs of a cluster. VCs are dedicated and
/// non-shared, so the event loop is sharded per VC (see vc_simulator.h) and
/// shards run concurrently under common::ExecMode::kParallel; outcomes,
/// counters, and busy series merge deterministically, bit-identical to
/// kSerial (results_identical).
class ClusterSimulator {
 public:
  ClusterSimulator(trace::ClusterSpec spec, SimConfig config);

  /// Simulate all GPU jobs of `t`, which must appear in non-decreasing
  /// submit order (Trace::sort_by_submit_time; CSV loaders keep row order);
  /// throws std::invalid_argument otherwise. The trace is not modified; use
  /// apply_schedule to write start times back.
  [[nodiscard]] SimResult run(const trace::Trace& t) const;

 private:
  trace::ClusterSpec spec_;
  SimConfig config_;
};

/// The window ClusterSimulator::run simulates and bills: [first GPU-job
/// submit, max over GPU jobs of submit + duration + 1), or [0, 1) when the
/// trace has no GPU job. Fault plans are drawn over the same window.
[[nodiscard]] std::pair<UnixTime, UnixTime> simulation_window(
    const trace::Trace& t);

/// Copy simulated start times back into the trace (GPU jobs only; CPU jobs
/// keep start == submit). Returns the number of jobs updated.
std::size_t apply_schedule(trace::Trace& t, const SimResult& result);

/// Convenience: operate a trace under FIFO (how the real trace's timing was
/// produced by Slurm) and write the schedule back.
SimResult operate_fifo(trace::Trace& t, std::int64_t series_step = 600);

}  // namespace helios::sim
