// Job records: the schema shared by the whole library.
//
// Mirrors the fields the paper collects via `sacct` (§2.3): submission time,
// resources, user, VC, job name, final status, and the timing information
// either recorded by Slurm or (here) assigned by operating the trace under a
// scheduler. Strings are interned at the Trace level so a record stays small
// enough for multi-million-job traces.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/civil_time.h"

namespace helios::trace {

/// Final status of a job (§2.3.1). The paper folds the rare `timeout` and
/// `node fail` statuses into `failed`; we do the same.
enum class JobState : std::uint8_t {
  kCompleted = 0,
  kCanceled = 1,
  kFailed = 2,
};

[[nodiscard]] std::string_view to_string(JobState s) noexcept;
/// Parses a state, ignoring case: "completed"; "canceled" or "cancelled";
/// "failed", or one of the statuses the paper folds into it: "timeout",
/// "node_fail", "out_of_memory". Anything else throws std::runtime_error
/// naming the trace CSV's `state` column.
[[nodiscard]] JobState job_state_from_string(std::string_view s);

inline constexpr std::int64_t kNeverStarted = -1;

/// One job. `user`, `vc` and `name` are ids into the owning Trace's interners.
struct JobRecord {
  std::uint64_t job_id = 0;
  UnixTime submit_time = 0;
  /// Time the scheduler launched the job, or kNeverStarted. Synthetic traces
  /// default it to submit_time; operating the trace under src/sim overwrites
  /// it with the simulated schedule.
  std::int64_t start_time = kNeverStarted;
  /// Actual execution seconds (excludes queuing). Zero-duration jobs are
  /// legal (instantly failing submissions).
  std::int32_t duration = 0;
  std::int32_t num_gpus = 0;
  std::int32_t num_cpus = 0;
  std::uint32_t user = 0;
  std::uint32_t vc = 0;
  std::uint32_t name = 0;
  JobState state = JobState::kCompleted;

  [[nodiscard]] bool is_gpu_job() const noexcept { return num_gpus > 0; }
  [[nodiscard]] bool is_cpu_job() const noexcept { return num_gpus == 0; }
  [[nodiscard]] bool started() const noexcept { return start_time != kNeverStarted; }

  /// GPU time (§2.3.1): execution time x number of GPUs.
  [[nodiscard]] double gpu_time() const noexcept {
    return static_cast<double>(duration) * num_gpus;
  }
  /// CPU time: execution time x number of CPUs.
  [[nodiscard]] double cpu_time() const noexcept {
    return static_cast<double>(duration) * num_cpus;
  }
  [[nodiscard]] std::int64_t end_time() const noexcept {
    return started() ? start_time + duration : kNeverStarted;
  }
  /// Queuing delay under the recorded schedule; 0 when never started.
  [[nodiscard]] std::int64_t queue_delay() const noexcept {
    return started() ? start_time - submit_time : 0;
  }
  /// Job completion time = queuing + execution.
  [[nodiscard]] std::int64_t jct() const noexcept {
    return started() ? end_time() - submit_time : 0;
  }

  [[nodiscard]] friend bool operator==(const JobRecord&,
                                       const JobRecord&) = default;
};

}  // namespace helios::trace
