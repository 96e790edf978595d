// Trace container: jobs + interned string tables + the cluster they ran on.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "trace/cluster_config.h"
#include "trace/job.h"

namespace helios::trace {

class Trace {
 public:
  Trace() = default;
  explicit Trace(ClusterSpec cluster) : cluster_(std::move(cluster)) {}

  /// -- construction ---------------------------------------------------------

  /// Append a job whose string fields are already interned ids.
  void add(const JobRecord& job) { jobs_.push_back(job); }

  /// Append a job given string fields; interns them.
  JobRecord& add(UnixTime submit, std::int32_t duration, std::int32_t gpus,
                 std::int32_t cpus, std::string_view user, std::string_view vc,
                 std::string_view name, JobState state);

  /// Parse one CSV data line (the load_csv schema, sans header) and append
  /// it. Returns false (without appending) for blank lines — empty or a lone
  /// '\r' from CRLF input. Throws std::runtime_error on a malformed row.
  bool append_csv_row(std::string_view line);

  /// Append all of `other`'s jobs, re-interning their user/vc/name ids into
  /// this trace's tables. Job order and all other fields are preserved; the
  /// cluster spec of `other` is ignored. This is the shard-merge primitive of
  /// trace::ParallelLoader and the batch step of svc ingest. Job storage
  /// grows geometrically, so each call costs amortized O(other.size()).
  void append(const Trace& other);

  /// Stable-sort jobs by submission time (scheduler replay order).
  void sort_by_submit_time();

  /// -- access ---------------------------------------------------------------

  [[nodiscard]] const std::vector<JobRecord>& jobs() const noexcept { return jobs_; }
  [[nodiscard]] std::vector<JobRecord>& jobs() noexcept { return jobs_; }
  [[nodiscard]] std::size_t size() const noexcept { return jobs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return jobs_.empty(); }

  [[nodiscard]] const ClusterSpec& cluster() const noexcept { return cluster_; }
  [[nodiscard]] ClusterSpec& cluster() noexcept { return cluster_; }

  [[nodiscard]] const StringInterner& users() const noexcept { return users_; }
  [[nodiscard]] const StringInterner& vcs() const noexcept { return vcs_; }
  [[nodiscard]] const StringInterner& names() const noexcept { return names_; }
  [[nodiscard]] StringInterner& users() noexcept { return users_; }
  [[nodiscard]] StringInterner& vcs() noexcept { return vcs_; }
  [[nodiscard]] StringInterner& names() noexcept { return names_; }

  [[nodiscard]] const std::string& user_name(const JobRecord& j) const noexcept {
    return users_.str(j.user);
  }
  [[nodiscard]] const std::string& vc_name(const JobRecord& j) const noexcept {
    return vcs_.str(j.vc);
  }
  [[nodiscard]] const std::string& job_name(const JobRecord& j) const noexcept {
    return names_.str(j.name);
  }

  /// -- filtering ------------------------------------------------------------

  /// New trace (sharing no storage) with the jobs satisfying `pred`.
  /// Interners are copied wholesale so ids remain valid.
  [[nodiscard]] Trace filter(const std::function<bool(const JobRecord&)>& pred) const;

  /// Jobs whose submit time falls in [begin, end).
  [[nodiscard]] Trace between(UnixTime begin, UnixTime end) const;

  /// True when both traces hold the same job records and identical interner
  /// tables (ids included) — i.e. their save_csv output is byte-identical.
  /// Cluster specs are not compared.
  [[nodiscard]] bool contents_equal(const Trace& other) const noexcept;

  /// -- CSV round trip -------------------------------------------------------

  /// Schema: job_id,submit_time,start_time,duration,num_gpus,num_cpus,user,
  ///         vc,name,state  (header row included).
  void save_csv(std::ostream& out) const;
  static Trace load_csv(std::istream& in, ClusterSpec cluster);

  /// Write jobs [first, first+count) as data rows only — no header. This is
  /// the append side of a growing stream file (svc::CsvTailer consumes it)
  /// and the lossless row embedding of service checkpoints: every field is
  /// an integer or a verbatim interned string, so append_csv_row() on the
  /// output reconstructs bit-identical records (and, fed in order into a
  /// trace with the same prior interner state, identical ids).
  void save_csv_rows(std::ostream& out, std::size_t first,
                     std::size_t count) const;
  /// The same rows appended to `out`, formatted in place (no per-row
  /// temporaries): the bytes the stream overload writes.
  void save_csv_rows(std::string& out, std::size_t first,
                     std::size_t count) const;

 private:
  ClusterSpec cluster_;
  std::vector<JobRecord> jobs_;
  StringInterner users_;
  StringInterner vcs_;
  StringInterner names_;
};

}  // namespace helios::trace
