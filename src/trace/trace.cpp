#include "trace/trace.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/csv.h"

namespace helios::trace {

JobRecord& Trace::add(UnixTime submit, std::int32_t duration, std::int32_t gpus,
                      std::int32_t cpus, std::string_view user,
                      std::string_view vc, std::string_view name,
                      JobState state) {
  JobRecord j;
  j.job_id = jobs_.size();
  j.submit_time = submit;
  j.start_time = submit;
  j.duration = duration;
  j.num_gpus = gpus;
  j.num_cpus = cpus;
  j.user = users_.intern(user);
  j.vc = vcs_.intern(vc);
  j.name = names_.intern(name);
  j.state = state;
  jobs_.push_back(j);
  return jobs_.back();
}

bool Trace::append_csv_row(std::string_view line) {
  if (CsvReader::is_blank_line(line)) return false;
  const auto fields = CsvReader::parse_line(line);
  if (fields.size() != 10) {
    throw std::runtime_error("trace CSV: expected 10 fields, got " +
                             std::to_string(fields.size()));
  }
  auto& j = add(std::stoll(fields[1]),
                static_cast<std::int32_t>(std::stol(fields[3])),
                static_cast<std::int32_t>(std::stol(fields[4])),
                static_cast<std::int32_t>(std::stol(fields[5])), fields[6],
                fields[7], fields[8], job_state_from_string(fields[9]));
  j.job_id = static_cast<std::uint64_t>(std::stoull(fields[0]));
  j.start_time = std::stoll(fields[2]);
  return true;
}

void Trace::append(const Trace& other) {
  const auto user_map = users_.merge_from(other.users_);
  const auto vc_map = vcs_.merge_from(other.vcs_);
  const auto name_map = names_.merge_from(other.names_);
  jobs_.reserve(jobs_.size() + other.jobs_.size());
  for (JobRecord j : other.jobs_) {
    j.user = user_map[j.user];
    j.vc = vc_map[j.vc];
    j.name = name_map[j.name];
    jobs_.push_back(j);
  }
}

bool Trace::contents_equal(const Trace& other) const noexcept {
  return jobs_ == other.jobs_ && users_ == other.users_ &&
         vcs_ == other.vcs_ && names_ == other.names_;
}

void Trace::sort_by_submit_time() {
  std::stable_sort(jobs_.begin(), jobs_.end(),
                   [](const JobRecord& a, const JobRecord& b) {
                     return a.submit_time < b.submit_time;
                   });
}

Trace Trace::filter(const std::function<bool(const JobRecord&)>& pred) const {
  Trace out(cluster_);
  out.users_ = users_;
  out.vcs_ = vcs_;
  out.names_ = names_;
  for (const auto& j : jobs_) {
    if (pred(j)) out.jobs_.push_back(j);
  }
  return out;
}

Trace Trace::between(UnixTime begin, UnixTime end) const {
  return filter([begin, end](const JobRecord& j) {
    return j.submit_time >= begin && j.submit_time < end;
  });
}

void Trace::save_csv(std::ostream& out) const {
  CsvWriter w(out);
  w.write_row({"job_id", "submit_time", "start_time", "duration", "num_gpus",
               "num_cpus", "user", "vc", "name", "state"});
  save_csv_rows(out, 0, jobs_.size());
}

void Trace::save_csv_rows(std::ostream& out, std::size_t first,
                          std::size_t count) const {
  CsvWriter w(out);
  const std::size_t end = std::min(jobs_.size(), first + count);
  for (std::size_t i = first; i < end; ++i) {
    const JobRecord& j = jobs_[i];
    w.write_row({CsvWriter::field(static_cast<std::int64_t>(j.job_id)),
                 CsvWriter::field(j.submit_time), CsvWriter::field(j.start_time),
                 CsvWriter::field(static_cast<std::int64_t>(j.duration)),
                 CsvWriter::field(static_cast<std::int64_t>(j.num_gpus)),
                 CsvWriter::field(static_cast<std::int64_t>(j.num_cpus)),
                 users_.str(j.user), vcs_.str(j.vc), names_.str(j.name),
                 std::string(to_string(j.state))});
  }
}

Trace Trace::load_csv(std::istream& in, ClusterSpec cluster) {
  Trace t(std::move(cluster));
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (CsvReader::is_blank_line(line)) continue;
    if (header) {  // skip schema row
      header = false;
      continue;
    }
    t.append_csv_row(line);
  }
  return t;
}

}  // namespace helios::trace
