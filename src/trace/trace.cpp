#include "trace/trace.h"

#include <algorithm>
#include <charconv>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/csv.h"

namespace helios::trace {

namespace {

/// One whole numeric CSV field as a T: a numeric prefix ("12x"), an empty
/// field or a value T cannot hold throws std::runtime_error naming `column`.
template <typename T>
T parse_number(const std::string& field, const char* column) {
  T value{};
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    throw std::runtime_error(std::string("trace CSV: ") + column + " '" +
                             field + "' is not an integer in range");
  }
  return value;
}

}  // namespace

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
  const auto job_id = parse_number<std::uint64_t>(fields[0], "job_id");
  const auto submit = parse_number<UnixTime>(fields[1], "submit_time");
  const auto start = parse_number<std::int64_t>(fields[2], "start_time");
  auto& j = add(submit, parse_number<std::int32_t>(fields[3], "duration"),
                parse_number<std::int32_t>(fields[4], "num_gpus"),
                parse_number<std::int32_t>(fields[5], "num_cpus"), fields[6],
                fields[7], fields[8], job_state_from_string(fields[9]));
  j.job_id = job_id;
  j.start_time = start;
  return true;
}

void Trace::append(const Trace& other) {
  const auto user_map = users_.merge_from(other.users_);
  const auto vc_map = vcs_.merge_from(other.vcs_);
  const auto name_map = names_.merge_from(other.names_);
  // Grow geometrically, not to the exact size: a stream that appends one
  // small batch at a time (svc ingest) would otherwise copy every job it
  // holds on every call.
  const std::size_t need = jobs_.size() + other.jobs_.size();
  if (need > jobs_.capacity()) {
    jobs_.reserve(std::max(need, 2 * jobs_.capacity()));
  }
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
  // Rows go out in blocks, so the staging string stays small however long
  // the trace.
  constexpr std::size_t kBlockRows = 4096;
  const std::size_t end = std::min(jobs_.size(), first + count);
  std::string block;
  for (std::size_t lo = first; lo < end; lo += kBlockRows) {
    block.clear();
    save_csv_rows(block, lo, std::min(kBlockRows, end - lo));
    out << block;
  }
}

void Trace::save_csv_rows(std::string& out, std::size_t first,
                          std::size_t count) const {
  const std::size_t end = std::min(jobs_.size(), first + count);
  for (std::size_t i = first; i < end; ++i) {
    const JobRecord& j = jobs_[i];
    CsvWriter::append_integer(out, j.job_id);
    out += ',';
    CsvWriter::append_integer(out, j.submit_time);
    out += ',';
    CsvWriter::append_integer(out, j.start_time);
    out += ',';
    CsvWriter::append_integer(out, std::int64_t{j.duration});
    out += ',';
    CsvWriter::append_integer(out, std::int64_t{j.num_gpus});
    out += ',';
    CsvWriter::append_integer(out, std::int64_t{j.num_cpus});
    out += ',';
    CsvWriter::append_field(out, users_.str(j.user));
    out += ',';
    CsvWriter::append_field(out, vcs_.str(j.vc));
    out += ',';
    CsvWriter::append_field(out, names_.str(j.name));
    out += ',';
    CsvWriter::append_field(out, to_string(j.state));
    out += '\n';
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
