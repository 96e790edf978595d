#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// -- digests -------------------------------------------------------------------

Digest& Digest::add(std::string_view s) {
  add(s.size());
  bytes(s.data(), s.size());
  return *this;
}

Digest& Digest::add(const std::vector<double>& v) {
  add(v.size());
  bytes(v.data(), v.size() * sizeof(double));
  return *this;
}

void Digest::bytes(const void* data, std::size_t n) {
  // FNV-1a step over 8-byte words (then the tail bytes): the same identity
  // check as byte-wise FNV at a fraction of the cost on multi-MB results.
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, 8);
    h_ ^= w;
    h_ *= 1099511628211ull;
  }
  for (; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

namespace {

void add_series(Digest& d, const helios::forecast::TimeSeries& s) {
  d.add(s.begin).add(s.step).add(s.values);
}

}  // namespace

std::string digest_of(const helios::sim::SimResult& r) {
  Digest d;
  d.add(r.outcomes.size());
  for (const auto& o : r.outcomes) {
    d.add(o.trace_index).add(o.submit).add(o.start).add(o.end).add(o.gpus)
        .add(o.kills).add(o.vc).add(o.rejected);
  }
  d.add(r.avg_jct).add(r.avg_queue_delay).add(r.queued_jobs).add(r.preemptions)
      .add(r.rejected_jobs).add(r.unfinished_jobs).add(r.job_kills)
      .add(r.node_failures);
  d.add(r.vc_stats.size());
  for (const auto& v : r.vc_stats) {
    d.add(v.name).add(v.gpus).add(v.jobs).add(v.avg_queue_delay).add(v.avg_jct)
        .add(v.energy_joules);
  }
  add_series(d, r.busy_nodes);
  add_series(d, r.busy_gpus);
  d.add(r.energy_joules).add(r.max_power_watts);
  add_series(d, r.power_watts);
  add_series(d, r.peak_power_watts);
  return d.hex();
}

std::string digest_of(const helios::core::CesResult& r) {
  Digest d;
  add_series(d, r.running_nodes);
  add_series(d, r.active_nodes);
  add_series(d, r.predicted_nodes);
  d.add(r.total_nodes).add(r.avg_drs_nodes).add(r.daily_wakeups)
      .add(r.avg_woken_per_wakeup).add(r.wakeup_events).add(r.woken_nodes)
      .add(r.node_util_original).add(r.node_util_ces).add(r.affected_jobs)
      .add(r.total_jobs).add(r.saved_kwh).add(r.annualized_kwh)
      .add(r.forecast_smape);
  return d.hex();
}

std::string digest_of(const helios::trace::Trace& t) {
  Digest d;
  d.add(t.size());
  for (const auto& j : t.jobs()) {
    d.add(j.job_id).add(j.submit_time).add(j.start_time).add(j.duration)
        .add(j.num_gpus).add(j.num_cpus).add(j.state);
    d.add(t.user_name(j)).add(t.vc_name(j)).add(t.job_name(j));
  }
  return d.hex();
}

// -- tracer --------------------------------------------------------------------

Tracer::Scope::Scope(Tracer* tracer, int index)
    : tracer_(tracer), index_(index), t0_(Clock::now()) {}

double Tracer::Scope::stop() {
  if (ms_ >= 0.0) return ms_;
  const auto now = Clock::now();
  ms_ = std::chrono::duration<double, std::milli>(now - t0_).count();
  if (index_ >= 0) {
    Span& s = tracer_->spans_[static_cast<std::size_t>(index_)];
    s.end_ms =
        std::chrono::duration<double, std::milli>(now - tracer_->origin_).count();
    tracer_->open_.pop_back();
  }
  return ms_;
}

Tracer::Scope Tracer::span(std::string_view layer, std::string_view name) {
  if (!enabled_) return Scope(this, -1);
  Span s;
  s.layer = layer;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ms = ms_since(origin_);
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return Scope(this, index);
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0)
      child_ms[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].layer] += spans_[i].end_ms - spans_[i].start_ms - child_ms[i];
  }
  return self;
}

double Tracer::root_ms() const {
  double total = 0.0;
  for (const Span& s : spans_)
    if (s.parent < 0) total += s.end_ms - s.start_ms;
  return total;
}

namespace {

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"name\": " << json_string(s.name)
        << ", \"cat\": " << json_string(s.layer)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << json_number(s.start_ms * 1000.0)
        << ", \"dur\": " << json_number((s.end_ms - s.start_ms) * 1000.0)
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

// -- report --------------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit, const std::string& moves) {
  metrics[name] = Metric{value, unit, moves};
}

void Report::digest(const std::string& name, const std::string& hex) {
  digests[name] = hex;
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (notes.size() < 32) notes.push_back("check failed: " + what);
  }
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out << (first ? "" : ", ") << json_string(name)
        << ": {\"value\": " << json_number(m.value)
        << ", \"unit\": " << json_string(m.unit);
    if (!m.moves.empty()) out << ", \"moves\": " << json_string(m.moves);
    out << "}";
    first = false;
  }
  out << "}, \"digests\": {";
  first = true;
  for (const auto& [name, hex] : digests) {
    out << (first ? "" : ", ") << json_string(name) << ": " << json_string(hex);
    first = false;
  }
  out << "}, \"context\": {";
  first = true;
  for (const auto& [key, value] : context) {
    out << (first ? "" : ", ") << json_string(key) << ": " << json_string(value);
    first = false;
  }
  out << "}, \"notes\": [";
  for (std::size_t i = 0; i < notes.size(); ++i)
    out << (i ? ", " : "") << json_string(notes[i]);
  out << "]}";
  return out.str();
}

// -- statistics ----------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

std::string join(const std::vector<double>& v) {
  std::string out;
  for (const double x : v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.4g", out.empty() ? "" : ",", x);
    out += buf;
  }
  return out;
}

namespace {

double cpu_seconds_of(int who) {
  rusage usage{};
  getrusage(who, &usage);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

}  // namespace

double cpu_seconds() { return cpu_seconds_of(RUSAGE_SELF); }
double thread_cpu_seconds() { return cpu_seconds_of(RUSAGE_THREAD); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
