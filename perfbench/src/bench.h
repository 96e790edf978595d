// Shared scaffolding of the perfbench driver: run options, the in-memory span
// tracer, bit-exact output digests and the result report.
//
// Spans are recorded only from the benchmark's own code, around its calls
// into one library layer's public functions (layer = the src/ module name).
// A span's self time is its duration minus the time its child spans cover;
// summed per layer, self times add up to the root spans' wall time.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/ces_service.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Set-ups per untraced run; setup_s is their median.
inline constexpr int kSetupRounds = 5;

[[nodiscard]] double ms_since(Clock::time_point t0);

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   ///< scratch files (checkpoints, span dump)
};

/// FNV-1a-style hash over the object representation of the hashed values:
/// outputs that are not bit-identical digest differently (up to 2^-64).
class Digest {
 public:
  template <class T>
    requires std::is_arithmetic_v<T> || std::is_enum_v<T>
  Digest& add(T v) {
    unsigned char b[sizeof(T)];
    std::memcpy(b, &v, sizeof v);
    bytes(b, sizeof v);
    return *this;
  }
  Digest& add(std::string_view s);
  Digest& add(const std::vector<double>& v);
  void bytes(const void* data, std::size_t n);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

[[nodiscard]] std::string digest_of(const helios::sim::SimResult& r);
[[nodiscard]] std::string digest_of(const helios::core::CesResult& r);
[[nodiscard]] std::string digest_of(const helios::trace::Trace& t);

struct Span {
  std::string layer;
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
};

/// Single-threaded span recorder. Disabled, it records nothing and spans
/// only time their scope, so one code path serves the traced and the
/// untraced run.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, int index);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { stop(); }
    /// Close the span (idempotent); returns its duration in ms.
    double stop();

   private:
    Tracer* tracer_;
    int index_;
    Clock::time_point t0_;
    double ms_ = -1.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] Scope span(std::string_view layer, std::string_view name);

  /// Run fn inside a span; returns the span's duration in ms.
  template <class F>
  double time(std::string_view layer, std::string_view name, F&& fn) {
    Scope s = span(layer, name);
    fn();
    return s.stop();
  }

  /// Self time per layer, ms, over every recorded span.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;
  /// Summed duration of the root spans, ms.
  [[nodiscard]] double root_ms() const;
  /// Chrome trace-event JSON of every span (name, layer, start, end, parent).
  void write_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// What one run measured, checked and ran under. main() prints it as one
/// JSON line; run.py checks digests and formats the contract output.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::string moves;  ///< "<end-to-end metric>@<workload>" for layer metrics
  };

  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& moves = "");
  void digest(const std::string& name, const std::string& hex);
  /// Record a check; a false outcome counts as a failed operation.
  void check(bool ok, const std::string& what);

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> digests;
  std::map<std::string, std::string> context;
  std::vector<std::string> notes;

  [[nodiscard]] std::string json() const;
};

// -- small statistics helpers ------------------------------------------------
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1] (0 for no samples).
template <class T>
[[nodiscard]] double percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}
[[nodiscard]] double peak_rss_mb();
/// CPU seconds used so far, user + system: by every thread of the process,
/// or by the calling thread only.
[[nodiscard]] double cpu_seconds();
[[nodiscard]] double thread_cpu_seconds();
/// "a,b,c" with 4 significant digits, for the run context.
[[nodiscard]] std::string join(const std::vector<double>& v);

/// Workload entry points. Untraced runs measure the workload's end-to-end
/// metrics for opts.seconds; traced runs fill the per-layer metrics.
void run_sweep(const Options& opts, Tracer& tracer, Report& report);
void run_pipeline(const Options& opts, Tracer& tracer, Report& report);
void run_serve(const Options& opts, Tracer& tracer, Report& report);

}  // namespace perfbench
