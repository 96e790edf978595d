#include "bench_common.h"

#include <cstdio>

#include "common/env.h"

namespace helios::bench {

double scale() {
  static const double s = env_double("HELIOS_SCALE", 0.25);
  return s;
}

std::uint64_t seed() {
  static const auto s = static_cast<std::uint64_t>(env_int("HELIOS_SEED", 42));
  return s;
}

sweep::TraceStore& trace_store() {
  static sweep::TraceStore store;
  return store;
}

namespace {

const char* const kHeliosNames[] = {"Venus", "Earth", "Saturn", "Uranus"};

std::vector<TracePtr> fetch_helios(bool operated) {
  std::vector<TracePtr> traces;
  traces.reserve(std::size(kHeliosNames));
  for (const char* name : kHeliosNames) {
    traces.push_back(trace_store().get(
        sweep::TraceKey::workload(name, seed(), scale(), operated)));
  }
  return traces;
}

}  // namespace

const std::vector<TracePtr>& helios_traces() {
  static const std::vector<TracePtr> traces = fetch_helios(/*operated=*/false);
  return traces;
}

const trace::Trace& philly_trace() {
  static const TracePtr t = trace_store().get(
      sweep::TraceKey::workload("Philly", seed(), scale()));
  return *t;
}

const std::vector<TracePtr>& operated_helios_traces() {
  static const std::vector<TracePtr> traces = fetch_helios(/*operated=*/true);
  return traces;
}

const trace::Trace& operated_philly_trace() {
  static const TracePtr t = trace_store().get(sweep::TraceKey::workload(
      "Philly", seed(), scale(), /*operated=*/true));
  return *t;
}

void print_header(const std::string& experiment, const std::string& title,
                  const std::string& notes, double workload_scale) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", experiment.c_str(), title.c_str());
  std::printf("synthetic Helios workload, scale=%.3g seed=%llu\n", workload_scale,
              static_cast<unsigned long long>(seed()));
  if (!notes.empty()) std::printf("%s\n", notes.c_str());
  std::printf("================================================================\n");
}

void print_expectation(const std::string& what, const std::string& paper,
                       const std::string& measured) {
  std::printf("  %-44s paper: %-18s measured: %s\n", what.c_str(), paper.c_str(),
              measured.c_str());
}

}  // namespace helios::bench
