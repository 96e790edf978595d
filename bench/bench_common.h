// Shared helpers for the reproduction harnesses.
//
// Every bench binary regenerates one table or figure from the paper. They
// share: the workload scale knob (HELIOS_SCALE / HELIOS_SEED), a process-wide
// sweep::TraceStore so all binaries and library code draw traces from one
// generate-once cache, and uniform experiment headers so the combined bench
// output reads like the paper's evaluation section.
//
// The study runners themselves live in the library (sweep/studies.h) and run
// on the scenario engine; this header re-exports them under helios::bench so
// the fig/table binaries stay thin callers.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sweep/studies.h"
#include "sweep/trace_store.h"
#include "trace/trace.h"

namespace helios::bench {

using TracePtr = sweep::TraceStore::TracePtr;

/// Workload scale for this process (HELIOS_SCALE, default 0.25).
[[nodiscard]] double scale();

/// RNG seed for this process (HELIOS_SEED, default 42).
[[nodiscard]] std::uint64_t seed();

/// The process-wide trace cache. Bench wrappers below and any direct
/// TraceKey lookups share this one store, so each (workload, seed, scale)
/// trace is materialized at most once per process.
[[nodiscard]] sweep::TraceStore& trace_store();

/// The four Helios traces at scale()/seed(), shared immutably out of
/// trace_store() (generated on first use).
[[nodiscard]] const std::vector<TracePtr>& helios_traces();

/// The Philly trace, shared out of trace_store().
[[nodiscard]] const trace::Trace& philly_trace();

/// The Helios traces *operated under FIFO* (start times assigned by the
/// simulator, as Slurm did for the real trace).
[[nodiscard]] const std::vector<TracePtr>& operated_helios_traces();
[[nodiscard]] const trace::Trace& operated_philly_trace();

/// Prints the standard experiment banner:
///   experiment id, paper reference, scale/seed, free-form notes.
/// `workload_scale` is the scale the binary's traces replay at; binaries
/// with their own scale knob (e.g. HELIOS_POWER_SCALE) pass it.
void print_header(const std::string& experiment, const std::string& title,
                  const std::string& notes = "",
                  double workload_scale = scale());

/// Prints a "paper reports vs. we measure" comparison line.
void print_expectation(const std::string& what, const std::string& paper,
                       const std::string& measured);

/// Study runners (sweep/studies.h), re-exported for the harnesses.
using sweep::CesStudy;
using sweep::SchedulerStudy;
using sweep::jct_values;
using sweep::run_ces_study;
using sweep::run_scheduler_study;

}  // namespace helios::bench
