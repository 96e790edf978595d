// Declarative scenario grids and their expansion into sweep cells.
//
// A SweepGrid names the axes of a multi-cluster study — workloads (clusters ×
// seeds × scales), scheduler policies, backfill, fault plans — and expand()
// crosses them into a flat, deterministically ordered cell list. One cell
// (ScenarioSpec) fully determines one ClusterSimulator::run: the scenario
// engine (scenario_engine.h) materializes each distinct workload exactly once
// through sweep::TraceStore and runs the cells as a task graph; the cell's
// SimResult is bit-identical to a standalone run with the same spec, config,
// and trace (pinned by tests/test_sweep.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/power_model.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"
#include "sweep/trace_store.h"

namespace helios::sweep {

/// Declarative fault axis of a grid cell. Disabled (mtbf_days <= 0) means a
/// failure-free cluster; enabled specs expand into a deterministic
/// sim::FaultPlan over the trace's simulation window (ScenarioEngine::
/// make_fault_plan), so equal specs over equal traces replay identical
/// failures.
struct FaultSpec {
  std::string name = "none";  ///< display label for reports
  double mtbf_days = 0.0;     ///< <= 0 disables fault injection
  double flaky_fraction = 0.0;
  double flaky_multiplier = 8.0;
  std::int64_t mean_downtime = 4 * 3600;
  std::uint64_t seed = 1;
  sim::FaultRestart restart = sim::FaultRestart::kRestart;

  [[nodiscard]] bool enabled() const noexcept { return mtbf_days > 0.0; }
};

/// Declarative power axis of a grid cell: the node/GPU draw profile the
/// cell's energy accounting runs under plus an optional cluster power cap
/// (budget-constrained admission; sim/simulator.h). The default is the
/// uncapped default profile, so grids that never mention power behave — and
/// count cells — exactly as before.
struct PowerSpec {
  std::string name = "uncapped";  ///< display label for reports
  double cap_watts = 0.0;         ///< <= 0 disables budget-constrained admission
  core::PowerProfile profile;

  [[nodiscard]] bool capped() const noexcept { return cap_watts > 0.0; }
};

/// One workload of a sweep: a display name plus the TraceStore key that
/// materializes it.
struct WorkloadSpec {
  std::string name;
  TraceKey key;
};

/// One cell of the grid: workload × policy × backfill × fault × power.
struct ScenarioSpec {
  WorkloadSpec workload;
  sim::SchedulerPolicy policy = sim::SchedulerPolicy::kFifo;
  bool backfill = false;
  FaultSpec fault;
  PowerSpec power;

  /// "Venus/FIFO seed=42 scale=0.05 [+backfill] [faults=<name>]
  /// [power=<name>]".
  [[nodiscard]] std::string label() const;
};

/// The declarative grid. expand() crosses the axes in a fixed nesting order
/// (cluster, scale, seed, policy, backfill, fault, power — outermost first),
/// so the cell list, its indices, and therefore every preassigned result slot
/// are a pure function of the grid.
struct SweepGrid {
  /// Workload names resolvable by TraceKey::workload(): the four Helios
  /// cluster names, "Philly", "PAI".
  std::vector<std::string> clusters;
  std::vector<sim::SchedulerPolicy> policies{sim::SchedulerPolicy::kFifo};
  std::vector<bool> backfills{false};
  std::vector<double> scales{0.25};
  std::vector<std::uint64_t> seeds{42};
  std::vector<FaultSpec> faults{FaultSpec{}};
  std::vector<PowerSpec> powers{PowerSpec{}};
  /// Replay FIFO-operated traces instead of raw ones.
  bool operated = false;

  [[nodiscard]] std::vector<ScenarioSpec> expand() const;
  [[nodiscard]] std::size_t cell_count() const noexcept;
};

/// One finished cell. wall_ms is informational (scheduling-dependent); the
/// SimResult is the deterministic payload.
struct CellResult {
  ScenarioSpec spec;
  sim::SimResult result;
  double wall_ms = 0.0;
};

/// All cells of one engine run, in expand() order.
struct SweepResult {
  std::vector<CellResult> cells;
  double wall_ms = 0.0;              ///< whole-grid wall clock
  std::int64_t traces_used = 0;      ///< distinct workload keys this run
};

/// Consolidated cross-cluster comparison report: for each (scale, backfill,
/// fault, power) slice, one TextTable per metric (avg JCT, avg queue delay,
/// queued jobs, energy in kWh) with policies as rows and workloads as
/// columns; multi-seed cells aggregate as the median across seeds.
[[nodiscard]] std::string comparison_report(const SweepResult& sweep);

}  // namespace helios::sweep
