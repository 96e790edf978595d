// Deterministic task-graph driver for multi-cluster scenario sweeps.
//
// ScenarioEngine::run expands a SweepGrid (or takes a prepared cell list) and
// executes it in two graph levels on the shared ThreadPool:
//
//   level 0 — trace materialization: the distinct TraceKeys behind the cells
//             become one task each; sweep::TraceStore guarantees every key is
//             generated exactly once and shared immutably (shared_ptr<const
//             Trace>) across all cells that replay it.
//   level 1 — cells: each cell runs ClusterSimulator::run over its shared
//             trace into a preassigned result slot. Cells fan out through
//             parallel_run_tasks and each cell's simulator shards per VC
//             through the same primitive, giving two-level (cell × VC)
//             sharding.
//
// Nesting: level-0 tasks generate traces with their own parallel_for, and
// level-1 tasks shard again per VC. Every pool driver lets its caller drain
// its own items (common/thread_pool.h), so neither nesting can deadlock the
// pool, however many keys or cells share it.
//
// Determinism: common::ExecMode::kParallel and kSerial produce bit-identical
// SweepResults — cell slots are preassigned in expand() order, each cell's
// SimResult is independent of scheduling (the simulator's own parallel ≡
// serial contract), priority functions and fault plans are built serially in
// cell order before the fan-out. kSerial additionally threads kSerial into
// every cell's SimConfig, so a serial engine run is the literal
// one-cluster-at-a-time reference loop. tests/test_sweep.cpp pins cell ≡
// standalone-run bit-parity and engine parallel ≡ serial across the grid.
#pragma once

#include <functional>

#include "common/exec_mode.h"
#include "sweep/scenario.h"
#include "sweep/trace_store.h"

namespace helios::sweep {

/// Supplies the sim::PriorityFn for a kQssf or kEnergyQssf cell (e.g. a
/// trained
/// core::OnlinePriorityEvaluator's as_priority_fn()). Called serially in cell
/// order before the fan-out; the returned function is invoked concurrently
/// from VC shards and cells, so it must be thread-safe.
using PriorityProvider =
    std::function<sim::PriorityFn(const ScenarioSpec&, const trace::Trace&)>;

/// A deterministic stand-in predictor for grids that include kQssf without a
/// trained model: priority = duration × GPUs (the job's true GPU time, i.e.
/// a perfect oracle — useful as a QSSF upper bound and in parity tests).
[[nodiscard]] PriorityProvider oracle_gpu_time_provider();

struct EngineConfig {
  common::ExecMode execution = common::ExecMode::kParallel;
  /// Resolution of each cell's busy-nodes/GPUs series.
  std::int64_t series_step = 600;
  /// Required when the grid contains kQssf or kEnergyQssf cells (kEnergyQssf
  /// weights the provided GPU-time prediction by the job's per-GPU draw).
  PriorityProvider priority_provider;
};

class ScenarioEngine {
 public:
  explicit ScenarioEngine(TraceStore& store, EngineConfig config = {});

  [[nodiscard]] SweepResult run(const SweepGrid& grid) const;
  [[nodiscard]] SweepResult run(const std::vector<ScenarioSpec>& cells) const;

  /// The SimConfig a cell runs under, minus the fault-plan pointer (whose
  /// storage the engine owns during run()). Tests reproduce a cell standalone
  /// as ClusterSimulator(trace.cluster(), cell_config(...)).run(trace) with a
  /// make_fault_plan() plan attached when spec.fault.enabled().
  [[nodiscard]] sim::SimConfig cell_config(const ScenarioSpec& spec,
                                           const trace::Trace& t) const;

  /// The deterministic fault plan of a cell: FaultSpec knobs over the trace's
  /// simulation window (first GPU-job submit to last possible completion).
  /// Equal (spec, trace) pairs yield equal plans.
  [[nodiscard]] static sim::FaultPlan make_fault_plan(const FaultSpec& fault,
                                                      const trace::Trace& t);

  [[nodiscard]] TraceStore& store() const noexcept { return store_; }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

 private:
  TraceStore& store_;
  EngineConfig config_;
};

}  // namespace helios::sweep
