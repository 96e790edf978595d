// Energy-aware scheduling: the energy-vs-JCT tradeoff under cluster power
// caps. A power grid (policy x cap level) runs Venus through the scenario
// engine twice (parallel vs serial — the parity gate now covers the energy
// counters and power series), then reports modeled energy, peak power, and
// JCT side by side. The paper characterizes Helios workloads without an
// energy model; this ablation quantifies what budget-constrained admission
// (FIFO under a cap) and energy-weighted QSSF (EQSSF) trade away in JCT for
// the in-window joules they save.
//
// Gates: capped FIFO admission must strictly reduce modeled energy vs
// uncapped FIFO, and the parallel power-grid sweep must be bit-identical to
// the serial loop. When HELIOS_POWER_OUT is set the tradeoff table is written
// there as JSON (ci.sh bench points it at build/BENCH_power.json).
//
// Knobs: HELIOS_POWER_SCALE (default HELIOS_SCALE, default 0.25),
// HELIOS_POWER_OUT (JSON path).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/env.h"
#include "common/text_table.h"
#include "sweep/scenario_engine.h"
#include "trace/synthetic.h"

using namespace helios;

namespace {

int fail(const char* what) {
  std::fprintf(stderr, "POWER FAIL: %s\n", what);
  return EXIT_FAILURE;
}

}  // namespace

int main() {
  const double scale = env_double("HELIOS_POWER_SCALE", bench::scale());
  const std::string out_path = env_string("HELIOS_POWER_OUT", "");

  // Cap levels are anchored to the hardware, not to a measured run: the
  // cluster's idle baseline plus a fraction of every GPU at full draw. 30%
  // bites hard at Venus utilization, 60% is a mild trim. The trace is
  // materialized up front because the cells replay the *scaled* cluster —
  // caps derived from the full-size spec would never bind at bench scale.
  sweep::TraceStore store;
  const auto venus_trace =
      store.get(sweep::TraceKey::workload("Venus", bench::seed(), scale));
  const trace::ClusterSpec& cluster = venus_trace->cluster();
  std::int64_t nodes = 0;
  std::int64_t gpus = 0;
  for (const auto& vc : cluster.vcs) {
    nodes += vc.nodes;
    gpus += static_cast<std::int64_t>(vc.nodes) * vc.gpus_per_node;
  }
  const core::PowerProfile profile;
  const double idle_w = profile.idle_node_watts * static_cast<double>(nodes);
  const double full_gpu_w = profile.gpu_watts * static_cast<double>(gpus);
  auto cap_spec = [&](const std::string& name, double frac) {
    sweep::PowerSpec p;
    p.name = name;
    p.cap_watts = idle_w + full_gpu_w * frac;
    return p;
  };

  sweep::SweepGrid grid;
  grid.clusters = {"Venus"};
  grid.policies = {sim::SchedulerPolicy::kFifo,
                   sim::SchedulerPolicy::kEnergyQssf};
  grid.backfills = {true};
  grid.scales = {scale};
  grid.seeds = {bench::seed()};
  grid.powers = {sweep::PowerSpec{}, cap_spec("cap60", 0.6),
                 cap_spec("cap30", 0.3)};
  const auto cells = grid.expand();

  bench::print_header(
      "Ablation: energy-aware scheduling", "energy vs JCT under power caps",
      std::to_string(grid.policies.size()) + " policies x " +
          std::to_string(grid.powers.size()) + " cap levels = " +
          std::to_string(cells.size()) + " cells, Venus",
      scale);

  sweep::EngineConfig cfg;
  cfg.priority_provider = sweep::oracle_gpu_time_provider();

  cfg.execution = common::ExecMode::kParallel;
  const sweep::SweepResult par = sweep::ScenarioEngine(store, cfg).run(cells);

  sweep::TraceStore ser_store;
  cfg.execution = common::ExecMode::kSerial;
  const sweep::SweepResult ser =
      sweep::ScenarioEngine(ser_store, cfg).run(cells);

  // Gate: the parity contract holds over the power grid — results_identical
  // compares the energy counters and both power series bit-for-bit.
  if (par.cells.size() != cells.size() || ser.cells.size() != cells.size())
    return fail("cell count mismatch");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!sim::results_identical(par.cells[i].result, ser.cells[i].result)) {
      std::fprintf(stderr, "  cell %zu: %s\n", i,
                   par.cells[i].spec.label().c_str());
      return fail("parallel != serial for a power-grid cell");
    }
  }
  std::printf("parity OK: %zu power cells bit-identical parallel vs serial\n\n",
              cells.size());

  // Tradeoff table, one row per (policy, cap) cell.
  TextTable table({"policy", "cap", "cap (kW)", "energy (kWh)", "peak (kW)",
                   "avg JCT (h)", "avg queue delay (h)", "unfinished"});
  for (const auto& cell : par.cells) {
    const sim::SimResult& r = cell.result;
    const sweep::PowerSpec& p = cell.spec.power;
    table.add_row(
        {std::string(sim::to_string(cell.spec.policy)), p.name,
         p.capped() ? TextTable::cell(p.cap_watts / 1000.0, 0) : "-",
         TextTable::cell(r.energy_joules / 3.6e6, 1),
         TextTable::cell(r.max_power_watts / 1000.0, 0),
         TextTable::cell(r.avg_jct / 3600.0, 2),
         TextTable::cell(r.avg_queue_delay / 3600.0, 2),
         std::to_string(r.unfinished_jobs)});
  }
  std::printf("%s\n", table.str().c_str());

  auto find = [&](sim::SchedulerPolicy policy,
                  const std::string& power) -> const sim::SimResult& {
    for (const auto& cell : par.cells)
      if (cell.spec.policy == policy && cell.spec.power.name == power)
        return cell.result;
    std::fprintf(stderr, "POWER FAIL: missing cell %s/%s\n",
                 std::string(sim::to_string(policy)).c_str(), power.c_str());
    std::exit(EXIT_FAILURE);
  };
  const sim::SimResult& fifo = find(sim::SchedulerPolicy::kFifo, "uncapped");
  const sim::SimResult& capped = find(sim::SchedulerPolicy::kFifo, "cap30");

  bench::print_expectation(
      "capped admission saves in-window energy",
      "FIFO@cap30 energy < uncapped FIFO",
      TextTable::cell(capped.energy_joules / 3.6e6, 1) + " kWh vs " +
          TextTable::cell(fifo.energy_joules / 3.6e6, 1) + " kWh");
  bench::print_expectation(
      "the saving is paid in JCT", "FIFO@cap30 avg JCT > uncapped FIFO",
      TextTable::cell(capped.avg_jct / 3600.0, 2) + "h vs " +
          TextTable::cell(fifo.avg_jct / 3600.0, 2) + "h");

  // Gate: a binding cap must strictly reduce modeled in-window energy
  // relative to uncapped FIFO (deferred work falls past the window edge).
  if (!(capped.energy_joules < fifo.energy_joules))
    return fail("FIFO@cap30 energy not below uncapped FIFO");
  // And the cap must actually clamp the observed peak. The enforceable
  // cluster bound is the sum of per-VC max(idle baseline, cap share): a VC
  // whose baseline already exceeds its capacity-proportional share can never
  // place work but still draws its baseline.
  const double cap30 = cap_spec("cap30", 0.3).cap_watts;
  double bound = 0.0;
  for (const auto& vc : cluster.vcs) {
    const double vc_gpus =
        static_cast<double>(vc.nodes) * static_cast<double>(vc.gpus_per_node);
    const double share = cap30 * vc_gpus / static_cast<double>(gpus);
    const double baseline = profile.idle_node_watts * vc.nodes;
    bound += std::max(share, baseline);
  }
  if (!(capped.max_power_watts <= bound + 1e-6)) {
    std::fprintf(stderr, "  peak %.0f W over enforceable bound %.0f W\n",
                 capped.max_power_watts, bound);
    return fail("FIFO@cap30 peak power exceeds the cap bound");
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << "{\n"
        << "  \"bench\": \"ablation_power\",\n"
        << "  \"workload\": \"Venus\",\n"
        << "  \"scale\": " << scale << ",\n"
        << "  \"cells\": " << cells.size() << ",\n"
        << "  \"parity\": \"bit-identical\",\n"
        << "  \"rows\": [\n";
    for (std::size_t i = 0; i < par.cells.size(); ++i) {
      const auto& cell = par.cells[i];
      const sim::SimResult& r = cell.result;
      out << "    {\"policy\": \"" << sim::to_string(cell.spec.policy)
          << "\", \"power\": \"" << cell.spec.power.name
          << "\", \"cap_watts\": " << cell.spec.power.cap_watts
          << ", \"energy_kwh\": " << r.energy_joules / 3.6e6
          << ", \"max_power_kw\": " << r.max_power_watts / 1000.0
          << ", \"avg_jct_h\": " << r.avg_jct / 3600.0
          << ", \"avg_queue_delay_h\": " << r.avg_queue_delay / 3600.0
          << ", \"unfinished\": " << r.unfinished_jobs << "}"
          << (i + 1 < par.cells.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}
