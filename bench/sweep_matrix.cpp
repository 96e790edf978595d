// Scenario-sweep matrix: the acceptance driver for sweep::ScenarioEngine.
//
// Expands a multi-cluster grid (clusters × 4 policies × seeds), runs it twice:
//   1. parallel engine (two-level cell × VC sharding) on a fresh TraceStore,
//   2. serial engine — the literal one-cell-at-a-time reference loop — on its
//      own fresh store (so trace generation is timed in both legs; the
//      speedup compares whole pipelines, not just the simulate phase),
// and gates on
//   (a) every parallel cell being bit-identical to its serial counterpart
//       (sweep::results_identical — outcomes, counters, busy series),
//   (b) each store having materialized every distinct trace key exactly once
//       (TraceStore::generations() == unique key count).
// Exit status is non-zero on any violation. The speedup itself is reported,
// not gated (single-core CI must pass).
//
// Prints the consolidated comparison report and, when HELIOS_SWEEP_OUT is
// set, writes grid/wall-clock/speedup JSON there (ci.sh bench points it at
// build/BENCH_sweep.json).
//
// Knobs: HELIOS_SWEEP_SCALE (default HELIOS_SCALE, default 0.25),
// HELIOS_SWEEP_CLUSTERS (csv, default all six workloads),
// HELIOS_SWEEP_SEEDS (count, default 2), HELIOS_SWEEP_OUT (JSON path).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/env.h"
#include "stats/summary.h"
#include "sweep/scenario_engine.h"

using namespace helios;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string item =
        csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

int fail(const char* what) {
  std::fprintf(stderr, "SWEEP FAIL: %s\n", what);
  return 1;
}

}  // namespace

int main() {
  const double scale = env_double("HELIOS_SWEEP_SCALE", bench::scale());
  const auto n_seeds = env_int("HELIOS_SWEEP_SEEDS", 2);
  const std::string clusters_csv = env_string(
      "HELIOS_SWEEP_CLUSTERS", "Venus,Earth,Saturn,Uranus,Philly,PAI");
  const std::string out_path = env_string("HELIOS_SWEEP_OUT", "");

  sweep::SweepGrid grid;
  grid.clusters = split_csv(clusters_csv);
  grid.policies.assign(sim::all_policies().begin(), sim::all_policies().end());
  grid.scales = {scale};
  grid.seeds.clear();
  for (std::int64_t s = 0; s < n_seeds; ++s)
    grid.seeds.push_back(bench::seed() + static_cast<std::uint64_t>(s));

  const auto cells = grid.expand();
  std::set<sweep::TraceKey> unique_keys;
  for (const auto& c : cells) unique_keys.insert(c.workload.key);

  bench::print_header(
      "Sweep matrix", "multi-cluster scenario grid",
      std::to_string(grid.clusters.size()) + " workloads x " +
          std::to_string(grid.policies.size()) + " policies x " +
          std::to_string(grid.seeds.size()) + " seeds = " +
          std::to_string(cells.size()) + " cells (" +
          std::to_string(unique_keys.size()) + " distinct traces)",
      scale);

  // QSSF cells use the oracle provider: deterministic, model-free, and the
  // same priority in both legs, so parity covers the priority path too.
  sweep::EngineConfig cfg;
  cfg.priority_provider = sweep::oracle_gpu_time_provider();

  // -- leg 1: parallel engine ----------------------------------------------
  sweep::TraceStore par_store;
  cfg.execution = common::ExecMode::kParallel;
  const auto t_par = Clock::now();
  const sweep::SweepResult par =
      sweep::ScenarioEngine(par_store, cfg).run(cells);
  const double par_s = seconds_since(t_par);

  // -- leg 2: serial reference loop ----------------------------------------
  sweep::TraceStore ser_store;
  cfg.execution = common::ExecMode::kSerial;
  const auto t_ser = Clock::now();
  const sweep::SweepResult ser =
      sweep::ScenarioEngine(ser_store, cfg).run(cells);
  const double ser_s = seconds_since(t_ser);

  // -- gates ----------------------------------------------------------------
  if (par.cells.size() != cells.size() || ser.cells.size() != cells.size())
    return fail("cell count mismatch");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!sweep::results_identical(par.cells[i].result, ser.cells[i].result)) {
      std::fprintf(stderr, "  cell %zu: %s\n", i,
                   par.cells[i].spec.label().c_str());
      return fail("parallel != serial for a grid cell");
    }
  }
  std::printf("parity OK: %zu cells bit-identical parallel vs serial\n",
              cells.size());

  for (const sweep::TraceStore* store : {&par_store, &ser_store}) {
    if (store->generations() != unique_keys.size()) {
      std::fprintf(stderr, "  generations=%llu, distinct keys=%zu\n",
                   static_cast<unsigned long long>(store->generations()),
                   unique_keys.size());
      return fail("a trace was materialized more (or less) than once");
    }
  }
  std::printf("trace sharing OK: %zu distinct traces, each generated once "
              "(%llu cache hits)\n",
              unique_keys.size(),
              static_cast<unsigned long long>(par_store.hits()));

  // -- report ---------------------------------------------------------------
  std::vector<double> cell_ms;
  cell_ms.reserve(par.cells.size());
  for (const auto& c : par.cells) cell_ms.push_back(c.wall_ms);
  const double med_cell_ms = stats::median(cell_ms);
  const double speedup = par_s > 0 ? ser_s / par_s : 0.0;
  const unsigned threads = std::thread::hardware_concurrency();
  std::printf(
      "grid wall: parallel %.2fs, serial loop %.2fs -> speedup %.2fx "
      "(%u hw threads); median cell %.1f ms\n",
      par_s, ser_s, speedup, threads, med_cell_ms);

  std::printf("%s", sweep::comparison_report(par).c_str());

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << "{\n"
        << "  \"bench\": \"scenario_sweep_matrix\",\n"
        << "  \"scale\": " << scale << ",\n"
        << "  \"workloads\": " << grid.clusters.size() << ",\n"
        << "  \"policies\": " << grid.policies.size() << ",\n"
        << "  \"seeds\": " << grid.seeds.size() << ",\n"
        << "  \"cells\": " << cells.size() << ",\n"
        << "  \"distinct_traces\": " << unique_keys.size() << ",\n"
        << "  \"trace_generations\": " << par_store.generations() << ",\n"
        << "  \"trace_cache_hits\": " << par_store.hits() << ",\n"
        << "  \"parity\": \"bit-identical\",\n"
        << "  \"parallel_wall_s\": " << par_s << ",\n"
        << "  \"serial_wall_s\": " << ser_s << ",\n"
        << "  \"speedup\": " << speedup << ",\n"
        << "  \"median_cell_ms\": " << med_cell_ms << ",\n"
        << "  \"hw_threads\": " << threads << "\n"
        << "}\n";
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}
