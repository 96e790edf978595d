// Scenario-sweep matrix: the acceptance driver for sweep::ScenarioEngine.
//
// Expands a multi-cluster grid (clusters × every policy × seeds) and runs it
// in legs of two kinds, each on its own fresh TraceStore (so trace
// generation is timed in every leg; the speedup compares whole pipelines,
// not just the simulate phase):
//   * parallel engine (two-level cell × VC sharding),
//   * serial engine — the literal one-cell-at-a-time reference loop.
// One parallel warm-up leg runs first and is left out of the timings (the
// first engine run of a process pays allocator and thread warm-up that
// would read as a parallel slowdown); then the timed legs alternate,
// serial and parallel, three times each, and the report gives the
// median wall of each kind. Every leg, the warm-up included, is gated on
//   (a) every cell being bit-identical to the first serial leg's
//       (sim::results_identical — every SimResult field, bit for bit),
//   (b) its store having materialized every distinct trace key exactly once
//       (TraceStore::generations() == unique key count).
// Exit status is non-zero on any violation. The speedup itself is reported,
// not gated (single-core CI must pass).
//
// Prints the consolidated comparison report and, when HELIOS_SWEEP_OUT is
// set, writes grid/wall-clock/speedup JSON there (ci.sh bench points it at
// build/BENCH_sweep.json), with the pool width the legs ran at.
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
#include <vector>

#include "bench_common.h"
#include "common/env.h"
#include "common/thread_pool.h"
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

  // -- legs and gates -------------------------------------------------------
  const char* error = nullptr;
  std::uint64_t par_hits = 0;
  // One leg on a fresh store, with the exactly-once generation gate.
  auto run_leg = [&](common::ExecMode mode, double* wall_s) {
    sweep::TraceStore store;
    cfg.execution = mode;
    const auto t0 = Clock::now();
    sweep::SweepResult result = sweep::ScenarioEngine(store, cfg).run(cells);
    if (wall_s != nullptr) *wall_s = seconds_since(t0);
    if (result.cells.size() != cells.size()) error = "cell count mismatch";
    if (store.generations() != unique_keys.size()) {
      std::fprintf(stderr, "  generations=%llu, distinct keys=%zu\n",
                   static_cast<unsigned long long>(store.generations()),
                   unique_keys.size());
      error = "a trace was materialized more (or less) than once";
    }
    if (mode == common::ExecMode::kParallel) par_hits = store.hits();
    return result;
  };
  auto same = [&](const sweep::SweepResult& a, const sweep::SweepResult& b) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (!sim::results_identical(a.cells[i].result, b.cells[i].result)) {
        std::fprintf(stderr, "  cell %zu: %s\n", i,
                     a.cells[i].spec.label().c_str());
        return false;
      }
    }
    return true;
  };

  // Timed legs per kind: the fewest that give a median.
  constexpr std::size_t reps = 3;
  std::vector<double> par_walls(reps);
  std::vector<double> ser_walls(reps);
  // Untimed parallel warm-up, then the first serial leg: the parity
  // reference for every later leg.
  sweep::SweepResult par = run_leg(common::ExecMode::kParallel, nullptr);
  const sweep::SweepResult ser = run_leg(common::ExecMode::kSerial, &ser_walls[0]);
  if (error != nullptr) return fail(error);
  if (!same(par, ser)) return fail("parallel != serial for a grid cell");
  for (std::size_t r = 0; r < reps; ++r) {
    if (r > 0) {
      const sweep::SweepResult again =
          run_leg(common::ExecMode::kSerial, &ser_walls[r]);
      if (error != nullptr) return fail(error);
      if (!same(again, ser)) return fail("serial legs differ for a grid cell");
    }
    par = run_leg(common::ExecMode::kParallel, &par_walls[r]);
    if (error != nullptr) return fail(error);
    if (!same(par, ser)) return fail("parallel != serial for a grid cell");
  }
  std::printf("parity OK: %zu cells bit-identical parallel vs serial in all "
              "%zu legs\n",
              cells.size(), 2 * reps + 1);
  std::printf("trace sharing OK: %zu distinct traces, each generated once "
              "per leg (%llu cache hits)\n",
              unique_keys.size(), static_cast<unsigned long long>(par_hits));

  // -- report ---------------------------------------------------------------
  std::vector<double> cell_ms;
  cell_ms.reserve(par.cells.size());
  for (const auto& c : par.cells) cell_ms.push_back(c.wall_ms);
  const double med_cell_ms = stats::median(cell_ms);
  const double par_s = stats::median(par_walls);
  const double ser_s = stats::median(ser_walls);
  const double speedup = par_s > 0 ? ser_s / par_s : 0.0;
  const std::size_t threads = global_pool().thread_count();
  std::printf(
      "grid wall (median of %zu alternating legs after a warm-up): parallel "
      "%.2fs, serial loop %.2fs -> speedup %.2fx (pool width %zu); median "
      "cell %.1f ms\n",
      reps, par_s, ser_s, speedup, threads, med_cell_ms);

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
        << "  \"trace_generations_per_leg\": " << unique_keys.size() << ",\n"
        << "  \"trace_cache_hits\": " << par_hits << ",\n"
        << "  \"parity\": \"bit-identical\",\n"
        << "  \"timed_legs_per_mode\": " << reps << ",\n"
        << "  \"parallel_wall_s\": " << par_s << ",\n"
        << "  \"serial_wall_s\": " << ser_s << ",\n"
        << "  \"speedup\": " << speedup << ",\n"
        << "  \"median_cell_ms\": " << med_cell_ms << ",\n"
        << "  \"pool_threads\": " << threads << "\n"
        << "}\n";
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}
