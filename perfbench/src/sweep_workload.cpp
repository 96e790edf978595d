// Workload `sweep`: the what-if scheduling grid. Six workload families at
// scale 0.25 x five named policies x backfill {off, on} x power {uncapped,
// cap60} x faults {none, mtbf30} = 240 cells through sweep::ScenarioEngine
// in kParallel. Loads the sim event loop, the energy merge, the cap gate,
// fault kill/requeue and the sweep/pool fan-out; runs no ML.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/thread_pool.h"
#include "sweep/scenario_engine.h"

namespace perfbench {
namespace {

using namespace helios;

constexpr double kScale = 0.1;
const char* const kClusters[] = {"Venus", "Earth",  "Saturn",
                                 "Uranus", "Philly", "PAI"};

struct NamedPolicy {
  sim::SchedulerPolicy policy;
  const char* name;
};
// Named explicitly rather than sim::all_policies(), so the grid does not
// change when the policy enum does.
constexpr NamedPolicy kPolicies[] = {
    {sim::SchedulerPolicy::kFifo, "FIFO"},
    {sim::SchedulerPolicy::kSjf, "SJF"},
    {sim::SchedulerPolicy::kSrtf, "SRTF"},
    {sim::SchedulerPolicy::kQssf, "QSSF"},
    {sim::SchedulerPolicy::kEnergyQssf, "EQSSF"},
};

struct Grid {
  std::unique_ptr<sweep::TraceStore> store;
  std::vector<sweep::ScenarioSpec> cells;
  std::vector<std::size_t> gpu_jobs;  ///< per cell, for the outcome check
  std::vector<double> generate_ms;    ///< per kClusters entry
};

/// cap60: every node's idle draw plus 60% of the cluster's full GPU draw, on
/// the scaled cluster the cells replay (as in ablation_power).
sweep::PowerSpec cap60(const trace::ClusterSpec& cluster) {
  const core::PowerProfile profile;
  double nodes = 0.0;
  double gpus = 0.0;
  for (const auto& vc : cluster.vcs) {
    nodes += vc.nodes;
    gpus += static_cast<double>(vc.nodes) * vc.gpus_per_node;
  }
  sweep::PowerSpec p;
  p.name = "cap60";
  p.cap_watts = profile.idle_node_watts * nodes + profile.gpu_watts * gpus * 0.6;
  return p;
}

Grid build_grid(std::uint64_t seed, Tracer& tracer) {
  Grid g;
  g.store = std::make_unique<sweep::TraceStore>();
  // Every key is materialized here, on the calling thread, so the engine's
  // level 0 only hits the cache: generation nested under pool helpers can
  // park every worker of a saturated pool.
  for (const char* name : kClusters) {
    const auto key = sweep::TraceKey::workload(name, seed, kScale);
    g.generate_ms.push_back(tracer.time(
        "trace", std::string("generate ") + name,
        [&] { (void)g.store->get(key); }));
  }
  for (const char* name : kClusters) {
    const auto t = g.store->get(sweep::TraceKey::workload(name, seed, kScale));
    std::size_t gpu_jobs = 0;
    for (const auto& j : t->jobs()) gpu_jobs += j.is_gpu_job() ? 1 : 0;

    sweep::SweepGrid sg;
    sg.clusters = {name};
    sg.policies.clear();
    for (const auto& np : kPolicies) sg.policies.push_back(np.policy);
    sg.backfills = {false, true};
    sg.scales = {kScale};
    sg.seeds = {seed};
    sweep::FaultSpec faults;
    faults.name = "mtbf30";
    faults.mtbf_days = 30.0;
    faults.flaky_fraction = 0.05;
    faults.seed = seed;
    sg.faults = {sweep::FaultSpec{}, faults};
    sg.powers = {sweep::PowerSpec{}, cap60(t->cluster())};
    for (auto& cell : sg.expand()) {
      g.cells.push_back(std::move(cell));
      g.gpu_jobs.push_back(gpu_jobs);
    }
  }
  return g;
}

sweep::EngineConfig engine_config(common::ExecMode mode) {
  sweep::EngineConfig cfg;
  cfg.execution = mode;
  cfg.priority_provider = sweep::oracle_gpu_time_provider();
  return cfg;
}

std::string cell_key(std::size_t i, const sweep::ScenarioSpec& spec) {
  char idx[24];
  std::snprintf(idx, sizeof idx, "%03zu", i);
  return std::string("sweep/") + idx + " " + spec.label();
}

/// One recorded digest per workload family: the hash of its cells' digests
/// in grid order (per-cell digests are compared within the run).
void report_digests(const Grid& g, const std::vector<std::string>& cells,
                    Report& report) {
  std::map<std::string, Digest> by_family;
  for (std::size_t i = 0; i < cells.size(); ++i)
    by_family[g.cells[i].workload.name].add(cells[i]);
  for (const auto& [family, d] : by_family) report.digest("sweep/" + family, d.hex());
}

/// Digest every cell; the first grid of the run becomes the reference the
/// later ones must reproduce bit for bit.
void check_grid(const Grid& g, const sweep::SweepResult& r,
                std::vector<std::string>& reference, Report& report) {
  const bool first = reference.empty();
  if (r.cells.size() != g.cells.size()) {
    report.check(false, "sweep grid returned a wrong cell count");
    return;
  }
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    const sim::SimResult& res = r.cells[i].result;
    const std::string d = digest_of(res);
    if (first) reference.push_back(d);
    const bool sane = res.outcomes.size() == g.gpu_jobs[i] &&
                      std::isfinite(res.avg_jct) && res.energy_joules > 0.0;
    report.check(sane && d == reference[i], cell_key(i, g.cells[i]));
  }
}

bool plain(const sweep::ScenarioSpec& s) {
  return !s.backfill && !s.power.capped() && !s.fault.enabled();
}

/// Geomean over workloads of FIFO avg JCT / QSSF avg JCT on the plain cells.
double qssf_jct_gain(const sweep::SweepResult& r) {
  double log_sum = 0.0;
  int n = 0;
  for (const auto& fifo : r.cells) {
    if (!plain(fifo.spec) || fifo.spec.policy != sim::SchedulerPolicy::kFifo)
      continue;
    for (const auto& qssf : r.cells) {
      if (plain(qssf.spec) && qssf.spec.policy == sim::SchedulerPolicy::kQssf &&
          qssf.spec.workload.name == fifo.spec.workload.name) {
        log_sum += std::log(fifo.result.avg_jct / qssf.result.avg_jct);
        ++n;
      }
    }
  }
  return n > 0 ? std::exp(log_sum / n) : 0.0;
}

void measure(const Options& opts, Report& report) {
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  Grid grid;
  Tracer off(false);
  for (int round = 0; round < kSetupRounds; ++round) {
    const auto t0 = Clock::now();
    const double c0 = cpu_seconds();
    grid = build_grid(opts.seed, off);
    setup_wall_s.push_back(ms_since(t0) / 1000.0);
    setup_s.push_back(cpu_seconds() - c0);
  }

  const sweep::ScenarioEngine engine(*grid.store,
                                     engine_config(common::ExecMode::kParallel));
  std::vector<std::string> reference;
  std::vector<double> wall_s;
  double rss_mb = 0.0;
  const auto start = Clock::now();
  std::vector<double> cpu_s;
  do {
    const auto t0 = Clock::now();
    const double c0 = cpu_seconds();
    const sweep::SweepResult r = engine.run(grid.cells);
    wall_s.push_back(ms_since(t0) / 1000.0);
    cpu_s.push_back(cpu_seconds() - c0);
    if (wall_s.size() == 1) rss_mb = peak_rss_mb();
    check_grid(grid, r, reference, report);
  } while (ms_since(start) < opts.seconds * 1000.0);
  report.check(grid.store->generations() ==
                   static_cast<std::int64_t>(std::size(kClusters)),
               "engine materialized a trace outside set-up");

  report_digests(grid, reference, report);
  report.metric("setup_s", median(setup_s), "s");
  report.context["setup_s_each"] = join(setup_s);
  report.context["setup_wall_s_each"] = join(setup_wall_s);
  report.context["wall_s_each"] = join(wall_s);
  report.context["wall_s"] = join({median(wall_s)});
  report.metric("peak_rss_mb", rss_mb, "MB");
  report.metric("cpu_s", median(cpu_s), "s");
  report.context["cpu_s_each"] = join(cpu_s);
  report.context["cells"] = std::to_string(grid.cells.size());
  report.context["grids"] = std::to_string(wall_s.size());
  report.context["scale"] = join({kScale});
}

void trace_layers(const Options& opts, Tracer& tracer, Report& report) {
  const std::string to_cpu = "cpu_s@sweep";
  const std::string to_wall = "wall_s@sweep";  // wall_s: context line
  Grid grid;
  {
    auto root = tracer.span("bench", "sweep set-up");
    grid = build_grid(opts.seed, tracer);
  }
  double generate_total = 0.0;
  for (std::size_t k = 0; k < std::size(kClusters); ++k) {
    report.metric(std::string("trace.generate_ms.") + kClusters[k],
                  grid.generate_ms[k], "ms", "setup_s@sweep");
    generate_total += grid.generate_ms[k];
  }
  report.metric("trace.generate_ms", generate_total, "ms", "setup_s@sweep");

  const sweep::ScenarioEngine parallel(
      *grid.store, engine_config(common::ExecMode::kParallel));
  const sweep::ScenarioEngine serial(*grid.store,
                                     engine_config(common::ExecMode::kSerial));

  auto root = tracer.span("bench", "sweep run");
  sweep::SweepResult par;
  const double wall_ms = tracer.time("sweep", "ScenarioEngine::run parallel",
                                     [&] { par = parallel.run(grid.cells); });
  std::vector<std::string> reference;
  check_grid(grid, par, reference, report);
  report_digests(grid, reference, report);

  // The kSerial twin runs every cell alone, single-threaded, on this thread;
  // its per-cell wall_ms times exactly one ClusterSimulator::run each, which
  // is what the sim metrics below report. (The time is inside this sweep
  // span: a standalone span per cell would double the traced run's length.)
  sweep::SweepResult ser;
  const double engine_serial_ms = tracer.time(
      "sweep", "ScenarioEngine::run serial", [&] { ser = serial.run(grid.cells); });
  root.stop();
  std::vector<double> cell_ms(grid.cells.size(), 0.0);
  double jobs = 0.0;
  for (std::size_t i = 0; i < ser.cells.size() && i < reference.size(); ++i) {
    report.check(digest_of(ser.cells[i].result) == reference[i],
                 "serial engine cell differs: " + grid.cells[i].label());
    cell_ms[i] = ser.cells[i].wall_ms;
    jobs += static_cast<double>(grid.gpu_jobs[i]);
  }

  auto mean_ms = [&](auto&& pred) {
    double sum = 0.0;
    int n = 0;
    for (std::size_t i = 0; i < grid.cells.size(); ++i) {
      if (pred(grid.cells[i])) {
        sum += cell_ms[i];
        ++n;
      }
    }
    return n > 0 ? sum / n : 0.0;
  };
  for (const auto& np : kPolicies) {
    report.metric(std::string("sim.cell_ms.") + np.name,
                  mean_ms([&](const sweep::ScenarioSpec& s) {
                    return s.policy == np.policy;
                  }),
                  "ms", to_cpu);
  }
  struct CellClass {
    const char* name;
    bool backfill, capped, faults;
  };
  for (const CellClass& c : {CellClass{"plain", false, false, false},
                             CellClass{"backfill", true, false, false},
                             CellClass{"capped", false, true, false},
                             CellClass{"faults", false, false, true},
                             CellClass{"backfill_capped", true, true, false}}) {
    report.metric(std::string("sim.cell_ms.") + c.name,
                  mean_ms([&](const sweep::ScenarioSpec& s) {
                    return s.backfill == c.backfill &&
                           s.power.capped() == c.capped &&
                           s.fault.enabled() == c.faults;
                  }),
                  "ms", to_cpu);
  }

  double serial_sum = 0.0;
  double critical = 0.0;
  for (const double ms : cell_ms) {
    serial_sum += ms;
    critical = std::max(critical, ms);
  }
  double parallel_sum = 0.0;
  std::int64_t preemptions = 0, kills = 0, failures = 0, unfinished = 0;
  for (const auto& c : par.cells) {
    parallel_sum += c.wall_ms;
    preemptions += c.result.preemptions;
    kills += c.result.job_kills;
    failures += c.result.node_failures;
    unfinished += c.result.unfinished_jobs;
  }
  const double threads = static_cast<double>(global_pool().thread_count());
  report.metric("sim.jobs_per_s", jobs / (serial_sum / 1000.0), "1/s", to_cpu);
  report.metric("sim.preemptions", static_cast<double>(preemptions), "count", to_cpu);
  report.metric("sim.job_kills", static_cast<double>(kills), "count", to_cpu);
  report.metric("sim.node_failures", static_cast<double>(failures), "count", to_cpu);
  report.metric("sim.unfinished_jobs", static_cast<double>(unfinished), "count",
                to_cpu);
  report.metric("sweep.wall_ms", wall_ms, "ms", to_wall);
  report.metric("sweep.serial_sum_ms", serial_sum, "ms", to_cpu);
  report.metric("sweep.critical_cell_ms", critical, "ms", to_wall);
  report.metric("sweep.cell_inflation", parallel_sum / serial_sum, "x", to_wall);
  report.metric("sweep.pool_efficiency", serial_sum / (wall_ms * threads), "x",
                to_wall);
  report.metric("sweep.engine_serial_s", engine_serial_ms / 1000.0, "s", to_cpu);
  report.metric("common.sweep_speedup", engine_serial_ms / wall_ms, "x", to_wall);
  report.metric("quality.qssf_jct_gain.sweep", qssf_jct_gain(par), "x",
                "accuracy@sweep");
}

}  // namespace

void run_sweep(const Options& opts, Tracer& tracer, Report& report) {
  if (tracer.enabled()) {
    trace_layers(opts, tracer, report);
  } else {
    measure(opts, report);
  }
}

}  // namespace perfbench
