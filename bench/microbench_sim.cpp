// google-benchmark microbenchmarks for the trace generator and the
// discrete-event simulator (jobs scheduled per second of wall time).
//
// The BM_Simulate* benches run the VC-sharded simulator (the default
// common::ExecMode::kParallel) over a cached multi-VC Venus trace at scale 0.1;
// BM_SimulateSerial* runs the retained serial reference for comparison. The
// *CappedBackfill* benches add greedy backfill under the cap60 power budget,
// where most backfill candidates fail the power gate rather than the GPU fit;
// the uncapped *BackfillSjf* benches leave only the GPU fit to skip on. The
// *BackfillSrtf* benches, capped and uncapped, add SRTF's preemption
// requeues, which leave their ranks and queue on the overflow set.
// main() first asserts sharded-vs-serial SimResult parity for every benched
// configuration — a perf run against a broken simulator must fail loudly, not
// report a meaningless speedup. See BENCH_sim.json for recorded before/after
// numbers.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "sim/simulator.h"
#include "trace/synthetic.h"

namespace {

using namespace helios;

void BM_TraceGeneration(benchmark::State& state) {
  const double scale = static_cast<double>(state.range(0)) / 1000.0;
  std::size_t jobs = 0;
  for (auto _ : state) {
    auto cfg = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"), 42,
                                              scale);
    const auto t = trace::SyntheticTraceGenerator(cfg).generate();
    jobs = t.size();
    benchmark::DoNotOptimize(t.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs));
}
BENCHMARK(BM_TraceGeneration)->Arg(20)->Arg(100)->Unit(benchmark::kMillisecond);

const trace::Trace& cached_trace() {
  static const trace::Trace t = [] {
    auto cfg = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"), 42,
                                              0.1);
    return trace::SyntheticTraceGenerator(cfg).generate();
  }();
  return t;
}

/// cap60: every node's idle draw plus 60% of the cluster's full GPU draw (the
/// binding cap of the repository benchmark's sweep workload).
double cap60(const trace::ClusterSpec& cluster) {
  const core::PowerProfile profile;
  double nodes = 0.0;
  double gpus = 0.0;
  for (const auto& vc : cluster.vcs) {
    nodes += vc.nodes;
    gpus += static_cast<double>(vc.nodes) * vc.gpus_per_node;
  }
  return profile.idle_node_watts * nodes + profile.gpu_watts * gpus * 0.6;
}

/// Scheduler extras on top of the policy.
enum class Extras { kNone, kBackfill, kCappedBackfill };

sim::SimConfig policy_config(sim::SchedulerPolicy policy,
                             helios::common::ExecMode execution, Extras extras) {
  sim::SimConfig cfg;
  cfg.policy = policy;
  cfg.execution = execution;
  if (policy == sim::SchedulerPolicy::kQssf) {
    cfg.priority_fn = [](const trace::JobRecord& j) {
      return static_cast<double>(j.duration) * j.num_gpus;
    };
  }
  cfg.backfill = extras != Extras::kNone;
  if (extras == Extras::kCappedBackfill) {
    cfg.power_cap_watts = cap60(cached_trace().cluster());
  }
  return cfg;
}

void run_policy(benchmark::State& state, sim::SchedulerPolicy policy,
                helios::common::ExecMode execution,
                Extras extras = Extras::kNone) {
  const auto& t = cached_trace();
  const auto cfg = policy_config(policy, execution, extras);
  std::size_t jobs = 0;
  for (auto _ : state) {
    sim::ClusterSimulator sim(t.cluster(), cfg);
    const auto r = sim.run(t);
    jobs = r.outcomes.size();
    benchmark::DoNotOptimize(r.avg_jct);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs));
}

void BM_SimulateFifo(benchmark::State& state) {
  run_policy(state, sim::SchedulerPolicy::kFifo, helios::common::ExecMode::kParallel);
}
void BM_SimulateSjf(benchmark::State& state) {
  run_policy(state, sim::SchedulerPolicy::kSjf, helios::common::ExecMode::kParallel);
}
void BM_SimulateSrtf(benchmark::State& state) {
  run_policy(state, sim::SchedulerPolicy::kSrtf, helios::common::ExecMode::kParallel);
}
void BM_SimulateQssf(benchmark::State& state) {
  run_policy(state, sim::SchedulerPolicy::kQssf, helios::common::ExecMode::kParallel);
}
BENCHMARK(BM_SimulateFifo)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateSjf)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateSrtf)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateQssf)->Unit(benchmark::kMillisecond);

void BM_SimulateSerialFifo(benchmark::State& state) {
  run_policy(state, sim::SchedulerPolicy::kFifo, helios::common::ExecMode::kSerial);
}
void BM_SimulateSerialSjf(benchmark::State& state) {
  run_policy(state, sim::SchedulerPolicy::kSjf, helios::common::ExecMode::kSerial);
}
void BM_SimulateSerialSrtf(benchmark::State& state) {
  run_policy(state, sim::SchedulerPolicy::kSrtf, helios::common::ExecMode::kSerial);
}
void BM_SimulateSerialQssf(benchmark::State& state) {
  run_policy(state, sim::SchedulerPolicy::kQssf, helios::common::ExecMode::kSerial);
}
BENCHMARK(BM_SimulateSerialFifo)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateSerialSjf)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateSerialSrtf)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateSerialQssf)->Unit(benchmark::kMillisecond);

void BM_SimulateCappedBackfillFifo(benchmark::State& state) {
  run_policy(state, sim::SchedulerPolicy::kFifo, helios::common::ExecMode::kParallel,
             Extras::kCappedBackfill);
}
void BM_SimulateCappedBackfillQssf(benchmark::State& state) {
  run_policy(state, sim::SchedulerPolicy::kQssf, helios::common::ExecMode::kParallel,
             Extras::kCappedBackfill);
}
BENCHMARK(BM_SimulateCappedBackfillFifo)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateCappedBackfillQssf)->Unit(benchmark::kMillisecond);

void BM_SimulateSerialCappedBackfillFifo(benchmark::State& state) {
  run_policy(state, sim::SchedulerPolicy::kFifo, helios::common::ExecMode::kSerial,
             Extras::kCappedBackfill);
}
void BM_SimulateSerialCappedBackfillQssf(benchmark::State& state) {
  run_policy(state, sim::SchedulerPolicy::kQssf, helios::common::ExecMode::kSerial,
             Extras::kCappedBackfill);
}
BENCHMARK(BM_SimulateSerialCappedBackfillFifo)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateSerialCappedBackfillQssf)->Unit(benchmark::kMillisecond);

void BM_SimulateBackfillSjf(benchmark::State& state) {
  run_policy(state, sim::SchedulerPolicy::kSjf, helios::common::ExecMode::kParallel,
             Extras::kBackfill);
}
void BM_SimulateSerialBackfillSjf(benchmark::State& state) {
  run_policy(state, sim::SchedulerPolicy::kSjf, helios::common::ExecMode::kSerial,
             Extras::kBackfill);
}
BENCHMARK(BM_SimulateBackfillSjf)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateSerialBackfillSjf)->Unit(benchmark::kMillisecond);

void BM_SimulateBackfillSrtf(benchmark::State& state) {
  run_policy(state, sim::SchedulerPolicy::kSrtf, helios::common::ExecMode::kParallel,
             Extras::kBackfill);
}
void BM_SimulateSerialBackfillSrtf(benchmark::State& state) {
  run_policy(state, sim::SchedulerPolicy::kSrtf, helios::common::ExecMode::kSerial,
             Extras::kBackfill);
}
void BM_SimulateCappedBackfillSrtf(benchmark::State& state) {
  run_policy(state, sim::SchedulerPolicy::kSrtf, helios::common::ExecMode::kParallel,
             Extras::kCappedBackfill);
}
void BM_SimulateSerialCappedBackfillSrtf(benchmark::State& state) {
  run_policy(state, sim::SchedulerPolicy::kSrtf, helios::common::ExecMode::kSerial,
             Extras::kCappedBackfill);
}
BENCHMARK(BM_SimulateBackfillSrtf)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateSerialBackfillSrtf)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateCappedBackfillSrtf)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateSerialCappedBackfillSrtf)->Unit(benchmark::kMillisecond);

/// Hard parity gate: the sharded simulator must reproduce the serial
/// reference exactly on the benchmark workload before any timing runs.
void verify_sharded_parity() {
  const auto& t = cached_trace();
  struct Case {
    sim::SchedulerPolicy policy;
    Extras extras;
  };
  for (const Case c : {Case{sim::SchedulerPolicy::kFifo, Extras::kNone},
                       Case{sim::SchedulerPolicy::kSjf, Extras::kNone},
                       Case{sim::SchedulerPolicy::kSrtf, Extras::kNone},
                       Case{sim::SchedulerPolicy::kQssf, Extras::kNone},
                       Case{sim::SchedulerPolicy::kSjf, Extras::kBackfill},
                       Case{sim::SchedulerPolicy::kSrtf, Extras::kBackfill},
                       Case{sim::SchedulerPolicy::kSrtf, Extras::kCappedBackfill},
                       Case{sim::SchedulerPolicy::kFifo, Extras::kCappedBackfill},
                       Case{sim::SchedulerPolicy::kQssf, Extras::kCappedBackfill}}) {
    const auto serial =
        sim::ClusterSimulator(
            t.cluster(),
            policy_config(c.policy, helios::common::ExecMode::kSerial, c.extras))
            .run(t);
    const auto sharded =
        sim::ClusterSimulator(
            t.cluster(),
            policy_config(c.policy, helios::common::ExecMode::kParallel, c.extras))
            .run(t);
    if (!sim::results_identical(serial, sharded)) {
      std::fprintf(stderr,
                   "FATAL: sharded simulator diverges from serial reference "
                   "under %.*s%s\n",
                   static_cast<int>(sim::to_string(c.policy).size()),
                   sim::to_string(c.policy).data(),
                   c.extras == Extras::kBackfill         ? " with backfill"
                   : c.extras == Extras::kCappedBackfill ? " with capped backfill"
                                                         : "");
      std::exit(1);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  verify_sharded_parity();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
