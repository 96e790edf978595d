#include "sweep/studies.h"

#include <utility>

#include "core/qssf_service.h"
#include "forecast/models.h"
#include "sweep/scenario_engine.h"

namespace helios::sweep {

SchedulerStudy run_scheduler_study(const trace::Trace& full, UnixTime train_end,
                                   UnixTime eval_end) {
  SchedulerStudy study;
  const trace::Trace train = full.between(0, train_end);
  study.eval = full.between(train_end, eval_end);

  core::QssfService service;
  service.fit(train);
  core::OnlinePriorityEvaluator evaluator(service, study.eval);
  study.qssf_predicted_gpu_time = evaluator.predicted_gpu_time();
  study.qssf_actual_gpu_time = evaluator.actual_gpu_time();

  // Four cells over one shared evaluation slice: the study is a sweep with a
  // single custom workload and the policy axis.
  TraceStore store;
  TraceKey key;
  key.family = TraceFamily::kCustom;
  key.name = full.cluster().name + ".eval";
  store.put(key, study.eval);

  EngineConfig cfg;
  cfg.priority_provider = [&evaluator](const ScenarioSpec&,
                                       const trace::Trace&) {
    return evaluator.as_priority_fn();
  };
  const ScenarioEngine engine(store, std::move(cfg));

  std::vector<ScenarioSpec> cells(4);
  const sim::SchedulerPolicy policies[] = {
      sim::SchedulerPolicy::kFifo, sim::SchedulerPolicy::kSjf,
      sim::SchedulerPolicy::kSrtf, sim::SchedulerPolicy::kQssf};
  for (std::size_t i = 0; i < 4; ++i) {
    cells[i].workload = {full.cluster().name, key};
    cells[i].policy = policies[i];
  }
  SweepResult sweep = engine.run(cells);
  study.fifo = std::move(sweep.cells[0].result);
  study.sjf = std::move(sweep.cells[1].result);
  study.srtf = std::move(sweep.cells[2].result);
  study.qssf = std::move(sweep.cells[3].result);
  return study;
}

CesStudy run_ces_study(const trace::Trace& operated, UnixTime eval_begin,
                       UnixTime eval_end, bool include_vanilla) {
  // Running-nodes history from the FIFO-operated schedule.
  sim::SimConfig cfg;
  sim::ClusterSimulator sim(operated.cluster(), cfg);
  const auto whole = sim.run(operated);
  const auto history = whole.busy_nodes.between(whole.busy_nodes.begin, eval_begin);

  CesStudy study;
  core::CesConfig base_cfg;
  // The sigma buffer is an absolute node count in the paper (~4 on 143-269
  // node clusters); keep it proportional under scaled-down clusters.
  base_cfg.sigma = std::max(1, operated.cluster().nodes / 30);
  {
    core::CesService svc(base_cfg,
                         std::make_unique<forecast::GBDTForecaster>());
    svc.fit(history);
    study.ces = svc.replay(operated, history, eval_begin, eval_end);
  }
  if (include_vanilla) {
    core::CesConfig vcfg = base_cfg;
    vcfg.vanilla_drs = true;
    core::CesService svc(vcfg,
                         std::make_unique<forecast::SeasonalNaiveForecaster>(144));
    svc.fit(history);
    study.vanilla = svc.replay(operated, history, eval_begin, eval_end);
  }
  return study;
}

std::vector<double> jct_values(const sim::SimResult& r) {
  std::vector<double> out;
  out.reserve(r.outcomes.size());
  for (const auto& o : r.outcomes) {
    if (!o.rejected && o.start != trace::kNeverStarted) {
      out.push_back(static_cast<double>(o.jct()));
    }
  }
  return out;
}

}  // namespace helios::sweep
