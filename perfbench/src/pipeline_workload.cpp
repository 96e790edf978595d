// Workload `pipeline`: the paper's framework end to end on the four Helios
// clusters at scale 0.25. Per cluster: load the CSV with
// trace::ParallelLoader -> sim::operate_fifo -> characterization (§3) ->
// QSSF fit on data before Sep 1 -> OnlinePriorityEvaluator on September ->
// FIFO and QSSF September simulations (§4.2) -> CES forecaster fit and
// replay of September (§4.3; sweep::run_ces_study without vanilla DRS).
// Loads ml, core, forecast, analysis and CSV parsing; sim only does a few
// long single-cluster runs.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/cluster_stats.h"
#include "analysis/job_stats.h"
#include "analysis/user_stats.h"
#include "bench.h"
#include "core/qssf_service.h"
#include "forecast/models.h"
#include "trace/parallel_loader.h"
#include "trace/synthetic.h"

namespace perfbench {
namespace {

using namespace helios;

constexpr double kScale = 0.1;
const char* const kClusters[] = {"Venus", "Earth", "Saturn", "Uranus"};

struct Input {
  std::string name;
  trace::ClusterSpec cluster;
  std::string csv;
};

/// What the traced run keeps of a pass for the serial twins and ml spans.
struct Artifacts {
  trace::Trace train;
  trace::Trace eval;
  core::QssfService fitted;  ///< the service as fit, before evaluation
  std::vector<double> predicted;
};

struct ClusterOut {
  std::map<std::string, std::string> digests;  ///< stage -> digest
  double fifo_jct = 0.0;
  double qssf_jct = 0.0;
  double util_gain_pct = 0.0;
};

using StageMs = std::map<std::string, double>;

std::vector<Input> build_inputs(std::uint64_t seed, Tracer& tracer,
                                StageMs& ms) {
  std::vector<Input> inputs;
  for (const char* name : kClusters) {
    const auto gen = trace::GeneratorConfig::helios(trace::helios_cluster(name),
                                                    seed, kScale);
    trace::Trace t;
    tracer.time("trace", std::string("generate ") + name,
                [&] { t = trace::SyntheticTraceGenerator(gen).generate(); });
    std::ostringstream csv;
    ms["trace.render_csv_ms"] +=
        tracer.time("trace", "Trace::save_csv", [&] { t.save_csv(csv); });
    inputs.push_back({name, t.cluster(), std::move(csv).str()});
  }
  return inputs;
}

void add_stats(Digest& d, const stats::BoxStats& b) {
  d.add(b.q1).add(b.median).add(b.q3).add(b.whisker_lo).add(b.whisker_hi)
      .add(b.mean).add(b.count);
}

ClusterOut run_cluster(const Input& in, Tracer& tracer, StageMs& ms,
                       Artifacts* keep) {
  const UnixTime begin = trace::helios_trace_begin();
  const UnixTime sep1 = from_civil(2020, 9, 1);
  const UnixTime end = trace::helios_trace_end();
  ClusterOut out;

  trace::Trace raw;
  ms["trace.load_ms"] += tracer.time("trace", "ParallelLoader::load", [&] {
    raw = trace::ParallelLoader().load(in.csv, in.cluster);
  });
  out.digests["load"] = digest_of(raw);

  trace::Trace operated = raw;
  sim::SimResult op;
  ms["sim.operate_ms"] += tracer.time("sim", "operate_fifo",
                                      [&] { op = sim::operate_fifo(operated); });
  out.digests["operate"] = digest_of(op);

  {
    analysis::TraceSummary s;
    ms["analysis.summarize_ms"] += tracer.time(
        "analysis", "summarize", [&] { s = analysis::summarize(operated); });
    Digest d;
    d.add(s.total_jobs).add(s.gpu_jobs).add(s.cpu_jobs).add(s.avg_gpus_per_gpu_job)
        .add(s.max_gpus).add(s.avg_gpu_job_duration).add(s.median_gpu_job_duration)
        .add(s.avg_cpu_job_duration).add(s.max_duration).add(s.users).add(s.vcs)
        .add(s.duration_days);
    out.digests["summarize"] = d.hex();
  }
  {
    std::vector<analysis::MonthlyActivity> months;
    ms["analysis.monthly_trends_ms"] += tracer.time("analysis", "monthly_trends", [&] {
      months = analysis::monthly_trends(operated, begin, end);
    });
    Digest d;
    for (const auto& m : months)
      d.add(m.year).add(m.month).add(m.single_gpu_jobs).add(m.multi_gpu_jobs)
          .add(m.avg_utilization).add(m.util_from_single).add(m.util_from_multi);
    out.digests["monthly_trends"] = d.hex();
  }
  {
    std::vector<analysis::VCBehavior> vcs;
    ms["analysis.vc_behaviors_ms"] += tracer.time("analysis", "vc_behaviors", [&] {
      vcs = analysis::vc_behaviors(operated, begin, end);
    });
    Digest d;
    for (const auto& v : vcs) {
      d.add(v.vc_index).add(v.name).add(v.gpus);
      add_stats(d, v.utilization);
      d.add(v.avg_gpu_request).add(v.avg_queue_delay).add(v.avg_duration).add(v.jobs);
    }
    out.digests["vc_behaviors"] = d.hex();
  }
  {
    std::vector<analysis::UserAggregate> users;
    ms["analysis.user_aggregates_ms"] += tracer.time(
        "analysis", "user_aggregates",
        [&] { users = analysis::user_aggregates(operated); });
    Digest d;
    for (const auto& u : users)
      d.add(u.user).add(u.gpu_time).add(u.cpu_time).add(u.queue_delay)
          .add(u.gpu_jobs).add(u.cpu_jobs).add(u.gpu_jobs_completed);
    out.digests["user_aggregates"] = d.hex();
  }

  trace::Trace train;
  trace::Trace eval;
  tracer.time("trace", "Trace::between", [&] {
    train = raw.between(0, sep1);
    eval = raw.between(sep1, end);
  });
  core::QssfService service;
  ms["core.qssf_fit_ms"] +=
      tracer.time("core", "QssfService::fit", [&] { service.fit(train); });
  if (keep != nullptr) keep->fitted = service;

  std::unique_ptr<core::OnlinePriorityEvaluator> evaluator;
  ms["core.eval_ms"] += tracer.time("core", "OnlinePriorityEvaluator", [&] {
    evaluator = std::make_unique<core::OnlinePriorityEvaluator>(service, eval);
  });
  {
    Digest d;
    d.add(evaluator->predicted_gpu_time()).add(evaluator->actual_gpu_time());
    for (const auto& j : eval.jobs())
      if (j.is_gpu_job()) d.add(evaluator->priority_of(j));
    out.digests["priorities"] = d.hex();
  }

  sim::SimResult fifo;
  sim::SimResult qssf;
  sim::SimConfig qssf_cfg;
  qssf_cfg.policy = sim::SchedulerPolicy::kQssf;
  qssf_cfg.priority_fn = evaluator->as_priority_fn();
  ms["sim.sept_runs_ms"] += tracer.time("sim", "ClusterSimulator::run FIFO", [&] {
    fifo = sim::ClusterSimulator(eval.cluster(), sim::SimConfig{}).run(eval);
  });
  ms["sim.sept_runs_ms"] += tracer.time("sim", "ClusterSimulator::run QSSF", [&] {
    qssf = sim::ClusterSimulator(eval.cluster(), qssf_cfg).run(eval);
  });
  out.digests["sim_fifo"] = digest_of(fifo);
  out.digests["sim_qssf"] = digest_of(qssf);
  out.fifo_jct = fifo.avg_jct;
  out.qssf_jct = qssf.avg_jct;

  // CES, as sweep::run_ces_study: running-nodes history from re-simulating
  // the operated trace, GBDT forecaster fit before Sep 1, replay September.
  sim::SimResult whole;
  ms["sim.ces_history_ms"] += tracer.time("sim", "ClusterSimulator::run operated", [&] {
    whole = sim::ClusterSimulator(operated.cluster(), sim::SimConfig{}).run(operated);
  });
  const auto history = whole.busy_nodes.between(whole.busy_nodes.begin, sep1);
  core::CesConfig ces_cfg;
  ces_cfg.sigma = std::max(1, operated.cluster().nodes / 30);
  core::CesService ces(ces_cfg, std::make_unique<forecast::GBDTForecaster>());
  // CesService::fit is a thin core wrapper whose body is the forecaster's
  // GBDT fit, so its span belongs to the forecast layer.
  ms["core.ces_fit_ms"] +=
      tracer.time("forecast", "CesService::fit", [&] { ces.fit(history); });
  core::CesResult ces_result;
  ms["core.ces_replay_ms"] += tracer.time("core", "CesService::replay", [&] {
    ces_result = ces.replay(operated, history, sep1, end);
  });
  out.digests["ces"] = digest_of(ces_result);
  out.util_gain_pct =
      (ces_result.node_util_ces - ces_result.node_util_original) * 100.0;

  if (keep != nullptr) {
    keep->predicted = evaluator->predicted_gpu_time();
    keep->train = std::move(train);
    keep->eval = std::move(eval);
  }
  return out;
}

double geomean_gain(const std::vector<ClusterOut>& outs) {
  double log_sum = 0.0;
  for (const auto& o : outs) log_sum += std::log(o.fifo_jct / o.qssf_jct);
  return std::exp(log_sum / static_cast<double>(outs.size()));
}

/// Record every stage digest; the first pass is the reference later passes
/// must reproduce bit for bit.
void check_pass(const std::vector<ClusterOut>& outs,
                std::map<std::string, std::string>& reference, Report& report) {
  const bool first = reference.empty();
  for (std::size_t c = 0; c < outs.size(); ++c) {
    for (const auto& [stage, d] : outs[c].digests) {
      const std::string key =
          std::string("pipeline/") + kClusters[c] + "/" + stage;
      if (first) reference[key] = d;
      report.check(reference[key] == d, key);
    }
  }
}

void measure(const Options& opts, Report& report) {
  Tracer off(false);
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  std::vector<Input> inputs;
  for (int round = 0; round < kSetupRounds; ++round) {
    StageMs unused;
    const auto t0 = Clock::now();
    const double c0 = cpu_seconds();
    inputs = build_inputs(opts.seed, off, unused);
    setup_wall_s.push_back(ms_since(t0) / 1000.0);
    setup_s.push_back(cpu_seconds() - c0);
  }

  std::map<std::string, std::string> reference;
  std::vector<double> wall_s;
  std::vector<ClusterOut> outs;
  double rss_mb = 0.0;
  const auto start = Clock::now();
  std::vector<double> cpu_s;
  do {
    StageMs unused;
    outs.clear();
    const auto t0 = Clock::now();
    const double c0 = cpu_seconds();
    for (const Input& in : inputs) outs.push_back(run_cluster(in, off, unused, nullptr));
    wall_s.push_back(ms_since(t0) / 1000.0);
    cpu_s.push_back(cpu_seconds() - c0);
    if (wall_s.size() == 1) rss_mb = peak_rss_mb();
    check_pass(outs, reference, report);
  } while (ms_since(start) < opts.seconds * 1000.0);

  for (const auto& [key, d] : reference) report.digest(key, d);
  report.metric("setup_s", median(setup_s), "s");
  report.context["setup_s_each"] = join(setup_s);
  report.context["setup_wall_s_each"] = join(setup_wall_s);
  report.context["wall_s_each"] = join(wall_s);
  report.context["wall_s"] = join({median(wall_s)});
  report.metric("peak_rss_mb", rss_mb, "MB");
  report.metric("cpu_s", median(cpu_s), "s");
  report.context["cpu_s_each"] = join(cpu_s);
  report.context["passes"] = std::to_string(wall_s.size());
  report.context["scale"] = join({kScale});
}

void trace_layers(const Options& opts, Tracer& tracer, Report& report) {
  const std::string to_cpu = "cpu_s@pipeline";
  const std::string to_wall = "wall_s@pipeline";  // wall_s: context line
  StageMs ms;
  std::vector<Input> inputs;
  {
    auto root = tracer.span("bench", "pipeline set-up");
    inputs = build_inputs(opts.seed, tracer, ms);
  }

  // Untraced reference pass for the tracing overhead, outside the roots.
  Tracer off(false);
  StageMs unused;
  const auto t_ref = Clock::now();
  for (const Input& in : inputs) (void)run_cluster(in, off, unused, nullptr);
  const double untraced_ms = ms_since(t_ref);

  auto root = tracer.span("bench", "pipeline run");
  std::vector<ClusterOut> outs;
  std::vector<Artifacts> kept(inputs.size());
  const auto t_pass = Clock::now();
  for (std::size_t c = 0; c < inputs.size(); ++c)
    outs.push_back(run_cluster(inputs[c], tracer, ms, &kept[c]));
  const double pass_ms = ms_since(t_pass);
  std::map<std::string, std::string> reference;
  check_pass(outs, reference, report);
  for (const auto& [key, d] : reference) report.digest(key, d);

  // Serial twins (must reproduce the parallel outputs) and the ml layer's
  // public functions on the same inputs.
  double load_serial_ms = 0.0;
  double eval_serial_ms = 0.0;
  double csv_mb = 0.0;
  for (std::size_t c = 0; c < inputs.size(); ++c) {
    const Input& in = inputs[c];
    csv_mb += static_cast<double>(in.csv.size()) / 1e6;
    trace::LoadOptions serial_load;
    serial_load.threads = 1;
    trace::Trace raw;
    load_serial_ms += tracer.time("trace", "ParallelLoader::load threads=1", [&] {
      raw = trace::ParallelLoader(serial_load).load(in.csv, in.cluster);
    });
    report.check(digest_of(raw) == outs[c].digests.at("load"),
                 std::string("serial load differs: ") + in.name);

    Artifacts& a = kept[c];
    core::QssfService serial_service = a.fitted;
    core::EvalOptions serial_eval;
    serial_eval.execution = common::ExecMode::kSerial;
    std::vector<double> serial_predicted;
    eval_serial_ms += tracer.time("core", "OnlinePriorityEvaluator serial", [&] {
      serial_predicted =
          core::OnlinePriorityEvaluator(serial_service, a.eval, serial_eval)
              .predicted_gpu_time();
    });
    Digest want;
    Digest got;
    want.add(a.predicted);
    got.add(serial_predicted);
    report.check(want.hex() == got.hex(),
                 std::string("serial evaluator differs: ") + in.name);

    std::vector<std::uint32_t> train_idx;
    std::vector<std::uint32_t> eval_idx;
    for (std::uint32_t i = 0; i < a.train.size(); ++i)
      if (a.train.jobs()[i].is_gpu_job()) train_idx.push_back(i);
    for (std::uint32_t i = 0; i < a.eval.size(); ++i)
      if (a.eval.jobs()[i].is_gpu_job()) eval_idx.push_back(i);
    ml::Dataset encoded;
    ms["ml.encode_ms"] += tracer.time("ml", "QssfService::encode_jobs", [&] {
      encoded = a.fitted.encode_jobs(a.train, train_idx);
    });
    ml::Dataset labeled(encoded.features());
    labeled.reserve(encoded.rows());
    for (std::size_t r = 0; r < encoded.rows(); ++r) {
      labeled.add_row(encoded.row(r),
                      std::log1p(static_cast<double>(
                          a.train.jobs()[train_idx[r]].duration)));
    }
    ml::GBDTRegressor model(a.fitted.config().gbdt);
    ms["ml.gbdt_fit_ms"] +=
        tracer.time("ml", "GBDTRegressor::fit", [&] { model.fit(labeled); });
    const ml::Dataset eval_rows = a.fitted.encode_jobs(a.eval, eval_idx);
    std::vector<double> predictions;
    ms["ml.predict_many_ms"] += tracer.time("ml", "GBDTRegressor::predict_many", [&] {
      predictions = a.fitted.model().predict_many(eval_rows);
    });
    report.check(predictions.size() == eval_idx.size(),
                 std::string("predict_many row count: ") + in.name);
  }
  root.stop();

  double util_gain = 0.0;
  for (const auto& o : outs) util_gain += o.util_gain_pct;
  util_gain /= static_cast<double>(outs.size());

  report.metric("trace.render_csv_ms", ms["trace.render_csv_ms"], "ms",
                "setup_s@pipeline");
  for (const char* name :
       {"trace.load_ms", "sim.operate_ms", "sim.sept_runs_ms", "sim.ces_history_ms",
        "analysis.summarize_ms", "analysis.monthly_trends_ms",
        "analysis.vc_behaviors_ms", "analysis.user_aggregates_ms",
        "core.qssf_fit_ms", "core.eval_ms", "core.ces_fit_ms", "core.ces_replay_ms",
        "ml.encode_ms", "ml.gbdt_fit_ms", "ml.predict_many_ms"}) {
    report.metric(name, ms[name], "ms", to_cpu);
  }
  report.metric("trace.load_serial_ms", load_serial_ms, "ms", to_cpu);
  report.metric("trace.load_mb_per_s", csv_mb / (ms["trace.load_ms"] / 1000.0),
                "MB/s", to_cpu);
  report.metric("common.load_speedup", load_serial_ms / ms["trace.load_ms"], "x",
                to_wall);
  report.metric("core.eval_serial_ms", eval_serial_ms, "ms", to_cpu);
  report.metric("common.eval_speedup", eval_serial_ms / ms["core.eval_ms"], "x",
                to_wall);
  report.metric("quality.qssf_jct_gain.pipeline", geomean_gain(outs), "x",
                "accuracy@pipeline");
  report.metric("quality.ces_util_gain_pct", util_gain, "%", "accuracy@pipeline");
  report.metric("tracing_overhead_pct.pipeline",
                (pass_ms - untraced_ms) / untraced_ms * 100.0, "%");
}

}  // namespace

void run_pipeline(const Options& opts, Tracer& tracer, Report& report) {
  if (tracer.enabled()) {
    trace_layers(opts, tracer, report);
  } else {
    measure(opts, report);
  }
}

}  // namespace perfbench
