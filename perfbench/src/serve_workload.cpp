// Workload `serve`: the resident QSSF service on Venus at scale 1.0. The main
// thread feeds the September rows to svc::PredictionServer::ingest_csv in
// fixed 100-row batches, closed loop, from memory (publish_every=256,
// checkpoints every fifth of the stream, as example_serve_replay); one
// reader thread prices real September job shapes against the current
// Snapshot, closed loop, at the same time. Uses the core QSSF state of
// `pipeline` in another way: per-row writes next to lock-free reads.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "core/qssf_service.h"
#include "serialize/binary.h"
#include "svc/prediction_server.h"
#include "trace/synthetic.h"

namespace perfbench {
namespace {

using namespace helios;

constexpr double kScale = 1.0;
constexpr std::size_t kBatchRows = 100;
constexpr std::size_t kPublishEvery = 256;
constexpr std::size_t kRequestShapes = 512;
/// The stream is the trace's tail holding the last kStreamGpuJobs GPU jobs
/// (the second half of September at seed 42) and the service learns from the
/// rows holding the kTrainGpuJobs GPU jobs before it: fixed GPU-job counts,
/// so every seed prices the same number of jobs against a service state of
/// the same size.
constexpr std::size_t kStreamGpuJobs = 10000;
constexpr std::size_t kTrainGpuJobs = 80000;

/// Index of the row holding the `count`-th GPU job counted back from row
/// `end` (exclusive); 0 when fewer GPU jobs precede it.
std::size_t back_gpu_jobs(const trace::Trace& t, std::size_t end,
                          std::size_t count) {
  while (end > 0 && count > 0) {
    --end;
    count -= t.jobs()[end].is_gpu_job() ? 1 : 0;
  }
  return end;
}

struct Setup {
  trace::Trace train;
  trace::Trace eval;
  core::QssfService model;  ///< after the save/load round trip
  std::vector<svc::PricedJob> reference;  ///< batch evaluator's priorities
  std::string rows_csv;
  std::vector<std::pair<std::size_t, std::size_t>> batches;  ///< byte ranges
  std::vector<svc::QueryRequest> requests;
  std::size_t gpu_jobs = 0;
  double save_ms = 0.0;
  double load_ms = 0.0;
  std::size_t model_bytes = 0;
};

Setup build(std::uint64_t seed, Tracer& tracer) {
  Setup s;
  const auto gen = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"),
                                                  seed, kScale);
  trace::Trace full;
  tracer.time("trace", "generate Venus",
              [&] { full = trace::SyntheticTraceGenerator(gen).generate(); });
  const std::size_t stream_begin =
      back_gpu_jobs(full, full.size(), kStreamGpuJobs);
  const UnixTime cut = full.jobs()[stream_begin].submit_time;
  const UnixTime first =
      full.jobs()[back_gpu_jobs(full, stream_begin, kTrainGpuJobs)].submit_time;
  tracer.time("trace", "Trace::between", [&] {
    s.train = full.between(first, cut);
    s.eval = full.between(cut, trace::helios_trace_end());
  });

  // Fit once, then serve from a serialize round trip (the warm-restart path).
  core::QssfService fitted;
  tracer.time("core", "QssfService::fit", [&] { fitted.fit(s.train); });
  std::vector<std::uint8_t> file;
  s.save_ms = tracer.time("serialize", "QssfService::save + frame", [&] {
    serialize::Writer w;
    fitted.save(w);
    file = serialize::frame(w);
  });
  s.model_bytes = file.size();
  s.load_ms = tracer.time("serialize", "unframe + QssfService::load", [&] {
    const std::vector<std::uint8_t> body = serialize::unframe(file);
    serialize::Reader r(body);
    s.model.load(r);
    r.close("model");
  });

  tracer.time("core", "OnlinePriorityEvaluator serial", [&] {
    core::QssfService service = s.model;
    core::EvalOptions opts;
    opts.execution = common::ExecMode::kSerial;
    const core::OnlinePriorityEvaluator evaluator(service, s.eval, opts);
    for (const auto& j : s.eval.jobs())
      if (j.is_gpu_job()) s.reference.push_back({j.job_id, evaluator.priority_of(j)});
  });
  s.gpu_jobs = s.reference.size();

  tracer.time("trace", "Trace::save_csv_rows", [&] {
    std::ostringstream rows;
    s.eval.save_csv_rows(rows, 0, s.eval.size());
    s.rows_csv = std::move(rows).str();
  });
  std::size_t lo = 0;
  while (lo < s.rows_csv.size()) {
    std::size_t hi = lo;
    for (std::size_t line = 0; line < kBatchRows && hi < s.rows_csv.size(); ++line) {
      const auto nl = s.rows_csv.find('\n', hi);
      hi = nl == std::string::npos ? s.rows_csv.size() : nl + 1;
    }
    s.batches.emplace_back(lo, hi);
    lo = hi;
  }

  for (const auto& j : s.eval.jobs()) {
    if (!j.is_gpu_job()) continue;
    svc::QueryRequest req;
    req.user = s.eval.user_name(j);
    req.vc = s.eval.vc_name(j);
    req.job_name = s.eval.job_name(j);
    req.num_gpus = j.num_gpus;
    req.num_cpus = j.num_cpus;
    req.submit_time = j.submit_time;
    s.requests.push_back(std::move(req));
    if (s.requests.size() >= kRequestShapes) break;
  }
  return s;
}

/// Latencies of one closed-loop query client, in nanoseconds.
struct QueryLog {
  std::vector<std::uint32_t> ns;
  double sink = 0.0;  ///< keeps the priced results live
};

double query_once(const svc::PredictionServer& server,
                  const svc::QueryRequest& req, QueryLog& log) {
  const auto t0 = Clock::now();
  const auto snap = server.snapshot();
  const double p = snap->query(req).priority;
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - t0).count();
  log.ns.push_back(static_cast<std::uint32_t>(std::min<std::int64_t>(ns, UINT32_MAX)));
  return p;
}

/// Joins the reader thread on every path out of a replay.
class ReaderGuard {
 public:
  ReaderGuard(std::atomic<bool>& stop, std::thread& thread)
      : stop_(stop), thread_(thread) {}
  ReaderGuard(const ReaderGuard&) = delete;
  ReaderGuard& operator=(const ReaderGuard&) = delete;
  ~ReaderGuard() { join(); }
  void join() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool>& stop_;
  std::thread& thread_;
};

struct Replay {
  double ingest_s = 0.0;
  double cpu_s = 0.0;  ///< the ingest thread's CPU seconds
  std::vector<double> batch_ms;
  std::vector<svc::PricedJob> log;
};

/// Optional work on the replayed server after ingest, before it is dropped.
using AfterIngest = std::function<void(svc::PredictionServer&)>;

Replay replay(const Setup& s, const Options& opts, Tracer& tracer,
              QueryLog& queries, const AfterIngest& after = nullptr) {
  svc::ServerConfig cfg;
  cfg.checkpoint_every = std::max<std::size_t>(1, s.gpu_jobs / 5);
  cfg.checkpoint_prefix = opts.work_dir + "/serve_ck";
  cfg.publish_every = kPublishEvery;
  svc::PredictionServer server(s.model, s.train, cfg);

  Replay out;
  std::atomic<bool> stop{false};
  std::thread reader;
  ReaderGuard guard(stop, reader);
  reader = std::thread([&] {
    std::size_t i = 0;
    while (!stop.load(std::memory_order_relaxed))
      queries.sink += query_once(server, s.requests[i++ % s.requests.size()], queries);
  });

  const std::string_view rows(s.rows_csv);
  out.batch_ms.reserve(s.batches.size());
  const auto t0 = Clock::now();
  const double c0 = thread_cpu_seconds();
  for (const auto& [lo, hi] : s.batches) {
    out.batch_ms.push_back(tracer.time("svc", "PredictionServer::ingest_csv", [&] {
      server.ingest_csv(rows.substr(lo, hi - lo));
    }));
  }
  out.cpu_s = thread_cpu_seconds() - c0;
  out.ingest_s = ms_since(t0) / 1000.0;
  guard.join();

  out.log = server.priority_log();
  if (after) after(server);
  for (std::uint64_t c = 0; c < server.checkpoints_written(); ++c) {
    std::error_code ec;
    std::filesystem::remove(cfg.checkpoint_prefix + "." + std::to_string(c), ec);
  }
  return out;
}

void check_log(const Setup& s, const Replay& r, Report& report) {
  if (r.log.size() != s.reference.size()) {
    report.check(false, "priority log length " + std::to_string(r.log.size()) +
                            " vs batch " + std::to_string(s.reference.size()));
    return;
  }
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < r.log.size(); ++i)
    mismatches += r.log[i] == s.reference[i] ? 0 : 1;
  report.attempted += static_cast<std::int64_t>(r.log.size());
  report.failed += static_cast<std::int64_t>(mismatches);
  if (mismatches > 0)
    report.notes.push_back(std::to_string(mismatches) +
                           " streamed priorities differ from the batch evaluator");
}

/// FIFO vs QSSF on September, QSSF ranked by the served priorities.
double served_jct_gain(const Setup& s, const Replay& r, Report& report) {
  std::unordered_map<std::uint64_t, double> priority;
  for (const auto& p : r.log) priority[p.job_id] = p.priority;
  sim::SimConfig qssf_cfg;
  qssf_cfg.policy = sim::SchedulerPolicy::kQssf;
  qssf_cfg.priority_fn = [&priority](const trace::JobRecord& j) {
    return priority.at(j.job_id);
  };
  const auto fifo = sim::ClusterSimulator(s.eval.cluster(), sim::SimConfig{}).run(s.eval);
  const auto qssf = sim::ClusterSimulator(s.eval.cluster(), qssf_cfg).run(s.eval);
  Digest log_digest;
  for (const auto& p : s.reference) log_digest.add(p.job_id).add(p.priority);
  report.digest("serve/priority_log", log_digest.hex());
  report.digest("serve/sim_fifo", digest_of(fifo));
  report.digest("serve/sim_qssf", digest_of(qssf));
  return fifo.avg_jct / qssf.avg_jct;
}

/// Total publishes of one replay: one at the end of every batch (or inside
/// its checkpoint) plus one per publish_every GPU jobs.
double publishes_per_replay(const Setup& s) {
  return static_cast<double>(s.batches.size() + s.gpu_jobs / kPublishEvery);
}

void measure(const Options& opts, Report& report) {
  Tracer off(false);
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  Setup s;
  for (int round = 0; round < kSetupRounds; ++round) {
    const auto t0 = Clock::now();
    const double c0 = cpu_seconds();
    s = build(opts.seed, off);
    setup_wall_s.push_back(ms_since(t0) / 1000.0);
    setup_s.push_back(cpu_seconds() - c0);
  }

  QueryLog queries;
  queries.ns.reserve(1 << 23);
  std::vector<double> ingest_s;
  std::vector<double> cpu_s;
  double rss_mb = 0.0;
  const auto start = Clock::now();
  do {
    const Replay r = replay(s, opts, off, queries);
    ingest_s.push_back(r.ingest_s);
    cpu_s.push_back(r.cpu_s);
    if (ingest_s.size() == 1) rss_mb = peak_rss_mb();
    check_log(s, r, report);
    if (ingest_s.size() == 1) (void)served_jct_gain(s, r, report);
  } while (ms_since(start) < opts.seconds * 1000.0);

  report.metric("setup_s", median(setup_s), "s");
  report.context["setup_s_each"] = join(setup_s);
  report.context["setup_wall_s_each"] = join(setup_wall_s);
  report.context["wall_s_each"] = join(ingest_s);
  report.context["wall_s"] = join({median(ingest_s)});
  report.metric("peak_rss_mb", rss_mb, "MB");
  report.metric("cpu_s", median(cpu_s), "s");
  report.context["cpu_s_each"] = join(cpu_s);
  report.context["scale"] = join({kScale});
  report.context["replays"] = std::to_string(ingest_s.size());
  report.context["rows_per_replay"] = std::to_string(s.eval.size());
  report.context["gpu_jobs_per_replay"] = std::to_string(s.gpu_jobs);
  report.context["ingest_rows_per_s"] =
      std::to_string(static_cast<double>(s.eval.size()) / median(ingest_s));
  report.context["query_samples"] = std::to_string(queries.ns.size());
  report.context["query_p50_us"] = std::to_string(percentile(queries.ns, 0.50) / 1000.0);
  report.context["query_p99_us"] = std::to_string(percentile(queries.ns, 0.99) / 1000.0);
}

void trace_layers(const Options& opts, Tracer& tracer, Report& report) {
  const std::string to_cpu = "cpu_s@serve";
  Setup s;
  {
    auto root = tracer.span("bench", "serve set-up");
    s = build(opts.seed, tracer);
  }
  report.metric("serialize.model_save_ms", s.save_ms, "ms", "setup_s@serve");
  report.metric("serialize.model_load_ms", s.load_ms, "ms", "setup_s@serve");
  report.metric("serialize.model_bytes", static_cast<double>(s.model_bytes),
                "bytes", "setup_s@serve");

  // Untraced reference replay, outside the roots: the tracing-overhead base
  // and the query latency under concurrent ingest.
  Tracer off(false);
  QueryLog loaded;
  loaded.ns.reserve(1 << 23);
  const Replay base = replay(s, opts, off, loaded);
  check_log(s, base, report);
  report.metric("quality.qssf_jct_gain.serve", served_jct_gain(s, base, report),
                "x", "accuracy@serve");
  report.metric("svc.query_samples", static_cast<double>(loaded.ns.size()), "count",
                "latency@serve");
  report.metric("svc.query_p50_us", percentile(loaded.ns, 0.50) / 1000.0, "us",
                "latency@serve");
  report.metric("svc.query_p99_us", percentile(loaded.ns, 0.99) / 1000.0, "us",
                "latency@serve");

  double publish_ms = 0.0;
  double checkpoint_ms = 0.0;
  double checkpoint_bytes = 0.0;
  std::vector<std::uint32_t> isolated;
  auto root = tracer.span("bench", "serve run");
  QueryLog traced_queries;
  traced_queries.ns.reserve(1 << 23);
  const Replay r = replay(s, opts, tracer, traced_queries, [&](svc::PredictionServer& server) {
    std::vector<double> publish;
    for (int i = 0; i < 16; ++i)
      publish.push_back(
          tracer.time("svc", "PredictionServer::publish", [&] { server.publish(); }));
    publish_ms = median(publish);
    std::vector<double> checkpoint;
    std::string path;
    for (int i = 0; i < 3; ++i)
      checkpoint.push_back(tracer.time("svc", "PredictionServer::checkpoint",
                                       [&] { path = server.checkpoint(); }));
    checkpoint_ms = median(checkpoint);
    std::error_code ec;
    checkpoint_bytes = static_cast<double>(std::filesystem::file_size(path, ec));
    // Queries on one fixed snapshot with no ingest running.
    QueryLog quiet;
    quiet.ns.reserve(1 << 20);
    tracer.time("svc", "Snapshot::query isolated", [&] {
      const auto t0 = Clock::now();
      std::size_t i = 0;
      while (ms_since(t0) < 500.0)
        quiet.sink += query_once(server, s.requests[i++ % s.requests.size()], quiet);
    });
    isolated = std::move(quiet.ns);
  });
  root.stop();
  check_log(s, r, report);

  const double rows = static_cast<double>(s.eval.size());
  const double publishes = publishes_per_replay(s);
  report.metric("svc.ingest_rows_per_s", rows / r.ingest_s, "1/s", to_cpu);
  report.metric("svc.ingest_batch_p50_ms", percentile(r.batch_ms, 0.50), "ms", to_cpu);
  report.metric("svc.ingest_batch_p99_ms", percentile(r.batch_ms, 0.99), "ms", to_cpu);
  report.metric("svc.publish_ms", publish_ms, "ms", to_cpu);
  report.metric("svc.publishes", publishes, "count", to_cpu);
  report.metric("svc.checkpoint_ms", checkpoint_ms, "ms", to_cpu);
  report.metric("svc.checkpoint_bytes", checkpoint_bytes, "bytes", to_cpu);
  report.metric("svc.query_isolated_us", percentile(isolated, 0.50) / 1000.0, "us",
                "latency@serve");
  report.metric("tracing_overhead_pct.serve",
                (r.ingest_s - base.ingest_s) / base.ingest_s * 100.0, "%");
}

}  // namespace

void run_serve(const Options& opts, Tracer& tracer, Report& report) {
  if (tracer.enabled()) {
    trace_layers(opts, tracer, report);
  } else {
    measure(opts, report);
  }
}

}  // namespace perfbench
