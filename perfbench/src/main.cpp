// perfbench: the repository benchmark binary (run through perfbench/run.py).
//
//   perfbench --workload sweep|pipeline|serve --seed N --seconds S --trace 0|1
//             --work-dir DIR [--commit ID]
//
// --trace 0 measures the named workload's end-to-end metrics for S seconds.
// --trace 1 runs the traced profile of all three workloads (every per-layer
// metric is tagged with the workload and end-to-end metric it should move),
// reports self time per layer and writes the spans to DIR/spans.json.
// Either way the last stdout line is one JSON report.
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>

#include "bench.h"
#include "common/simd.h"
#include "common/thread_pool.h"

namespace {

using namespace perfbench;

/// A run that has not reported by then is reported as hung (run.py kills
/// the process a little later, and the contract allows 180 s).
constexpr double kDeadlineS = 160.0;

const char* const kLayers[] = {"bench", "trace", "sim",      "sweep",    "ml",
                               "core",  "forecast", "analysis", "svc", "serialize"};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload sweep|pipeline|serve "
               "--seed N --seconds S --trace 0|1 --work-dir DIR [--commit ID]\n",
               why);
  std::exit(2);
}

/// Reports a hang as a failed run: if the workload has not finished by the
/// deadline, print a failed report and end the process.
class Watchdog {
 public:
  explicit Watchdog(double seconds)
      : thread_([this, seconds] {
          std::unique_lock lock(mutex_);
          if (!cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                            [this] { return done_; })) {
            std::printf(
                "{\"attempted\": 1, \"failed\": 1, \"metrics\": {}, \"digests\": "
                "{}, \"context\": {}, \"notes\": [\"watchdog: no result after "
                "%.0f s (hang)\"]}\n",
                seconds);
            std::fflush(stdout);
            std::_Exit(0);
          }
        }) {}
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  ~Watchdog() {
    {
      std::lock_guard lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // declared last: starts after the members it uses
};

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void run_workload(const std::string& name, const Options& opts, Tracer& tracer,
                  Report& report) {
  try {
    if (name == "sweep") {
      run_sweep(opts, tracer, report);
    } else if (name == "pipeline") {
      run_pipeline(opts, tracer, report);
    } else {
      run_serve(opts, tracer, report);
    }
  } catch (const std::exception& e) {
    report.check(false, name + " threw: " + e.what());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opts.workload = value;
      } else if (arg == "--seed") {
        opts.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opts.trace = value == "1";
      } else if (arg == "--work-dir") {
        opts.work_dir = value;
      } else if (arg == "--commit") {
        commit = value;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (opts.workload != "sweep" && opts.workload != "pipeline" &&
      opts.workload != "serve")
    usage("unknown workload");
  if (opts.work_dir.empty()) usage("--work-dir is required");
  std::filesystem::create_directories(opts.work_dir);

  Report report;
  report.context["workload"] = opts.workload;
  report.context["seed"] = std::to_string(opts.seed);
  report.context["trace"] = opts.trace ? "1" : "0";
  report.context["pool_threads"] =
      std::to_string(helios::global_pool().thread_count());
  report.context["simd_mode"] = std::string(helios::common::simd_mode());
  report.context["compiler"] = compiler();
  report.context["build_type"] = PERFBENCH_BUILD_TYPE;
  report.context["commit"] = commit;

  {
    Watchdog watchdog(kDeadlineS);
    Tracer tracer(opts.trace);
    if (opts.trace) {
      for (const char* name : {"sweep", "pipeline", "serve"})
        run_workload(name, opts, tracer, report);
      const auto self = tracer.self_ms_by_layer();
      for (const char* layer : kLayers) {
        const auto it = self.find(layer);
        report.metric(std::string("self_ms.") + layer,
                      it == self.end() ? 0.0 : it->second, "ms");
      }
      report.metric("traced_wall_ms", tracer.root_ms(), "ms");
      report.metric("common.pool_threads",
                    static_cast<double>(helios::global_pool().thread_count()),
                    "count");
      tracer.write_json(opts.work_dir + "/spans.json");
    } else {
      run_workload(opts.workload, opts, tracer, report);
    }
  }
  std::printf("%s\n", report.json().c_str());
  return 0;
}
