#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/thread_pool.h"
#include "sim/bucket_integrator.h"
#include "sim/vc_simulator.h"

namespace helios::sim {

using trace::JobRecord;
using trace::Trace;

std::string_view to_string(SchedulerPolicy p) noexcept {
  switch (p) {
    case SchedulerPolicy::kFifo:
      return "FIFO";
    case SchedulerPolicy::kSjf:
      return "SJF";
    case SchedulerPolicy::kSrtf:
      return "SRTF";
    case SchedulerPolicy::kQssf:
      return "QSSF";
    case SchedulerPolicy::kEnergyQssf:
      return "EQSSF";
  }
  return "?";
}

std::span<const SchedulerPolicy> all_policies() noexcept {
  static constexpr SchedulerPolicy kAll[] = {
      SchedulerPolicy::kFifo, SchedulerPolicy::kSjf, SchedulerPolicy::kSrtf,
      SchedulerPolicy::kQssf, SchedulerPolicy::kEnergyQssf};
  return kAll;
}

bool results_identical(const SimResult& a, const SimResult& b) noexcept {
  constexpr auto same_bits = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  return for_each_field(
      [same_bits](const auto& x, const auto& y) {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, double>) {
          return same_bits(x, y);
        } else if constexpr (std::is_same_v<T, forecast::TimeSeries>) {
          return x.begin == y.begin && x.step == y.step &&
                 std::ranges::equal(x.values, y.values, same_bits);
        } else {
          return x == y;  // integers, bools, VCStat::name
        }
      },
      a, b);
}

std::pair<UnixTime, UnixTime> simulation_window(const Trace& t) {
  UnixTime begin = 0;
  UnixTime end = 1;
  bool first = true;
  for (const JobRecord& j : t.jobs()) {
    if (!j.is_gpu_job()) continue;
    if (first) {
      begin = j.submit_time;
      first = false;
    }
    end = std::max<UnixTime>(end, j.submit_time + j.duration + 1);
  }
  return {begin, end};
}

ClusterSimulator::ClusterSimulator(trace::ClusterSpec spec, SimConfig config)
    : spec_(std::move(spec)), config_(std::move(config)) {}

SimResult ClusterSimulator::run(const Trace& t) const {
  SimResult result;
  const std::size_t n_vcs = spec_.vcs.size();

  // Map trace VC-interner ids -> cluster-spec VC indices.
  std::vector<int> vc_of_id(t.vcs().size(), -1);
  for (int vi = 0; vi < static_cast<int>(n_vcs); ++vi) {
    const auto id = t.vcs().find(spec_.vcs[static_cast<std::size_t>(vi)].name);
    if (id != StringInterner::kNotFound) vc_of_id[id] = vi;
  }

  // Collect GPU jobs, pre-fill their outcomes in trace order, and route each
  // to its VC shard. Jobs whose VC is not in the cluster spec are rejected
  // immediately, exactly as the event loop used to do on arrival. Shards
  // take arrivals in trace order, so a GPU job submitted before its
  // predecessor would queue behind it and fall outside the window.
  const auto window = simulation_window(t);
  const UnixTime window_begin = window.first;
  const UnixTime window_end = window.second;
  std::vector<std::vector<std::size_t>> vc_arrivals(n_vcs);
  result.outcomes.reserve(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    const JobRecord& j = t.jobs()[i];
    if (!j.is_gpu_job()) continue;
    if (!result.outcomes.empty() &&
        j.submit_time < result.outcomes.back().submit) {
      throw std::invalid_argument(
          "ClusterSimulator::run: GPU jobs are not sorted by submit time (job " +
          std::to_string(i) + ")");
    }
    JobOutcome o;
    o.trace_index = i;
    o.submit = j.submit_time;
    o.gpus = j.num_gpus;
    o.vc = j.vc < vc_of_id.size() ? vc_of_id[j.vc] : -1;
    const std::size_t oi = result.outcomes.size();
    if (o.vc < 0) {
      o.rejected = true;
      o.start = o.submit;
      o.end = o.submit;
      ++result.rejected_jobs;
    } else {
      vc_arrivals[static_cast<std::size_t>(o.vc)].push_back(oi);
    }
    result.outcomes.push_back(o);
  }

  // One shard per VC with jobs; each owns its nodes, queue, and series
  // accumulators, so shards share no mutable state and may run concurrently.
  std::vector<VcSimulator> shards;
  std::vector<std::size_t> shard_vc;
  shards.reserve(n_vcs);
  shard_vc.reserve(n_vcs);
  for (std::size_t vi = 0; vi < n_vcs; ++vi) {
    if (vc_arrivals[vi].empty()) continue;
    shards.emplace_back(spec_, static_cast<int>(vi), config_, window_begin);
    shard_vc.push_back(vi);
  }

  std::vector<VcSimulator::Counters> counters(shards.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    tasks.push_back([&, s] {
      counters[s] =
          shards[s].run(t, vc_arrivals[shard_vc[s]], result.outcomes);
    });
  }
  if (config_.execution == common::ExecMode::kSerial) {
    for (auto& task : tasks) task();
  } else {
    parallel_run_tasks(std::move(tasks));
  }

  // Deterministic merge in VC order. Every busy-segment term is an exact
  // integer product of a count and a duration (see BucketIntegrator), so the
  // merged series equals a serial accumulation bit-for-bit. The power terms
  // may carry non-integer watts (gpu_watts_fn, cap shares), but this loop
  // runs serially in VC order under BOTH exec modes, so the accumulation
  // order — and with it every double — is identical for kSerial/kParallel.
  std::vector<int> shard_of(n_vcs, -1);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    shard_of[shard_vc[s]] = static_cast<int>(s);
  }
  BucketIntegrator nodes_acc(window_begin, window_end, config_.series_step);
  BucketIntegrator gpus_acc(window_begin, window_end, config_.series_step);
  BucketIntegrator power_acc(window_begin, window_end, config_.series_step);
  // (time, ±watts) boundaries of every clamped power interval, gathered in
  // VC order for the deterministic peak sweep below. Each VC's edges form one
  // run in time order: its segments are contiguous and clamping is monotone.
  struct PowerEdge {
    UnixTime time = 0;
    double delta = 0.0;
  };
  std::vector<PowerEdge> edges;
  std::vector<std::size_t> run_end(n_vcs, 0);  // edges of VC vi end here
  std::vector<double> vc_energy(n_vcs, 0.0);
  auto bill = [&](std::size_t vi, UnixTime t0, UnixTime t1, double watts) {
    t0 = std::max(t0, window_begin);
    t1 = std::min(t1, window_end);
    if (t1 <= t0 || watts == 0.0) return;
    vc_energy[vi] += watts * static_cast<double>(t1 - t0);
    power_acc.add(t0, t1, watts);
    edges.push_back({t0, watts});
    edges.push_back({t1, -watts});
  };
  for (std::size_t vi = 0; vi < n_vcs; ++vi) {
    if (shard_of[vi] < 0) {
      // No GPU jobs -> no shard, but the VC's nodes still idle all window.
      // (Fault events on a workload-free VC are skipped with the shard, so
      // its baseline stays the all-active draw — consistent with the fault
      // replay only existing where a shard runs.)
      const auto& vcspec = spec_.vcs[vi];
      bill(vi, window_begin, window_end,
           config_.power_profile.baseline_watts(vcspec.nodes, 0, 0, 0));
      run_end[vi] = edges.size();
      continue;
    }
    const auto s = static_cast<std::size_t>(shard_of[vi]);
    for (const BusySegment& seg : shards[s].segments()) {
      nodes_acc.add(seg.t0, seg.t1, seg.nodes);
      gpus_acc.add(seg.t0, seg.t1, seg.gpus);
      bill(vi, seg.t0, seg.t1, seg.watts);
    }
    run_end[vi] = edges.size();
    result.preemptions += counters[s].preemptions;
    result.rejected_jobs += counters[s].rejected;
    result.job_kills += counters[s].kills;
    result.node_failures += counters[s].failures;
  }
  result.busy_nodes = nodes_acc.mean_series();
  result.busy_gpus = gpus_acc.mean_series();
  result.power_watts = power_acc.mean_series();
  for (std::size_t vi = 0; vi < n_vcs; ++vi) {
    result.energy_joules += vc_energy[vi];
  }

  // Peak-power series: sweep the interval boundaries in time order, merging
  // the per-VC runs by (time, VC index) through a min-heap of run heads.
  // Equal-time edges thus apply in VC order, each VC's in its own order —
  // the order a stable sort of the gathered edges by time would give — so
  // the running sum visits identical partial sums on every run and the peaks
  // are bit-deterministic.
  struct RunHead {
    UnixTime time = 0;
    std::size_t next = 0;  // the run's next edge; runs are in VC order
    std::size_t end = 0;
  };
  const auto before = [](const RunHead& a, const RunHead& b) {
    return a.time != b.time ? a.time < b.time : a.next < b.next;
  };
  std::vector<RunHead> heads;
  for (std::size_t vi = 0, begin = 0; vi < n_vcs; begin = run_end[vi++]) {
    if (begin < run_end[vi]) heads.push_back({edges[begin].time, begin, run_end[vi]});
  }
  std::sort(heads.begin(), heads.end(), before);  // sorted => a min-heap
  // Restores the heap after the root changed: a run that stays the earliest
  // costs one or two comparisons.
  const auto sift_root = [&] {
    const std::size_t n = heads.size();
    for (std::size_t i = 0;;) {
      std::size_t c = 2 * i + 1;
      if (c >= n) return;
      if (c + 1 < n && before(heads[c + 1], heads[c])) ++c;
      if (!before(heads[c], heads[i])) return;
      std::swap(heads[i], heads[c]);
      i = c;
    }
  };
  result.peak_power_watts.begin = window_begin;
  result.peak_power_watts.step = config_.series_step;
  result.peak_power_watts.values.assign(power_acc.bucket_count(), 0.0);
  {
    auto& peak = result.peak_power_watts.values;
    double cur = 0.0;
    std::size_t b = 0;
    while (!heads.empty()) {
      const UnixTime t = heads.front().time;
      while (b + 1 < peak.size() &&
             t >= window_begin +
                      static_cast<UnixTime>(b + 1) * config_.series_step) {
        ++b;
        peak[b] = std::max(peak[b], cur);  // draw carries across the boundary
      }
      // Apply every edge of this instant before sampling: a segment ending
      // and another starting at the same second must not momentarily stack.
      while (!heads.empty() && heads.front().time == t) {
        RunHead& h = heads.front();
        for (; h.next < h.end && edges[h.next].time == t; ++h.next) {
          cur += edges[h.next].delta;
        }
        if (h.next < h.end) {
          h.time = edges[h.next].time;
        } else {
          h = heads.back();
          heads.pop_back();
        }
        sift_root();
      }
      peak[b] = std::max(peak[b], cur);
    }
    for (double v : peak) {
      result.max_power_watts = std::max(result.max_power_watts, v);
    }
  }

  // ---- metrics ----------------------------------------------------------
  // Only means and counts are reported; plain integer sums are exact (JCTs
  // and delays are whole seconds) and avoid a streaming-moments division per
  // job.
  struct MeanAcc {
    std::int64_t sum = 0;
    std::int64_t count = 0;
    [[nodiscard]] double mean() const noexcept {
      return count > 0
                 ? static_cast<double>(sum) / static_cast<double>(count)
                 : 0.0;
    }
  };
  MeanAcc jct;
  MeanAcc delay;
  std::vector<MeanAcc> vc_delay(n_vcs);
  std::vector<MeanAcc> vc_jct(n_vcs);
  for (const auto& o : result.outcomes) {
    if (o.rejected) continue;
    if (o.start == trace::kNeverStarted || o.end == trace::kNeverStarted) {
      // Never started inside the horizon (or killed by a failure and never
      // rescheduled): no completion time exists, so the job cannot enter the
      // JCT/delay means — but it *was* delayed past any threshold, so it
      // counts as queued instead of vanishing from the stats entirely.
      ++result.unfinished_jobs;
      ++result.queued_jobs;
      continue;
    }
    jct.sum += o.jct();
    ++jct.count;
    delay.sum += o.queue_delay();
    ++delay.count;
    if (o.queue_delay() >= config_.queued_threshold) ++result.queued_jobs;
    if (o.vc >= 0) {
      auto& vd = vc_delay[static_cast<std::size_t>(o.vc)];
      auto& vj = vc_jct[static_cast<std::size_t>(o.vc)];
      vd.sum += o.queue_delay();
      ++vd.count;
      vj.sum += o.jct();
      ++vj.count;
    }
  }
  result.avg_jct = jct.mean();
  result.avg_queue_delay = delay.mean();
  result.vc_stats.reserve(n_vcs);
  for (std::size_t vi = 0; vi < n_vcs; ++vi) {
    VCStat s;
    s.name = spec_.vcs[vi].name;
    s.gpus = spec_.vcs[vi].total_gpus();
    s.jobs = vc_jct[vi].count;
    s.avg_queue_delay = vc_delay[vi].mean();
    s.avg_jct = vc_jct[vi].mean();
    s.energy_joules = vc_energy[vi];
    result.vc_stats.push_back(std::move(s));
  }
  return result;
}

std::size_t apply_schedule(Trace& t, const SimResult& result) {
  std::size_t updated = 0;
  for (const auto& o : result.outcomes) {
    // Rejected jobs carry start == submit as a sentinel for reporting, but
    // they never ran — writing that back would fabricate a schedule for a
    // job the cluster refused (and count it as updated).
    if (o.rejected || o.start == trace::kNeverStarted) continue;
    t.jobs()[o.trace_index].start_time = o.start;
    ++updated;
  }
  return updated;
}

SimResult operate_fifo(Trace& t, std::int64_t series_step) {
  SimConfig cfg;
  cfg.policy = SchedulerPolicy::kFifo;
  cfg.series_step = series_step;
  cfg.backfill = true;  // match the production scheduler's behaviour
  ClusterSimulator sim(t.cluster(), cfg);
  SimResult r = sim.run(t);
  apply_schedule(t, r);
  return r;
}

}  // namespace helios::sim
