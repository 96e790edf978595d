#include "core/ces_service.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <queue>

#include "core/power_model.h"
#include "sim/bucket_integrator.h"
#include "sim/simulator.h"
#include "stats/metrics.h"

namespace helios::core {

using trace::JobRecord;
using trace::Trace;

CesService::CesService(CesConfig config,
                       std::unique_ptr<forecast::Forecaster> model)
    : config_(config), model_(std::move(model)) {}

void CesService::fit(const forecast::TimeSeries& running_nodes_history) {
  model_->fit(running_nodes_history);
}

namespace {

/// Datacenter cooling draws about twice the server power (§4.3.3), so every
/// server-watt a sleeping node saves is worth three facility-watts.
constexpr double kFacilityFactor = 3.0;

struct Finish {
  std::int64_t time = 0;
  std::size_t job = 0;  // index in eval trace
  bool operator>(const Finish& o) const noexcept { return time > o.time; }
};

}  // namespace

CesResult CesService::replay(const Trace& eval_full,
                             const forecast::TimeSeries& history, UnixTime begin,
                             UnixTime end) const {
  CesResult result;
  const Trace eval = eval_full.between(begin, end);
  result.total_nodes = eval.cluster().nodes;
  const double span_days =
      static_cast<double>(end - begin) / static_cast<double>(kSecondsPerDay);

  // ---- baseline: every node always powered --------------------------------
  sim::SimConfig base_cfg;
  base_cfg.policy = sim::SchedulerPolicy::kFifo;
  base_cfg.series_step = config_.series_step;
  sim::ClusterSimulator base_sim(eval.cluster(), base_cfg);
  const auto baseline = base_sim.run(eval);
  {
    double busy = 0.0;
    const auto& bn = baseline.busy_nodes;
    const std::size_t window_buckets = std::min(
        bn.values.size(),
        static_cast<std::size_t>((end - begin) / config_.series_step));
    for (std::size_t i = 0; i < window_buckets; ++i) busy += bn.values[i];
    result.node_util_original =
        window_buckets > 0 && result.total_nodes > 0
            ? busy / static_cast<double>(window_buckets) / result.total_nodes
            : 0.0;
  }

  // ---- CES replay ----------------------------------------------------------
  // VCs never share nodes (§2.1): one state per VC, indexed by spec VC.
  std::vector<sim::ClusterState> states;
  states.reserve(eval.cluster().vcs.size());
  for (const auto& vc : eval.cluster().vcs) states.emplace_back(vc);
  // Cluster-wide total of one per-VC counter.
  auto total = [&states](auto counter) {
    int sum = 0;
    for (const auto& st : states) sum += (st.*counter)();
    return sum;
  };
  const int gpn = eval.cluster().gpus_per_node;

  // VC interner id -> spec index.
  std::vector<int> vc_of_id(eval.vcs().size(), -1);
  for (int vi = 0; vi < static_cast<int>(eval.cluster().vcs.size()); ++vi) {
    const auto id =
        eval.vcs().find(eval.cluster().vcs[static_cast<std::size_t>(vi)].name);
    if (id != StringInterner::kNotFound) vc_of_id[id] = vi;
  }

  std::vector<std::size_t> gpu_jobs;
  for (std::size_t i = 0; i < eval.size(); ++i) {
    if (eval.jobs()[i].is_gpu_job()) gpu_jobs.push_back(i);
  }
  result.total_jobs = static_cast<std::int64_t>(gpu_jobs.size());

  std::vector<std::deque<std::size_t>> queues(eval.cluster().vcs.size());
  std::priority_queue<Finish, std::vector<Finish>, std::greater<>> finishes;
  std::vector<sim::Allocation> allocs(eval.size());
  std::vector<bool> boot_affected(eval.size(), false);

  // Observed running-nodes samples: history tail + replay observations; this
  // is the forecaster's lag buffer.
  forecast::TimeSeries observed = history;
  if (observed.step != config_.series_step) {
    observed.values.clear();
    observed.begin = begin;
    observed.step = config_.series_step;
  }

  sim::BucketIntegrator running_acc(begin, end, config_.series_step);
  sim::BucketIntegrator active_acc(begin, end, config_.series_step);
  result.predicted_nodes.begin = begin;
  result.predicted_nodes.step = config_.series_step;
  std::vector<double> predicted_samples;
  std::vector<double> actual_samples;

  double sleeping_node_seconds = 0.0;
  std::int64_t last_account = begin;
  auto account = [&](std::int64_t now) {
    if (now <= last_account) return;
    running_acc.add(last_account, now, total(&sim::ClusterState::busy_nodes));
    active_acc.add(last_account, now,
                   total(&sim::ClusterState::active_nodes));
    sleeping_node_seconds +=
        static_cast<double>(total(&sim::ClusterState::sleeping_nodes)) *
        static_cast<double>(now - last_account);
    last_account = now;
  };

  auto wake_for_vc = [&](int vc, int gpus_short, std::int64_t now) {
    const int nodes_needed =
        (gpus_short + gpn - 1) / gpn + config_.sigma;  // R - CA + sigma
    const int woken = states[static_cast<std::size_t>(vc)].wake_nodes(
        nodes_needed, now, config_.boot_delay);
    if (woken > 0) {
      ++result.wakeup_events;
      result.woken_nodes += woken;
    }
  };

  auto schedule_vc = [&](int vc, std::int64_t now) {
    auto& q = queues[static_cast<std::size_t>(vc)];
    sim::ClusterState& state = states[static_cast<std::size_t>(vc)];
    while (!q.empty()) {
      const std::size_t ji = q.front();
      const JobRecord& j = eval.jobs()[ji];
      if (!state.can_ever_fit(j.num_gpus)) {
        q.pop_front();  // impossible job: drop (counted as unaffected)
        continue;
      }
      auto alloc = state.try_allocate(j.num_gpus);
      if (!alloc) {
        // Fragmentation rescue: the arrival check compares totals, but gang
        // placement may still fail (a 16-GPU job needs whole free nodes).
        // If the VC has sleeping capacity and nothing already booting for
        // it, wake enough nodes for the head job.
        if (state.booting_nodes() == 0 && state.sleeping_nodes() > 0) {
          const int shortfall = std::max(gpn, j.num_gpus - state.free_gpus());
          wake_for_vc(vc, shortfall, now);
        }
        // The head job is held back while a reboot it needs is in flight:
        // this is the paper's "affected by the 5-minute boot" population.
        if (state.booting_nodes() > 0) boot_affected[ji] = true;
        // Greedy backfill (production Slurm behaviour; see SimConfig).
        for (auto bit = std::next(q.begin()); bit != q.end();) {
          const std::size_t bji = *bit;
          auto balloc = state.try_allocate(eval.jobs()[bji].num_gpus);
          if (balloc) {
            allocs[bji] = *balloc;
            finishes.push(
                {now + std::max<std::int32_t>(1, eval.jobs()[bji].duration), bji});
            bit = q.erase(bit);
          } else {
            ++bit;
          }
        }
        break;
      }
      q.pop_front();
      allocs[ji] = *alloc;
      finishes.push({now + std::max<std::int32_t>(1, j.duration), ji});
    }
  };

  std::size_t next_arrival = 0;
  std::int64_t next_check = begin + config_.check_interval;
  const auto horizon_steps =
      static_cast<int>(config_.future_window / config_.series_step);
  const auto recent_steps =
      static_cast<std::size_t>(config_.recent_window / config_.series_step);

  for (;;) {
    const std::int64_t arrival_time =
        next_arrival < gpu_jobs.size()
            ? eval.jobs()[gpu_jobs[next_arrival]].submit_time
            : std::numeric_limits<std::int64_t>::max();
    const std::int64_t finish_time =
        finishes.empty() ? std::numeric_limits<std::int64_t>::max()
                         : finishes.top().time;
    std::int64_t boot_time = std::numeric_limits<std::int64_t>::max();
    for (const auto& st : states) {
      if (const auto boot = st.next_boot_ready()) {
        boot_time = std::min(boot_time, *boot);
      }
    }
    const std::int64_t check_time =
        next_check < end ? next_check : std::numeric_limits<std::int64_t>::max();
    const std::int64_t now =
        std::min({arrival_time, finish_time, boot_time, check_time});
    if (now == std::numeric_limits<std::int64_t>::max()) break;
    account(now);

    std::vector<int> dirty;
    // 1) completions.
    while (!finishes.empty() && finishes.top().time <= now) {
      const Finish f = finishes.top();
      finishes.pop();
      // Only jobs of a spec VC start, so a finished job's VC is known.
      const int vc = vc_of_id[eval.jobs()[f.job].vc];
      states[static_cast<std::size_t>(vc)].release(allocs[f.job]);
      dirty.push_back(vc);
    }
    // 2) boot completions make nodes schedulable. A boot completing in any
    //    VC schedules every VC with a queue.
    if (boot_time <= now) {
      for (auto& st : states) st.finish_boots(now);
      for (int vc = 0; vc < static_cast<int>(queues.size()); ++vc) {
        if (!queues[static_cast<std::size_t>(vc)].empty()) dirty.push_back(vc);
      }
    }
    // 3) arrivals: JobArrivalCheck then enqueue.
    while (next_arrival < gpu_jobs.size() &&
           eval.jobs()[gpu_jobs[next_arrival]].submit_time <= now) {
      const std::size_t ji = gpu_jobs[next_arrival];
      ++next_arrival;
      const JobRecord& j = eval.jobs()[ji];
      const int vc = j.vc < vc_of_id.size() ? vc_of_id[j.vc] : -1;
      if (vc < 0) continue;
      const int free = states[static_cast<std::size_t>(vc)].free_gpus();
      if (free < j.num_gpus) wake_for_vc(vc, j.num_gpus - free, now);
      queues[static_cast<std::size_t>(vc)].push_back(ji);
      dirty.push_back(vc);
    }
    // 4) scheduling.
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    for (int vc : dirty) schedule_vc(vc, now);

    // 5) PeriodicCheck.
    if (check_time <= now) {
      next_check += config_.check_interval;
      const double running_now = total(&sim::ClusterState::busy_nodes);
      observed.values.push_back(running_now);
      actual_samples.push_back(running_now);

      const std::size_t n = observed.values.size();
      const double running_past =
          n > recent_steps ? observed.values[n - 1 - recent_steps] : running_now;
      const double trend_recent = running_past - running_now;   // T_H

      // Algorithm 2 reads T_P only when T_H already passes; otherwise only
      // the one-step prediction (Figure 14's "prediction" curve) is needed.
      // A forecast's first steps do not depend on the horizon asked for
      // (Forecaster::forecast), so the short call is exact.
      const bool need_future = !config_.vanilla_drs && trend_recent >= config_.xi_h;
      const auto pred = model_->forecast(
          observed, need_future ? horizon_steps : std::min(1, horizon_steps));
      predicted_samples.push_back(pred.empty() ? running_now : pred.front());

      bool sleep_ok = config_.vanilla_drs;
      if (need_future) {
        // Expected demand at the end of the future window: mean of the last
        // few horizon steps (robust to single-step forecast noise).
        double pred_future = running_now;
        if (!pred.empty()) {
          const std::size_t tail = std::min<std::size_t>(3, pred.size());
          pred_future = 0.0;
          for (std::size_t k = pred.size() - tail; k < pred.size(); ++k) {
            pred_future += pred[k];
          }
          pred_future /= static_cast<double>(tail);
        }
        const double trend_future = running_now - pred_future;  // T_P
        sleep_ok = trend_future >= config_.xi_p;
      }
      if (sleep_ok) {
        const int target_active =
            std::min(result.total_nodes,
                     static_cast<int>(running_now) + config_.sigma);
        int surplus = total(&sim::ClusterState::active_nodes) - target_active;
        // Sleep per VC, keeping a proportional slice of the sigma buffer
        // idle in each so arrivals anywhere rarely hit a boot wait.
        for (auto it = states.begin(); it != states.end() && surplus > 0; ++it) {
          const int vc_buffer = std::max(
              1, (config_.sigma * it->node_count() + result.total_nodes - 1) /
                     std::max(1, result.total_nodes));
          const int can =
              std::min(surplus, it->idle_active_nodes() - vc_buffer);
          if (can > 0) surplus -= it->sleep_idle_nodes(can);
        }
      }
    }
  }
  account(end);

  // ---- metrics --------------------------------------------------------------
  result.running_nodes = running_acc.mean_series();
  result.active_nodes = active_acc.mean_series();
  result.predicted_nodes.values = predicted_samples;
  result.avg_drs_nodes =
      sleeping_node_seconds / static_cast<double>(end - begin);
  result.daily_wakeups =
      span_days > 0.0 ? static_cast<double>(result.wakeup_events) / span_days : 0.0;
  result.avg_woken_per_wakeup =
      result.wakeup_events > 0
          ? static_cast<double>(result.woken_nodes) /
                static_cast<double>(result.wakeup_events)
          : 0.0;
  {
    double busy = 0.0;
    double active = 0.0;
    for (std::size_t i = 0; i < result.running_nodes.values.size(); ++i) {
      busy += result.running_nodes.values[i];
      active += result.active_nodes.values[i];
    }
    result.node_util_ces = active > 0.0 ? busy / active : 0.0;
  }
  for (std::size_t i = 0; i < eval.size(); ++i) {
    if (boot_affected[i]) ++result.affected_jobs;
  }
  // A sleeping node saves its idle draw minus its sleep draw.
  const PowerProfile profile;
  const double saved_watts = profile.idle_node_watts - profile.sleep_node_watts;
  result.saved_kwh = sleeping_node_seconds / 3600.0 * (saved_watts / 1000.0) *
                     kFacilityFactor;
  result.annualized_kwh =
      span_days > 0.0 ? result.saved_kwh * 365.0 / span_days : 0.0;
  result.forecast_smape = stats::smape(actual_samples, predicted_samples);
  return result;
}

}  // namespace helios::core
