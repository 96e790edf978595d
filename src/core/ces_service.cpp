#include "core/ces_service.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <queue>

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
  fitted_history_ = running_nodes_history;
  model_->fit(fitted_history_);
}

void CesService::update(const Trace& new_data) {
  // Re-derive the running-nodes series by operating the new data under FIFO
  // and re-fit the forecaster.
  Trace copy = new_data;
  copy.sort_by_submit_time();
  const auto r = sim::operate_fifo(copy, config_.series_step);
  fit(r.busy_nodes);
}

namespace {

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
  sim::ClusterState state(eval.cluster());
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
  std::vector<std::int64_t> start_time(eval.size(), trace::kNeverStarted);
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
    running_acc.add(last_account, now, state.busy_nodes());
    active_acc.add(last_account, now, state.active_nodes());
    sleeping_node_seconds += static_cast<double>(state.sleeping_nodes()) *
                             static_cast<double>(now - last_account);
    last_account = now;
  };

  auto wake_for_vc = [&](int vc, int gpus_short, std::int64_t now) {
    const int nodes_needed =
        (gpus_short + gpn - 1) / gpn + config_.sigma;  // R - CA + sigma
    const int woken = state.wake_nodes_in_vc(vc, nodes_needed, now,
                                             config_.boot_delay);
    if (woken > 0) {
      ++result.wakeup_events;
      result.woken_nodes += woken;
    }
  };

  auto schedule_vc = [&](int vc, std::int64_t now) {
    auto& q = queues[static_cast<std::size_t>(vc)];
    while (!q.empty()) {
      const std::size_t ji = q.front();
      const JobRecord& j = eval.jobs()[ji];
      if (!state.can_ever_fit(vc, j.num_gpus)) {
        q.pop_front();  // impossible job: drop (counted as unaffected)
        start_time[ji] = j.submit_time;
        continue;
      }
      auto alloc = state.try_allocate(vc, j.num_gpus);
      if (!alloc) {
        // Fragmentation rescue: the arrival check compares totals, but gang
        // placement may still fail (a 16-GPU job needs whole free nodes).
        // If the VC has sleeping capacity and nothing already booting for
        // it, wake enough nodes for the head job.
        if (state.booting_nodes_in_vc(vc) == 0 &&
            state.sleeping_nodes_in_vc(vc) > 0) {
          const int shortfall =
              std::max(gpn, j.num_gpus - state.free_gpus(vc));
          wake_for_vc(vc, shortfall, now);
        }
        // The head job is held back while a reboot it needs is in flight:
        // this is the paper's "affected by the 5-minute boot" population.
        if (state.booting_nodes_in_vc(vc) > 0) boot_affected[ji] = true;
        // Greedy backfill (production Slurm behaviour; see SimConfig).
        for (auto bit = std::next(q.begin()); bit != q.end();) {
          const std::size_t bji = *bit;
          auto balloc = state.try_allocate(vc, eval.jobs()[bji].num_gpus);
          if (balloc) {
            allocs[bji] = *balloc;
            start_time[bji] = now;
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
      start_time[ji] = now;
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
    const auto boot = state.next_boot_ready();
    const std::int64_t boot_time =
        boot ? *boot : std::numeric_limits<std::int64_t>::max();
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
      state.release(allocs[f.job]);
      const auto id = eval.jobs()[f.job].vc;
      if (id < vc_of_id.size() && vc_of_id[id] >= 0) dirty.push_back(vc_of_id[id]);
    }
    // 2) boot completions make nodes schedulable.
    if (boot_time <= now) {
      state.finish_boots(now);
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
      if (vc < 0) {
        start_time[ji] = j.submit_time;
        continue;
      }
      const int free = state.free_gpus(vc);
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
      const double running_now = state.busy_nodes();
      observed.values.push_back(running_now);
      actual_samples.push_back(running_now);

      // One-step prediction (for Figure 14's "prediction" curve) and the
      // future trend over the full horizon.
      const auto pred = model_->forecast(observed, horizon_steps);
      predicted_samples.push_back(pred.empty() ? running_now : pred.front());
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

      const std::size_t n = observed.values.size();
      const double running_past =
          n > recent_steps ? observed.values[n - 1 - recent_steps] : running_now;
      const double trend_recent = running_past - running_now;   // T_H
      const double trend_future = running_now - pred_future;    // T_P

      const bool sleep_ok =
          config_.vanilla_drs ||
          (trend_recent >= config_.xi_h && trend_future >= config_.xi_p);
      if (sleep_ok) {
        const int target_active =
            std::min(result.total_nodes,
                     static_cast<int>(running_now) + config_.sigma);
        int surplus = state.active_nodes() - target_active;
        // Sleep per VC, keeping a proportional slice of the sigma buffer
        // idle in each so arrivals anywhere rarely hit a boot wait.
        const int vcs = state.vc_count();
        for (int vc = 0; vc < vcs && surplus > 0; ++vc) {
          const int vc_nodes =
              static_cast<int>(state.vc_node_indices(vc).size());
          const int vc_buffer = std::max(
              1, (config_.sigma * vc_nodes + result.total_nodes - 1) /
                     std::max(1, result.total_nodes));
          const int can =
              std::min(surplus, state.idle_active_nodes_in_vc(vc) - vc_buffer);
          if (can > 0) surplus -= state.sleep_idle_nodes_in_vc(vc, can);
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
  result.saved_kwh = config_.power.saved_kwh(sleeping_node_seconds);
  result.annualized_kwh = config_.power.annualized_kwh(result.saved_kwh, span_days);
  result.forecast_smape = stats::smape(actual_samples, predicted_samples);
  return result;
}

}  // namespace helios::core
