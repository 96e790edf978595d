#include "sweep/scenario.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/text_table.h"
#include "stats/summary.h"

namespace helios::sweep {

std::string ScenarioSpec::label() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, " seed=%llu scale=%g",
                static_cast<unsigned long long>(workload.key.seed),
                workload.key.scale);
  std::string s = workload.name + "/" + std::string(to_string(policy)) + buf;
  if (backfill) s += " +backfill";
  if (fault.enabled()) s += " faults=" + fault.name;
  if (power.name != "uncapped") s += " power=" + power.name;
  return s;
}

std::vector<ScenarioSpec> SweepGrid::expand() const {
  std::vector<ScenarioSpec> cells;
  cells.reserve(cell_count());
  for (const auto& cluster : clusters) {
    for (double scale : scales) {
      for (std::uint64_t seed : seeds) {
        WorkloadSpec w;
        w.name = cluster;
        w.key = TraceKey::workload(cluster, seed, scale, operated);
        for (auto policy : policies) {
          for (bool bf : backfills) {
            for (const auto& fault : faults) {
              for (const auto& power : powers) {
                ScenarioSpec s;
                s.workload = w;
                s.policy = policy;
                s.backfill = bf;
                s.fault = fault;
                s.power = power;
                cells.push_back(std::move(s));
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

std::size_t SweepGrid::cell_count() const noexcept {
  return clusters.size() * scales.size() * seeds.size() * policies.size() *
         backfills.size() * faults.size() * powers.size();
}

namespace {

/// The (scale, backfill, fault, power) slice a cell reports under; seeds
/// aggregate within a slice, workloads are columns, policies are rows.
struct SliceKey {
  double scale;
  bool backfill;
  std::string fault;
  std::string power;
  [[nodiscard]] friend auto operator<=>(const SliceKey&, const SliceKey&) = default;
};

std::string slice_title(const SliceKey& k) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "scale=%g", k.scale);
  std::string s = buf;
  if (k.backfill) s += ", backfill";
  if (k.fault != "none") s += ", faults=" + k.fault;
  if (k.power != "uncapped") s += ", power=" + k.power;
  return s;
}

}  // namespace

std::string comparison_report(const SweepResult& sweep) {
  // Group: slice -> (policy row, workload column) -> per-seed values.
  std::map<SliceKey, std::map<std::pair<std::string, std::string>,
                              std::vector<const sim::SimResult*>>>
      slices;
  std::vector<std::string> workload_order;
  std::vector<std::string> policy_order;
  for (const CellResult& c : sweep.cells) {
    const SliceKey key{c.spec.workload.key.scale, c.spec.backfill,
                       c.spec.fault.name, c.spec.power.name};
    const std::string policy{to_string(c.spec.policy)};
    slices[key][{policy, c.spec.workload.name}].push_back(&c.result);
    if (std::find(workload_order.begin(), workload_order.end(),
                  c.spec.workload.name) == workload_order.end()) {
      workload_order.push_back(c.spec.workload.name);
    }
    if (std::find(policy_order.begin(), policy_order.end(), policy) ==
        policy_order.end()) {
      policy_order.push_back(policy);
    }
  }

  struct Metric {
    const char* title;
    double (*value)(const sim::SimResult&);
    int precision;
  };
  const Metric metrics[] = {
      {"Average JCT (s)",
       [](const sim::SimResult& r) { return r.avg_jct; }, 0},
      {"Average queuing time (s)",
       [](const sim::SimResult& r) { return r.avg_queue_delay; }, 0},
      {"# of queued jobs",
       [](const sim::SimResult& r) {
         return static_cast<double>(r.queued_jobs);
       },
       0},
      {"Energy (kWh)",
       [](const sim::SimResult& r) { return r.energy_joules / 3.6e6; }, 1},
  };

  std::string out;
  for (const auto& [slice, grid] : slices) {
    out += "== " + slice_title(slice) + " ==\n";
    for (const Metric& m : metrics) {
      std::vector<std::string> header = {""};
      header.insert(header.end(), workload_order.begin(), workload_order.end());
      TextTable table(std::move(header));
      for (const auto& policy : policy_order) {
        std::vector<std::string> row = {policy};
        for (const auto& workload : workload_order) {
          auto it = grid.find({policy, workload});
          if (it == grid.end()) {
            row.emplace_back("-");
            continue;
          }
          std::vector<double> vals;
          vals.reserve(it->second.size());
          for (const sim::SimResult* r : it->second) {
            vals.push_back(m.value(*r));
          }
          row.push_back(TextTable::cell(stats::median(vals), m.precision));
        }
        table.add_row(std::move(row));
      }
      out += std::string(m.title) + "\n" + table.str() + "\n";
    }
  }
  return out;
}

}  // namespace helios::sweep
