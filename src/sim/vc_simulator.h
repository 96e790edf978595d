// Single-VC discrete-event scheduling loop, extracted from ClusterSimulator.
//
// VCs are dedicated, non-shared node partitions (§2.1): a VC's queue,
// placement, and completion events never interact with another VC's. That
// makes the cluster-wide event loop embarrassingly parallel across VCs —
// ClusterSimulator builds one VcSimulator per VC, runs them concurrently on
// the shared thread pool, and merges per-VC outcomes, counters, and busy
// series deterministically (in VC order; the series terms are exact integer
// products, so the merged series is bit-identical to a serial accumulation).
//
// Each shard owns its VC's ClusterState (the state models one VC partition),
// the policy queue, and run slots:
//  * a per-VC active-run list lets SRTF preemption scan only the jobs
//    currently running instead of every run slot ever created;
//  * policies whose priorities never change while a job waits (FIFO; SJF,
//    QSSF and EQSSF with backfill) queue on a bitmap over priority ranks,
//    sorted once per run (FIFO's rank is its arrival position); the ordered
//    policies without backfill use a lazy-deletion heap, and SRTF with
//    backfill, whose keys change on preemption, an ordered set;
//  * the smallest queued GPU demand lives in a counting array, so a backfill
//    pass is skipped outright when even the smallest queued job exceeds the
//    VC's free GPUs or, under a power cap, the headroom;
//  * on the rank bitmap, a backfill pass visits only the GPU-demand classes
//    whose demand fits the free GPUs and whose smallest draw fits the
//    headroom, re-checked after every start: the jobs it skips would fail a
//    side-effect-free gate, so starts and outcomes equal a full window scan;
//  * busy-node/GPU accounting coalesces runs of events that leave the busy
//    counters unchanged into one BusySegment, so the series costs O(busy
//    changes), not O(events x buckets).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/cluster_state.h"
#include "sim/simulator.h"

namespace helios::sim {

/// A maximal interval over which a VC's busy-node/GPU counts and power draw
/// are constant. Shards log these; the orchestrator integrates them into the
/// cluster-wide series after the parallel phase (intervals may overhang the
/// bucket window; the integrator clamps). Unlike the busy counts, `watts`
/// includes the idle baseline, so segments cover idle stretches too.
struct BusySegment {
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::int32_t nodes = 0;
  std::int32_t gpus = 0;
  double watts = 0.0;  ///< VC draw: node baseline + per-GPU draw of its runs
};

class VcSimulator {
 public:
  /// Aggregates merged into SimResult by the orchestrator.
  struct Counters {
    std::int64_t preemptions = 0;
    std::int64_t rejected = 0;
    std::int64_t kills = 0;     ///< job runs killed by node failures
    std::int64_t failures = 0;  ///< node-failure events applied
  };

  /// `vc` is the cluster-spec VC index; the shard models only that VC's
  /// nodes. `window_begin` is where busy accounting starts (the cluster-wide
  /// series origin); `config` must be shared across shards. The shard copies
  /// its VC's FaultPlan events up front, remapped through
  /// SimConfig::node_order so the allocator's id-order preference follows
  /// the configured placement ranking.
  VcSimulator(const trace::ClusterSpec& spec, int vc, const SimConfig& config,
              UnixTime window_begin);

  /// Simulate this VC's jobs. `arrivals` holds indices into `outcomes` (==
  /// positions in the trace's GPU-job order) in submit order; entries are
  /// pre-filled with submit/gpus/vc/trace_index and run() writes start, end,
  /// and rejected for its own entries only, so shards may run concurrently
  /// over one shared outcomes vector.
  Counters run(const trace::Trace& t, const std::vector<std::size_t>& arrivals,
               std::vector<JobOutcome>& outcomes);

  /// Busy-count segments recorded by run(), in time order.
  [[nodiscard]] const std::vector<BusySegment>& segments() const noexcept {
    return segments_;
  }

 private:
  const SimConfig* config_;
  UnixTime window_begin_;
  ClusterState state_;
  /// This VC's capacity-proportional share of SimConfig::power_cap_watts;
  /// <= 0 when admission is uncapped.
  double cap_share_ = 0.0;
  /// Sum of the per-GPU draws of the currently active runs.
  double run_watts_ = 0.0;
  std::vector<BusySegment> segments_;
  /// This VC's fault events, time-sorted, with `node` already translated to
  /// the shard's internal node ids (the node_order permutation).
  std::vector<NodeFaultEvent> faults_;
};

}  // namespace helios::sim
