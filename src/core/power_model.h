// Datacenter power accounting (paper §4.3.3 and beyond).
//
// PowerProfile is the per-node/per-job draw behind the simulator's energy
// accounting (sim/simulator.h): a node's baseline draw is a function of its
// power state (idle/boot/sleep/failed watts) and every allocated GPU adds a
// per-GPU draw on top, so cluster power is a piecewise-constant function of
// the schedule. Per-job draws (jobs whose kernels pull more or less than the
// default) come from sim::SimConfig::gpu_watts_fn. The defaults follow the
// paper's measurement: an idle DGX-1 class server draws ~800 W (read from
// the BMC PSU inputs) and a DRS-sleeping one ~0 W. The CES service prices
// its savings from the same default profile.
//
// Keep profile watts integer-valued where bit-exact accounting matters: the
// simulator's energy sums and power series are then exact integer-valued
// products (see sim/bucket_integrator.h), independent of accumulation order.
#pragma once

namespace helios::core {

/// Per-node and per-GPU draw used by the simulator's energy accounting.
/// Homogeneous across nodes (the clusters' VCs are hardware-uniform);
/// per-job variation rides on top via sim::SimConfig::gpu_watts_fn.
struct PowerProfile {
  /// Baseline draw of a powered, schedulable node (fans, CPUs, idle GPUs).
  double idle_node_watts = 800.0;
  /// Draw while booting out of deep sleep (conservatively full baseline).
  double boot_node_watts = 800.0;
  /// Deep-sleep draw (DRS sleep is ~0 W in the paper's measurement).
  double sleep_node_watts = 0.0;
  /// Draw of a node that is down for repair.
  double failed_node_watts = 0.0;
  /// Additional draw per allocated GPU under load.
  double gpu_watts = 300.0;

  /// Baseline draw of a set of nodes by power state, excluding job draw.
  [[nodiscard]] double baseline_watts(int active, int booting, int sleeping,
                                      int failed) const noexcept {
    return idle_node_watts * active + boot_node_watts * booting +
           sleep_node_watts * sleeping + failed_node_watts * failed;
  }

  [[nodiscard]] friend bool operator==(const PowerProfile&,
                                       const PowerProfile&) = default;
};

}  // namespace helios::core
