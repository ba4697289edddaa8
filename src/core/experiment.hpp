#pragma once
// Experiment façade: run a platform instance described by a PlatformConfig
// and distil the metrics the paper's figures are built from.  Every bench
// binary is a thin loop over runScenario().

#include <string>
#include <vector>

#include "platform/config.hpp"
#include "platform/platform.hpp"
#include "stats/probes.hpp"

namespace mpsoc::core {

/// Flattened per-phase FIFO statistics (copyable, unlike the live probe).
struct FifoBuckets {
  std::string phase;
  double frac_full = 0.0;
  double frac_storing = 0.0;
  double frac_no_request = 0.0;
  double frac_empty = 0.0;
  double mean_occupancy = 0.0;
};

/// Per-master issue/latency summary (the "latency spread" view of Abl. E and
/// the golden-stats digests).  Order follows platform construction order,
/// which is deterministic for a given config.
struct MasterStats {
  std::string name;
  std::uint64_t issued = 0;
  std::uint64_t retired = 0;
  double mean_latency_ns = 0.0;
  double p95_latency_ns = 0.0;
};

struct ScenarioResult {
  std::string label;
  sim::Picos exec_ps = 0;
  /// Edge instants the kernel executed — its unit of work, used by the sweep
  /// harness to report simulation throughput (edges per wall second).
  std::uint64_t edges_executed = 0;
  /// Component evaluate() calls the run made (Simulator::evaluations): host
  /// work, which activity gating changes, so it stays out of the digest.
  std::uint64_t evaluations = 0;
  bool completed = false;

  std::uint64_t retired = 0;
  std::uint64_t bytes_total = 0;
  double mean_read_latency_ns = 0.0;
  double p95_read_latency_ns = 0.0;
  double bandwidth_mb_s = 0.0;

  // Memory subsystem detail (zeros when not applicable).
  double lmi_row_hit_rate = 0.0;
  double lmi_merge_ratio = 0.0;
  std::uint64_t lmi_refreshes = 0;

  FifoBuckets mem_fifo_total;
  std::vector<FifoBuckets> mem_fifo_phases;

  std::vector<MasterStats> masters;

  double cpu_cpi = 0.0;
};

/// Run a finite-workload scenario to completion.
ScenarioResult runScenario(const platform::PlatformConfig& cfg,
                           std::string label);

/// Run an unbounded (two-phase) scenario for a fixed simulated duration.
ScenarioResult runScenarioFor(const platform::PlatformConfig& cfg,
                              std::string label, sim::Picos duration_ps);

}  // namespace mpsoc::core
