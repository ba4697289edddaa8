#include "platform/validate.hpp"

#include <sstream>

namespace mpsoc::platform {

std::string validateConfig(const PlatformConfig& cfg, sim::Picos duration_ps) {
  // Workload shaping: a non-positive scale never terminates (zero quotas are
  // clamped to "done immediately" for some agents but not the CPU bundle),
  // and an absurd scale only tests the host's patience.
  if (!(cfg.workload_scale > 0.0) || cfg.workload_scale > 100.0) {
    std::ostringstream os;
    os << "workload_scale must be in (0, 100], got " << cfg.workload_scale;
    return os.str();
  }
  if (cfg.mem_fifo_depth < 1) {
    return "mem_fifo_depth must be >= 1 (the memory interface needs at least "
           "one request slot)";
  }
  if (!(cfg.cpu_mhz > 0.0) || cfg.cpu_mhz > 10'000.0) {
    std::ostringstream os;
    os << "cpu_mhz must be in (0, 10000], got " << cfg.cpu_mhz;
    return os.str();
  }

  // The two bridge overrides pick opposite bridge classes for the same
  // uplinks; taking either silently would run a platform the file did not
  // ask for.
  if (cfg.force_lightweight_bridges && cfg.force_split_bridges) {
    return "lightweight_bridges and split_bridges are mutually exclusive "
           "(they force opposite inter-cluster bridge classes)";
  }

  // LMI / SDRAM: the divider derives the device clock from the bus clock; a
  // zero divider is a divide-by-zero, a zero lookahead has no service window.
  if (cfg.lmi.clock_divider < 1) return "lmi_divider must be >= 1";
  if (cfg.lmi.lookahead < 1) {
    return "lmi_lookahead must be >= 1 (1 = plain FIFO order)";
  }
  const mem::SdramTiming& t = cfg.lmi.timing;
  if (t.t_rc < t.t_ras) {
    std::ostringstream os;
    os << "sdram timing: t_rc (" << t.t_rc << ") must be >= t_ras ("
       << t.t_ras << ")";
    return os.str();
  }
  if (t.t_refi <= t.t_rfc) {
    std::ostringstream os;
    os << "sdram timing: t_refi (" << t.t_refi << ") must exceed t_rfc ("
       << t.t_rfc << ") or the device refreshes back-to-back forever";
    return os.str();
  }

  // Two-phase workloads are unbounded by construction: they are only
  // runnable for a fixed duration (Platform::runFor), which the scenario
  // grammar expresses with `duration_ps`.
  if (cfg.two_phase_workload && cfg.phase1_end_ps >= cfg.phase2_end_ps) {
    return "two_phase: phase1_end_ps must be earlier than phase2_end_ps";
  }

  if (cfg.topology == Topology::NocMesh) {
    if (cfg.noc_width < 1 || cfg.noc_height < 1 || cfg.noc_width > 8 ||
        cfg.noc_height > 8) {
      return "noc mesh dimensions must be within 1x1 .. 8x8";
    }
    if (cfg.noc_width * cfg.noc_height < 2) {
      return "noc mesh needs at least 2 nodes (the memory owns the centre "
             "node; masters need somewhere else to sit)";
    }
    if (cfg.include_scratchpad) {
      return "include_scratchpad is not supported on the noc-mesh topology "
             "(the scratchpad window overlaps the memory node's region)";
    }
  }

  if (cfg.statecheck && cfg.statecheck_edges < 1) {
    return "statecheck_edges must be >= 1";
  }
  if (cfg.statecheck && cfg.statecheck_at_ps < 1) {
    return "statecheck_at_ps must be >= 1 (a checkpoint at t=0 captures the "
           "cold-start state and checks nothing)";
  }
  if (cfg.statecheck && duration_ps > 0 && cfg.statecheck_at_ps >= duration_ps) {
    std::ostringstream os;
    os << "statecheck_at_ps (" << cfg.statecheck_at_ps
       << ") is at or past the run duration (" << duration_ps
       << " ps) — the oracle would silently never fire";
    return os.str();
  }

  return {};
}

}  // namespace mpsoc::platform
