#pragma once
// Text front end for platform scenarios, so architecture exploration can be
// driven from files (and the mpsoc_run CLI) instead of recompiled C++:
//
//   # full STBus reference platform on DDR
//   name = stbus-reference
//   protocol = stbus            # stbus | ahb | axi
//   topology = full             # full | collapsed | single-layer | noc-mesh
//   memory = lmi                # onchip | lmi
//   wait_states = 1             # onchip memory speed
//   stbus_type = 3              # 1 | 2 | 3
//   arbitration = fixed-priority  # round-robin | lru | tdma | lottery
//   message_arbitration = true
//   lightweight_bridges = false
//   split_bridges = false
//   mem_bridge_split = true
//   lmi_lookahead = 4
//   lmi_merging = true
//   lmi_merge_limit = 4
//   lmi_divider = 2
//   sdram_cas = 3               # SDRAM timing set (controller cycles)
//   sdram_trcd = 3
//   sdram_trp = 3
//   sdram_tras = 7
//   sdram_trc = 10
//   sdram_twr = 3
//   sdram_trfc = 12
//   sdram_trefi = 1560
//   sdram_ddr = true
//   mem_fifo_depth = 8
//   noc_width = 3               # noc-mesh topology only
//   noc_height = 3
//   master_limit = 0            # keep only the first N workload IPs (0=all)
//   cpu_mhz = 400
//   workload_scale = 1.0
//   outstanding_override = 0
//   burst_override = 0
//   include_cpu = true
//   include_dma = false
//   include_scratchpad = false
//   scratchpad_wait_states = 0
//   use_case = playback         # playback | record
//   two_phase = false
//   phase1_end_ps = 800000000
//   phase2_end_ps = 1600000000
//   duration_ps = 0             # run for a fixed simulated time (two-phase)
//   seed = 1
//   verify = false              # attach protocol monitors + auditor
//   statecheck = false          # checkpoint-equivalence oracle
//   statecheck_at_ps = 1000000  # oracle checkpoint instant
//   statecheck_edges = 2000     # oracle window length (edges)
//
// Unknown keys are errors (with line numbers), so scenario files stay honest;
// after the last key the whole config goes through
// platform::validateConfig(), so a file that parses is also buildable.  Keys
// that request a compile-gated checker the build removed warn at run time
// (see platform/feature_gates.hpp).
//
// emitScenario() is the inverse: a canonical full-form rendering (every key,
// fixed order, round-trip double precision) with the property that
// parse(emit(s)) reproduces s exactly and emit is a fixpoint under
// parse-then-emit — the anchor of the fuzzer's round-trip property test.

#include <string>

#include "platform/config.hpp"

namespace mpsoc::platform {

struct NamedScenario {
  std::string name;
  PlatformConfig config;
  /// Run for a fixed simulated duration instead of to completion (0 = run to
  /// completion).  Required for two-phase workloads, whose quotas are
  /// unbounded.
  sim::Picos duration_ps = 0;
};

NamedScenario parseScenario(const std::string& text);
NamedScenario loadScenario(const std::string& path);

/// Canonical scenario text: every grammar key, fixed order, doubles at
/// round-trip precision.  parseScenario(emitScenario(s)) == s field-for-field.
std::string emitScenario(const NamedScenario& scenario);

}  // namespace mpsoc::platform
