#pragma once
// Declarative description of a platform instance: which interconnect
// protocol, which topology (full multi-layer Fig. 1, collapsed, single
// layer), which memory subsystem, and workload shaping.

#include <cstdint>

#include "mem/lmi_controller.hpp"
#include "platform/workloads.hpp"
#include "sim/time.hpp"
#include "stbus/node.hpp"
#include "txn/arbiter.hpp"

namespace mpsoc::platform {

enum class Protocol : std::uint8_t { Stbus, Ahb, Axi };

enum class Topology : std::uint8_t {
  Full,         ///< multi-layer reference platform (Fig. 1)
  Collapsed,    ///< N5 (the most congested cluster) folded into central N8
  SingleLayer,  ///< every actor directly on one central node
  NocMesh,      ///< every actor on a W x H packet-switched mesh (outlook)
};

enum class MemoryKind : std::uint8_t {
  OnChip,  ///< shared on-chip memory, `onchip_wait_states` wait states
  Lmi,     ///< LMI controller + off-chip DDR SDRAM
};

inline const char* toString(Protocol p) {
  switch (p) {
    case Protocol::Stbus: return "STBus";
    case Protocol::Ahb: return "AHB";
    case Protocol::Axi: return "AXI";
  }
  return "?";
}

inline const char* toString(Topology t) {
  switch (t) {
    case Topology::Full: return "full";
    case Topology::Collapsed: return "collapsed";
    case Topology::SingleLayer: return "single-layer";
    case Topology::NocMesh: return "noc-mesh";
  }
  return "?";
}

struct PlatformConfig {
  Protocol protocol = Protocol::Stbus;
  Topology topology = Topology::Full;
  MemoryKind memory = MemoryKind::OnChip;

  unsigned onchip_wait_states = 1;
  mem::LmiConfig lmi{};
  /// Depth of the memory-interface request FIFO (the Fig. 6 input FIFO).
  std::size_t mem_fifo_depth = 8;

  /// Mesh dimensions for Topology::NocMesh (ignored otherwise).  The memory
  /// sits at the centre node; masters are placed round-robin over the
  /// remaining nodes in workload order.
  unsigned noc_width = 3;
  unsigned noc_height = 3;

  /// Keep only the first N IP cores of the reference workload (0 = all).
  /// The scenario fuzzer's shrinker uses this as its "drop masters" axis;
  /// it also makes hand-written minimal reproducers possible.
  unsigned master_limit = 0;

  /// ST220 clock (MHz).  The default 400 gives the paper's 400:250 ratio to
  /// the central node; off-grid values (e.g. 313) exercise the non-integer
  /// CDC paths the fuzzer targets.  Ignored when the DSP sits directly on
  /// the central node (single-layer / NoC topologies).
  double cpu_mhz = 400.0;

  /// Add an on-chip scratchpad SRAM on the central node covering the DSP's
  /// code/data region, so the ST220 stops competing for the off-chip memory
  /// (a common memory-architecture fix the virtual platform lets you price).
  bool include_scratchpad = false;
  unsigned scratchpad_wait_states = 0;

  /// Attach a descriptor-based DMA engine to the central node that copies
  /// captured frames to a timeshift buffer (both in the unified memory) —
  /// bulk memory-to-memory traffic on top of the streaming IPs.
  bool include_dma = false;

  /// Split capability of the protocol-converter bridge in front of the
  /// natively-STBus LMI on AHB/AXI platforms.  The paper's collapsed-AXI
  /// instance used "a simple protocol converter unable to perform split
  /// transactions" (Fig. 5) — set false to reproduce it.
  bool mem_bridge_split = true;

  stbus::StbusType stbus_type = stbus::StbusType::T3;
  /// Use STBus message arbitration (controller-friendly traffic).
  bool message_arbitration = true;
  /// Arbitration policy used by every interconnect layer.
  txn::ArbPolicy arbitration = txn::ArbPolicy::FixedPriority;

  /// Lightweight (blocking-read) inter-cluster bridges even on the STBus
  /// platform — isolates "bridge functionality" from "protocol" (Abl. B).
  bool force_lightweight_bridges = false;
  /// GenConv-class (split, low-latency) bridges even on AHB/AXI platforms —
  /// isolates "topology" from "bridge functionality" (the Fig. 4 sweep's
  /// protocol-interchangeability check).
  bool force_split_bridges = false;

  std::uint64_t seed = 1;
  /// Which traffic mix the platform runs (playback vs record/timeshift).
  UseCase use_case = UseCase::Playback;
  /// Multiplies every agent's transaction quota (and the CPU bundle quota).
  double workload_scale = 1.0;
  /// Force every IPTG agent's outstanding-transaction capability (0 = keep
  /// the per-IP values).  The Fig. 4 sweep uses a modest value so the
  /// master-to-slave path latency is visible at fast memory settings.
  unsigned agent_outstanding_override = 0;
  /// Force every agent's burst length (beats at the IP's native width;
  /// 0 = keep the per-IP mixes).  Short bursts make traffic latency-bound,
  /// which is what exposes the topology effect in the Fig. 4 sweep.
  std::uint32_t agent_burst_override_beats = 0;
  bool include_cpu = true;

  /// Attach the protocol monitors and the transaction-conservation auditor
  /// (src/verify) to every bus, bridge and memory in the platform.  Any
  /// protocol violation aborts the run with a ProtocolViolation; leaks are
  /// reported at the end of the run.  Requires MPSOC_VERIFY=ON to observe
  /// anything (with it OFF this flag only creates an empty context).
  bool verify = false;

  /// Checkpoint-equivalence oracle (see DESIGN.md "State manifests &
  /// checkpointing"): at `statecheck_at_ps` the run checkpoints the full
  /// platform state, executes `statecheck_edges` further edges, digests,
  /// rewinds to the checkpoint, re-executes the same edges and asserts the
  /// two digests are bit-identical — any component with an incomplete
  /// SIM_STATE manifest diverges deterministically.  Requires
  /// MPSOC_STATECHECK=ON to observe anything (with it OFF this flag is
  /// ignored).
  bool statecheck = false;
  sim::Picos statecheck_at_ps = 1'000'000;  // 1 us into the run
  std::uint64_t statecheck_edges = 2000;

  /// Multi-abstraction fast-forward (see DESIGN.md "Multi-abstraction
  /// execution" and src/sim/fastforward.hpp): run the warm-up region
  /// [now, ff_until_ps) under the loosely-timed quantum engine — analytic
  /// latency/bandwidth per route, no cycle-accurate edges — then hand off to
  /// the accurate model through a checkpoint/restore boundary and continue
  /// normally.  0 disables fast-forward.  LT statistics are reported
  /// separately (ltIssued()/ltBytes*) and never enter the canonical result
  /// digest.
  sim::Picos ff_until_ps = 0;
  /// Temporal-decoupling quantum of the LT engine: demand is planned,
  /// arbitrated against the bottleneck-channel byte budget and committed once
  /// per quantum.  Smaller quanta track phase boundaries and quota exhaustion
  /// more closely; larger quanta fast-forward faster.
  sim::Picos ff_quantum_ps = 1'000'000;  // 1 us
  /// Handoff-equivalence oracle: after the fast-forward handoff, execute
  /// `ff_check_edges` accurate edges from the handoff checkpoint, digest,
  /// rewind, re-execute and assert bit-identical digests — proving the
  /// accurate region after a fast-forward is a pure function of the handoff
  /// state.  Unlike `statecheck` this oracle is always compiled in (the
  /// fast-forward path is exactly where restore bugs surface).
  bool ff_check = false;
  std::uint64_t ff_check_edges = 2000;

  /// Kernel activity gating (see Simulator::setActivityGating): skip
  /// evaluate() for components that declared themselves quiescent.  On by
  /// default; behaviour-neutral by contract (sleep is only legal while
  /// idle()), so switching it off must reproduce bit-identical digests —
  /// which is exactly what the kernel-perf smoke in tools/check.sh asserts.
  bool activity_gating = true;

  /// Two-regime workload for the Fig. 6 experiment: phase 1 is an intense
  /// steady regime, phase 2 is burstier with a lower mean.  Quotas become
  /// unbounded; drive the run with Platform::runFor().
  bool two_phase_workload = false;
  sim::Picos phase1_end_ps = 800'000'000;    // 0.8 ms
  sim::Picos phase2_end_ps = 1'600'000'000;  // 1.6 ms
};

}  // namespace mpsoc::platform
