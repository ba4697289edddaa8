#pragma once
// Single-layer rigs for the traced run: each drives one simulator layer on
// the real kernel, through the layer classes' public constructors, and
// reports host time per unit of that layer's work.

#include <cstdint>

#include "core/rigs.hpp"

namespace perfbench {

struct RigResult {
  double ns_per_unit = 0.0;  ///< host ns of the timed run per unit of work
  std::uint64_t units = 0;   ///< work done (items, edges, cycles, txns, hops)
  double util = 0.0;         ///< simulated utilisation (protocol rigs only)
  bool ok = false;           ///< the rig's own output check passed
};

/// SyncFifo producer/consumer pair on one clock domain; unit = item moved.
RigResult runFifoRig();
/// 64 components of which 63 sleep; unit = kernel edge.
RigResult runSleepRig();
/// core::SingleLayerRig, 6 saturating masters, 2 memories; unit = bus cycle.
RigResult runProtocolRig(mpsoc::core::RigProtocol protocol);
/// GenConv bridge from a 200 MHz/32-bit to a 250 MHz/64-bit STBus node;
/// unit = transaction forwarded.
RigResult runBridgeRig();
/// LMI controller + DDR SDRAM behind an STBus node, read-only or posted
/// write-only traffic; unit = request served.
RigResult runLmiRig(bool writes);
/// 4x3 NoC mesh, on-chip memory at a centre node; unit = router hop.
RigResult runNocRig();

}  // namespace perfbench
