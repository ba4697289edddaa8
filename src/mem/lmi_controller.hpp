#pragma once
// LMI memory controller model — the reverse-engineered STMicroelectronics
// off-chip SDRAM interface of Section 3.1.
//
// Structure, following the paper:
//   * a bus-dependent part: an STBus-style target interface with input and
//     output FIFOs of tunable depth.  The *input FIFO* is the one whose
//     full / storing / no-request statistics the paper reports in Fig. 6 —
//     attach a stats::FifoStateProbe to targetPort().req to reproduce it;
//   * a bus-independent part: an optimisation engine performing
//       - variable-depth lookahead: among the first L queued requests, serve
//         a row-hit before older row-missing requests;
//       - opcode merging: contiguous same-opcode requests that fall in the
//         same DRAM row are merged into a single longer memory access (one
//         command sequence, one data burst, per-request responses);
//     and a command generator that resolves each access into SDRAM commands
//     under the device timing constraints (see SdramDevice).
//
// A fixed 3-cycle interface latency back-annotates the pipeline between the
// bus interface and the SDRAM pins; with the default DDR timing it calibrates
// the first-read-data latency to the paper's 11 bus cycles.  The engine
// dequeues the next request only when the device data bus will free within 6
// cycles, i.e. command setup (PRE/ACT) overlaps the tail of the current data
// transfer.  Pending transactions therefore wait in the *input FIFO*, which
// is what makes its occupancy statistics (Fig. 6) meaningful and gives
// lookahead/merging a window to work on.
//
// Because the optimisation engine may service queued requests out of order,
// the controller must sit behind an interconnect that supports out-of-order
// completion toward its initiators (STBus Type 3 or AXI) or one that never
// has more than one transaction in flight (AHB).

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/sdram.hpp"
#include "sim/component.hpp"
#include "txn/ports.hpp"

namespace mpsoc::verify {
class VerifyContext;
}  // namespace mpsoc::verify

namespace mpsoc::mem {

struct LmiConfig {
  /// SDRAM clock = bus clock / clock_divider (the off-chip DDR runs slower
  /// than the 250 MHz system interconnect; 2 gives a DDR-250-class device:
  /// 125 MHz command clock, 250 MT/s on 64 bit = 2 GB/s peak).
  unsigned clock_divider = 2;
  unsigned lookahead = 4;        ///< optimisation window (1 = plain FIFO)
  bool opcode_merging = true;
  unsigned merge_limit = 4;      ///< max requests fused into one access
  SdramTiming timing{};
  SdramGeometry geometry{};
};

class LmiController final : public sim::Component {
 public:
  LmiController(sim::ClockDomain& clk, std::string name, txn::TargetPort& port,
                LmiConfig cfg);

  void evaluate() override;
  bool idle() const override;

  const SdramDevice& device() const { return *device_; }

  std::uint64_t requestsServed() const { return served_; }
  std::uint64_t accessesIssued() const { return accesses_; }
  std::uint64_t requestsMerged() const { return merged_; }
  /// Mean requests fused per SDRAM access (1.0 = merging never fired).
  double mergeRatio() const {
    return accesses_ ? static_cast<double>(served_) /
                           static_cast<double>(accesses_)
                     : 0.0;
  }

  /// Attach a TargetMonitor to the bus interface plus the SDRAM command
  /// legality monitor (shadow tRAS/tRCD/tRP/tRC/tWR/tRFC windows) to the
  /// device's command stream.
  void attachMonitors(verify::VerifyContext& ctx);

 private:
  /// Index (within the lookahead window) of the request to serve next.
  std::size_t selectRequest() const;
  /// How many requests, starting at window index `first`, can fuse into one
  /// SDRAM access.  Greedy, bounded by merge_limit and the output FIFO.
  std::size_t mergeRun(std::size_t first) const;

  txn::TargetPort& port_;
  LmiConfig cfg_;
  std::unique_ptr<SdramDevice> device_;
  sim::Picos engine_busy_until_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t accesses_ = 0;
  std::uint64_t merged_ = 0;
  /// Requests fused into the access being issued; empty between calls.
  std::vector<txn::RequestPtr> batch_;

  SIM_STATE_MEMBERS(device_, engine_busy_until_, served_, accesses_, merged_);
  SIM_STATE_EXEMPT(cfg_, "immutable configuration");
  SIM_STATE_EXEMPT(batch_, "per-call scratch");
};

}  // namespace mpsoc::mem
