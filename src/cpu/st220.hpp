#pragma once
// ST220 VLIW DSP model (400 MHz, 32-bit, separate I/D caches).
//
// The paper models the DSP "at the level of its instruction set" running a
// synthetic benchmark "tuned to generate a significant amount of cache misses
// interfering with the traffic patterns of the other cores".  This model
// reproduces that role: a bundle-per-cycle VLIW pipeline front-end drives an
// I-cache over a looping synthetic code footprint, a configurable share of
// bundles perform loads/stores against a D-cache over a mixed
// sequential/random synthetic working set, and every miss becomes a line-fill
// read burst on the bus (blocking, single outstanding — the interesting
// interference comes from refills, not from ILP details).  Dirty write-back
// victims leave as posted write bursts that do not stall the pipeline.

#include <cstdint>

#include "cpu/cache.hpp"
#include "sim/rng.hpp"
#include "txn/master.hpp"

namespace mpsoc::cpu {

struct St220Config {
  CacheConfig icache{16 * 1024, 64, 2};
  CacheConfig dcache{32 * 1024, 32, 4};

  /// Synthetic benchmark shape.
  std::uint64_t code_base = 0;
  std::uint64_t code_footprint = 64 * 1024;  ///< > icache size -> I misses
  std::uint64_t data_base = 0;
  std::uint64_t data_footprint = 256 * 1024;  ///< > dcache size -> D misses
  double load_fraction = 0.25;   ///< bundles performing a load
  double store_fraction = 0.12;  ///< bundles performing a store
  double branch_fraction = 0.1;  ///< bundles redirecting the fetch stream
  double data_random_fraction = 0.35;  ///< pointer-chasing share of accesses

  std::uint64_t total_bundles = 50'000;  ///< workload quota
  std::uint32_t bytes_per_beat = 4;      ///< 32-bit core bus interface
  bool posted_writebacks = true;
  std::uint64_t seed = 1;
};

class St220 final : public txn::MasterBase {
 public:
  St220(sim::ClockDomain& clk, std::string name, txn::InitiatorPort& port,
        St220Config cfg);

  void evaluate() override;
  bool idle() const override;
  /// Workload quota reached.
  bool done() const { return bundles_done_ >= cfg_.total_bundles; }

  std::uint64_t bundlesExecuted() const { return bundles_done_; }
  std::uint64_t stallCycles() const { return stall_cycles_ + waitedCycles(); }
  const Cache& icache() const { return icache_; }
  const Cache& dcache() const { return dcache_; }
  /// Cycles per executed bundle (1.0 = never stalled).
  double cpi() const {
    return bundles_done_
               ? static_cast<double>(active_cycles_ + waitedCycles()) /
                     static_cast<double>(bundles_done_)
               : 0.0;
  }

 protected:
  void onResponse(const txn::ResponsePtr& rsp) override;

 private:
  /// Issue a demand fill now, or queue it for retry if the port is full.
  void scheduleFill(std::uint64_t line_addr, std::uint32_t line_bytes);
  void issueFill(std::uint64_t line_addr, std::uint32_t line_bytes);
  void issueWriteback(std::uint64_t line_addr, std::uint32_t line_bytes);
  std::uint64_t nextDataAddr();
  /// Park on the miss just scheduled: the cycles from the next one on are
  /// stall cycles, counted when the wait ends (settleWait).
  void waitForFill();
  /// Add the stall cycles [wait_from_, now) to the counters.
  void settleWait();
  /// Stall cycles elapsed in the current wait and not yet settled (the
  /// counters' getters add them, so they read exact between edges).
  std::uint64_t waitedCycles() const {
    return wait_from_ != 0 ? now() + 1 - wait_from_ : 0;
  }

  St220Config cfg_;
  Cache icache_;
  Cache dcache_;
  sim::Rng rng_;

  std::uint64_t pc_;
  std::uint64_t data_seq_;
  std::uint64_t bundles_done_ = 0;
  std::uint64_t active_cycles_ = 0;
  std::uint64_t stall_cycles_ = 0;
  bool stalled_ = false;  ///< waiting for a demand fill
  /// First stall cycle of the current parked wait not yet added to
  /// active_cycles_/stall_cycles_; 0 when not waiting.
  sim::Cycle wait_from_ = 0;
  /// A demand fill that could not be issued yet (port/outstanding full).
  bool fill_pending_ = false;
  std::uint64_t pending_fill_addr_ = 0;
  std::uint32_t pending_fill_bytes_ = 0;

  SIM_STATE_MEMBERS_WITH_BASE(txn::MasterBase, icache_, dcache_, rng_, pc_,
                              data_seq_, bundles_done_, active_cycles_,
                              stall_cycles_, stalled_, wait_from_,
                              fill_pending_, pending_fill_addr_,
                              pending_fill_bytes_);
  SIM_STATE_EXEMPT(cfg_, "immutable configuration");
};

}  // namespace mpsoc::cpu
