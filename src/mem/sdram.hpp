#pragma once
// Behavioural SDR/DDR SDRAM device model.
//
// The device is passive: the LMI controller drives it by scheduling accesses,
// and the model resolves each access into the implied command sequence
// (PRECHARGE / ACTIVATE / READ / WRITE / AUTO-REFRESH) under the JEDEC-style
// timing constraints (CL, tRCD, tRP, tRAS, tRC, tWR, tRFC, tREFI), all
// expressed in controller clock cycles.  A DDR device transfers two data
// beats per clock.
//
// Bank state (open row per bank) is tracked so the controller's lookahead
// and opcode-merging optimisations translate into measurable row-hit rate
// and bandwidth differences.

#include <cstdint>
#include <functional>
#include <tuple>
#include <vector>

#include "sim/time.hpp"

namespace mpsoc::mem {

struct SdramTiming {
  unsigned cas_latency = 3;  ///< READ command to first data (CL)
  unsigned t_rcd = 3;        ///< ACTIVATE to READ/WRITE
  unsigned t_rp = 3;         ///< PRECHARGE to ACTIVATE
  unsigned t_ras = 7;        ///< ACTIVATE to PRECHARGE (min)
  unsigned t_rc = 10;        ///< ACTIVATE to ACTIVATE, same bank
  unsigned t_wr = 3;         ///< write recovery before PRECHARGE
  unsigned t_rfc = 12;       ///< AUTO-REFRESH duration
  unsigned t_refi = 1560;    ///< mean interval between refreshes
  bool ddr = true;           ///< two data beats per clock when true
};

struct SdramGeometry {
  unsigned banks = 4;
  std::uint32_t row_bytes = 2048;  ///< row (page) size per bank
};

enum class RowOutcome : std::uint8_t { Hit, Miss, Conflict };

/// One implied device command resolved by schedule()/maybeRefresh(), reported
/// to the optional command observer (consumed by the SDRAM legality monitor
/// in src/verify).  Nothing is built or emitted while no observer is set.
struct SdramCommand {
  enum class Kind : std::uint8_t { Activate, Precharge, Read, Write, Refresh };
  Kind kind = Kind::Activate;
  unsigned bank = 0;
  std::uint64_t row = 0;
  sim::Picos at = 0;          ///< command instant on the command bus
  sim::Picos data_begin = 0;  ///< Read/Write: data window; Refresh: start
  sim::Picos data_end = 0;    ///< Read/Write: data window; Refresh: done
};

using SdramCommandObserver = std::function<void(const SdramCommand&)>;

/// Resolved timing of one burst access.
struct SdramAccess {
  sim::Picos first_beat = 0;   ///< first data beat on the device pins
  sim::Picos beat_period = 0;  ///< full period (SDR) or half period (DDR)
  sim::Picos data_end = 0;     ///< end of the data transfer
  RowOutcome outcome = RowOutcome::Hit;
};

class SdramDevice {
 public:
  SdramDevice(SdramTiming timing, SdramGeometry geom, sim::Picos clk_period);

  /// Schedule a burst of `beats` beats at `addr`, with the first command
  /// issued no earlier than `now`.  Updates bank and data-bus state.
  SdramAccess schedule(std::uint64_t addr, std::uint32_t beats, bool is_write,
                       sim::Picos now);

  /// Perform an auto-refresh if one is due.  Returns true if a refresh was
  /// issued (all banks close; the device is unavailable for tRFC).
  bool maybeRefresh(sim::Picos now);

  unsigned bankOf(std::uint64_t addr) const {
    return static_cast<unsigned>((addr / geom_.row_bytes) % geom_.banks);
  }
  std::uint64_t rowOf(std::uint64_t addr) const {
    return addr / (static_cast<std::uint64_t>(geom_.row_bytes) * geom_.banks);
  }
  /// True if the access would hit the currently open row.
  bool wouldHit(std::uint64_t addr) const;

  /// Instant of the next auto-refresh: maybeRefresh() issues one at the
  /// first call at or after it.
  sim::Picos nextRefreshAt() const { return next_refresh_; }

  /// Instant at which the device data bus finishes its last scheduled
  /// transfer (the controller gates new command sequences on this).
  sim::Picos dataBusFreeAt() const { return data_bus_free_; }

  const SdramTiming& timing() const { return timing_; }
  const SdramGeometry& geometry() const { return geom_; }
  sim::Picos clkPeriod() const { return clk_period_; }

  /// Report every implied device command to `obs` (the SDRAM legality
  /// monitor attaches one when a run sets `verify`).
  void setCommandObserver(SdramCommandObserver obs) {
    cmd_obs_ = std::move(obs);
  }

  std::uint64_t rowHits() const { return hits_; }
  std::uint64_t rowMisses() const { return misses_; }
  std::uint64_t rowConflicts() const { return conflicts_; }
  std::uint64_t refreshes() const { return refreshes_; }
  double rowHitRate() const {
    const std::uint64_t n = hits_ + misses_ + conflicts_;
    return n ? static_cast<double>(hits_) / static_cast<double>(n) : 0.0;
  }

  /// State-manifest hook (src/sim/state.hpp): bank/bus/refresh state plus the
  /// row-outcome counters.  timing_/geom_/clk_period_ are configuration and
  /// cmd_obs_ is an observer callback (exempt by policy).
  auto simStateMembers() {
    return std::tie(banks_, data_bus_free_, next_refresh_, hits_, misses_,
                    conflicts_, refreshes_);
  }

 private:
  struct Bank {
    bool open = false;
    std::uint64_t row = 0;
    sim::Picos act_ok = 0;  ///< earliest next ACTIVATE (tRC / tRP)
    sim::Picos pre_ok = 0;  ///< earliest next PRECHARGE (tRAS / tWR)
    sim::Picos cas_ok = 0;  ///< earliest next READ/WRITE (tRCD)

    auto simStateMembers() { return std::tie(open, row, act_ok, pre_ok, cas_ok); }
  };

  sim::Picos cycles(unsigned n) const {
    return static_cast<sim::Picos>(n) * clk_period_;
  }

  SdramTiming timing_;
  SdramGeometry geom_;
  sim::Picos clk_period_;
  std::vector<Bank> banks_;
  SdramCommandObserver cmd_obs_;
  sim::Picos data_bus_free_ = 0;
  sim::Picos next_refresh_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t conflicts_ = 0;
  std::uint64_t refreshes_ = 0;
};

}  // namespace mpsoc::mem
