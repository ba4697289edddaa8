#pragma once
// Simulation-facing probes:
//
//  * PhaseSchedule        — named time windows ("working regimes", Fig. 6)
//  * FifoStateProbe       — classifies every cycle of a request FIFO as
//                           full / storing / no-request (+ empty flag), per
//                           phase.  This is exactly the statistic the paper
//                           reports at the LMI bus interface.
//  * ChannelUtilization   — busy/transfer cycle accounting for bus channels
//                           (the "bus efficiency" / "bus utilisation" metric).
//  * LatencyProbe         — end-to-end transaction latency sampler.

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "sim/clock.hpp"
#include "sim/fifo.hpp"
#include "sim/simulator.hpp"
#include "sim/state.hpp"
#include "sim/time.hpp"
#include "stats/stats.hpp"

namespace mpsoc::stats {

/// Named, contiguous time windows over the run.  Phase -1 (before the first
/// window or between windows) is discarded by per-phase accumulators.
class PhaseSchedule {
 public:
  struct Phase {
    std::string name;
    sim::Picos begin;
    sim::Picos end;  // exclusive
  };

  void addPhase(std::string name, sim::Picos begin, sim::Picos end) {
    phases_.push_back({std::move(name), begin, end});
  }

  /// Index of the phase containing t, or -1.
  int phaseAt(sim::Picos t) const {
    for (std::size_t i = 0; i < phases_.size(); ++i) {
      if (t >= phases_[i].begin && t < phases_[i].end) return static_cast<int>(i);
    }
    return -1;
  }

  std::size_t count() const { return phases_.size(); }
  const Phase& phase(std::size_t i) const { return phases_[i]; }

 private:
  std::vector<Phase> phases_;
};

/// Per-phase cycle classification of a request FIFO, sampled at every edge of
/// the FIFO's clock domain via the SyncFifo observer hook:
///
///   full       — occupancy at the start of the edge == capacity
///                (grant deasserted: the interface cannot accept requests);
///   storing    — not full and >=1 request pushed this edge
///                (req=1, gnt=1: the interface is storing a new request);
///   noRequest  — not full and nothing pushed (req=0, gnt=1).
///
/// `empty` is tracked independently (it overlaps noRequest/storing).
///
/// Checkpointable: the probe accumulates from FIFO commit hooks, so a
/// statecheck restore must rewind its buckets or the re-run window
/// double-counts (the platform registers it via Simulator::addCheckpointable;
/// its SIM_STATE manifest generates the hooks).
class FifoStateProbe : public sim::Checkpointable {
 public:
  struct Buckets {
    std::uint64_t cycles = 0;
    std::uint64_t full = 0;
    std::uint64_t storing = 0;
    std::uint64_t no_request = 0;
    std::uint64_t empty = 0;
    Sampler occupancy;

    double fracFull() const { return frac(full); }
    double fracStoring() const { return frac(storing); }
    double fracNoRequest() const { return frac(no_request); }
    double fracEmpty() const { return frac(empty); }

    auto simStateMembers() {
      return std::tie(cycles, full, storing, no_request, empty, occupancy);
    }

   private:
    double frac(std::uint64_t x) const {
      return cycles ? static_cast<double>(x) / static_cast<double>(cycles) : 0.0;
    }
  };

  /// Attach to a FIFO.  `phases` may be null (everything lands in the total).
  /// One probe observes one FIFO (the observer context is this probe).
  template <typename T>
  void attach(sim::SyncFifo<T>& fifo, const PhaseSchedule* phases = nullptr) {
    phases_ = phases;
    if (phases_) per_phase_.resize(phases_->count());
    clk_dom_ = &fifo.clk();
    fifo.setObserver(
        [](void* ctx, const sim::FifoEdgeInfo& info) {
          auto* self = static_cast<FifoStateProbe*>(ctx);
          self->onEdge(info, self->clk_dom_->simulator().now());
        },
        this);
  }

  const Buckets& total() const { return total_; }
  const Buckets& phase(std::size_t i) const { return per_phase_[i]; }
  std::size_t phaseCount() const { return per_phase_.size(); }

  std::string checkpointName() const override { return "fifo-state-probe"; }

 private:
  void onEdge(const sim::FifoEdgeInfo& info, sim::Picos now) {
    classify(total_, info);
    if (phases_) {
      int p = phases_->phaseAt(now);
      if (p >= 0) classify(per_phase_[static_cast<std::size_t>(p)], info);
    }
  }

  static void classify(Buckets& b, const sim::FifoEdgeInfo& info) {
    ++b.cycles;
    if (info.occupancy_before == info.capacity) {
      ++b.full;
    } else if (info.pushed > 0) {
      ++b.storing;
    } else {
      ++b.no_request;
    }
    if (info.occupancy_before == 0) ++b.empty;
    b.occupancy.add(static_cast<double>(info.occupancy_before));
  }

  const PhaseSchedule* phases_ = nullptr;
  sim::ClockDomain* clk_dom_ = nullptr;
  Buckets total_;
  std::vector<Buckets> per_phase_;

  SIM_STATE_MEMBERS(total_, per_phase_);
  SIM_STATE_EXEMPT(clk_dom_, "wiring (the observed FIFO's domain)");
};

/// Channel occupancy accounting.  The owning engine calls exactly one of
/// markTransfer()/markHeld() per cycle in which the channel is occupied;
/// data-beat cycles are transfers, occupied-but-idle cycles (wait states on a
/// locked channel) are held.  Efficiency = transfers / window; utilisation =
/// (transfers + held) / window.
class ChannelUtilization {
 public:
  explicit ChannelUtilization(std::string name = "") : name_(std::move(name)) {}

  void markTransfer() { ++transfers_; }
  void markHeld() { ++held_; }

  std::uint64_t transfers() const { return transfers_; }
  std::uint64_t held() const { return held_; }

  double efficiency(sim::Cycle total_cycles) const {
    return total_cycles ? static_cast<double>(transfers_) /
                              static_cast<double>(total_cycles)
                        : 0.0;
  }
  double utilization(sim::Cycle total_cycles) const {
    return total_cycles ? static_cast<double>(transfers_ + held_) /
                              static_cast<double>(total_cycles)
                        : 0.0;
  }

  const std::string& name() const { return name_; }

  /// State-manifest hook (src/sim/state.hpp); name_ is configuration.
  auto simStateMembers() {
    return std::tie(transfers_, held_);
  }

 private:
  std::string name_;
  std::uint64_t transfers_ = 0;
  std::uint64_t held_ = 0;
};

/// Transaction latency statistics in nanoseconds: streaming moments plus a
/// fixed-bin histogram for tail percentiles (p95/p99 read latency is often
/// the spec that matters for real-time AV IPs).
class LatencyProbe {
 public:
  static constexpr double kMaxNs = 100'000.0;
  static constexpr std::size_t kBins = 1000;

  LatencyProbe() : histogram_(0.0, kMaxNs, kBins) {}

  void record(sim::Picos issued, sim::Picos completed) {
    if (completed >= issued) {
      const double ns = static_cast<double>(completed - issued) / 1000.0;
      latency_ns_.add(ns);
      histogram_.add(ns);
    }
  }
  const Sampler& latencyNs() const { return latency_ns_; }
  const Histogram& histogramNs() const { return histogram_; }
  double quantileNs(double q) const { return histogram_.quantile(q); }

  /// State-manifest hook (src/sim/state.hpp).
  auto simStateMembers() { return std::tie(latency_ns_, histogram_); }

 private:
  Sampler latency_ns_;
  Histogram histogram_;
};

}  // namespace mpsoc::stats
