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

/// Per-phase cycle classification of a request FIFO, one sample per edge of
/// the FIFO's clock domain:
///
///   full       — occupancy at the start of the edge == capacity
///                (grant deasserted: the interface cannot accept requests);
///   storing    — not full and >=1 request pushed this edge
///                (req=1, gnt=1: the interface is storing a new request);
///   noRequest  — not full and nothing pushed (req=0, gnt=1).
///
/// `empty` is tracked independently (it overlaps noRequest/storing).
///
/// The SyncFifo observer hook fires only on edges that pushed or popped.  The
/// probe keeps the last observed edge (cycle, instant, occupancy after it)
/// and classifies each cycle between it and the next observed edge as a
/// quiet edge (occupancy unchanged, nothing pushed or popped): one sample per
/// cycle, in cycle order, in the phase of that cycle's own instant, so the
/// buckets equal those of a probe that saw every edge.  total() and phase(i)
/// return copies settled through the domain's current cycle without changing
/// the probe; they are exact between edges.
///
/// Checkpointable: the probe accumulates from FIFO commit hooks, so a
/// statecheck restore must rewind its buckets and its last observed edge, or
/// the re-run window double-counts or drops cycles (the platform registers
/// it via Simulator::addCheckpointable; its SIM_STATE manifest generates the
/// hooks).
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
    capacity_ = fifo.capacity();
    last_cycle_ = clk_dom_->now();
    last_t_ = clk_dom_->nextEdge() - clk_dom_->period();
    last_occ_ = fifo.registeredSize();
    fifo.setObserver(
        [](void* ctx, const sim::FifoEdgeInfo& info) {
          static_cast<FifoStateProbe*>(ctx)->onEdge(info);
        },
        this);
  }

  Buckets total() const {
    Buckets b = total_;
    forEachQuiet(currentCycle(),
                 [&b](int, const sim::FifoEdgeInfo& q) { classify(b, q); });
    return b;
  }
  Buckets phase(std::size_t i) const {
    Buckets b = per_phase_[i];
    forEachQuiet(currentCycle(), [&b, i](int p, const sim::FifoEdgeInfo& q) {
      if (p == static_cast<int>(i)) classify(b, q);
    });
    return b;
  }
  std::size_t phaseCount() const { return per_phase_.size(); }

  std::string checkpointName() const override { return "fifo-state-probe"; }

 private:
  void onEdge(const sim::FifoEdgeInfo& info) {
    const sim::Cycle cycle = clk_dom_->now();
    forEachQuiet(cycle - 1, [this](int p, const sim::FifoEdgeInfo& q) {
      record(p, q);
    });
    const sim::Picos now = clk_dom_->simulator().now();
    record(phases_ ? phases_->phaseAt(now) : -1, info);
    last_cycle_ = cycle;
    last_t_ = now;
    last_occ_ = info.occupancy_after;
  }

  sim::Cycle currentCycle() const { return clk_dom_ ? clk_dom_->now() : 0; }

  /// Call f(phase, quiet edge) for each cycle after the last observed edge
  /// through `through`, in cycle order; `phase` is the schedule index of the
  /// cycle's instant, or -1.
  template <typename F>
  void forEachQuiet(sim::Cycle through, F&& f) const {
    const sim::FifoEdgeInfo quiet{last_occ_, last_occ_, 0, 0, capacity_};
    sim::Picos t = last_t_;
    for (sim::Cycle c = last_cycle_ + 1; c <= through; ++c) {
      t += clk_dom_->period();
      f(phases_ ? phases_->phaseAt(t) : -1, quiet);
    }
  }

  void record(int phase, const sim::FifoEdgeInfo& info) {
    classify(total_, info);
    if (phase >= 0) classify(per_phase_[static_cast<std::size_t>(phase)], info);
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
  std::size_t capacity_ = 0;
  Buckets total_;
  std::vector<Buckets> per_phase_;
  // Last observed (pushed or popped) edge; the cycles after it are quiet.
  sim::Cycle last_cycle_ = 0;
  sim::Picos last_t_ = 0;
  std::size_t last_occ_ = 0;

  SIM_STATE_MEMBERS(total_, per_phase_, last_cycle_, last_t_, last_occ_);
  SIM_STATE_EXEMPT(clk_dom_, "wiring (the observed FIFO's domain)");
  SIM_STATE_EXEMPT(capacity_, "configuration (the observed FIFO's capacity)");
};

/// Channel occupancy accounting: data-beat cycles are transfers,
/// occupied-but-idle cycles (wait states on a locked channel) are held.  An
/// engine either calls exactly one of markTransfer()/markHeld() per cycle in
/// which the channel is occupied, or settles a whole occupancy at once with
/// add() (the STBus node, which sleeps through its streams).
class ChannelUtilization {
 public:
  void markTransfer() { ++transfers_; }
  void markHeld() { ++held_; }
  void add(std::uint64_t transfers, std::uint64_t held) {
    transfers_ += transfers;
    held_ += held;
  }

  std::uint64_t transfers() const { return transfers_; }
  std::uint64_t held() const { return held_; }

  /// State-manifest hook (src/sim/state.hpp).
  auto simStateMembers() { return std::tie(transfers_, held_); }

 private:
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
