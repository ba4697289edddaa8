#pragma once
// Loosely-timed (LT) fast-forward engine — the "multi-abstraction" mode.
//
// The cycle-accurate kernel prices every FIFO slot and arbitration edge; that
// fidelity is wasted on warm-up phases whose only job is to reach steady
// state.  FastForward runs those phases with temporal decoupling: simulated
// time advances in fixed quanta (PlatformConfig::ff_quantum_ps) and each
// master consumes its quantum analytically — a demand plan (bytes +
// transactions it could issue given its pacing and the round-trip latency of
// its route), a byte budget derived from the bottleneck channel's bandwidth,
// and a proportional grant when total demand exceeds the budget.  No kernel
// edges execute during a quantum; at the end of the region the kernel clock
// domains are advanced once onto the original coincident-edge grid
// (Simulator::fastForwardTo) and the platform performs a checkpoint→restore
// round trip so only manifest-captured state crosses into the accurate
// region.
//
// Approximation contract (see DESIGN.md "Multi-abstraction execution"):
//   * LT traffic is accounted in the separate lt_* counters on MasterBase —
//     the accurate counters and the canonical result digest never see it.
//   * Transactions in flight at FF entry stay frozen in their FIFOs and
//     complete after handoff at their stale scheduled times.
//   * The engine draws no random numbers, so the fast-forwarded prefix is
//     bit-identical run after run.
//
// Validation discipline: every component implementing an LT hook carries an
// "LT-EQUIV:" tag naming its accurate/LT equivalence test (enforced by the
// mpsoc_lint `lt-equiv-tag` rule); the handoff itself is gated by the
// ff-handoff oracle (Platform::run) which digest-compares the accurate
// region against a re-run from the same checkpoint.

#include <cstdint>
#include <vector>

#include "sim/clock.hpp"

namespace mpsoc::sim {

class Simulator;

/// A channel (bus, bridge, memory controller) on an LT route.  Latencies add
/// along the route; the route bandwidth is the minimum of the non-zero caps.
class LtChannel {
 public:
  virtual ~LtChannel() = default;
  /// One-way traversal latency contributed by this channel, in picoseconds.
  virtual Picos ltLatencyPs() const = 0;
  /// Sustained throughput cap in bytes per picosecond; 0 means uncapped.
  virtual double ltBytesPerPs() const = 0;
};

/// Demand planned (or committed) by an agent for one quantum.
struct LtDemand {
  std::uint64_t bytes = 0;
  std::uint64_t transactions = 0;
};

/// A traffic master with a loosely-timed issue path.
class LtAgent {
 public:
  virtual ~LtAgent() = default;
  /// Plan the demand this agent would generate over [now, now+quantum) given
  /// the round-trip latency of its route.  Must not mutate agent state.
  virtual LtDemand ltPlan(Picos now, Picos quantum,
                          Picos route_latency_ps) = 0;
  /// Commit the quantum: `granted_bytes` ≤ `planned.bytes` is the byte
  /// budget this agent actually received.  Returns what was committed (the
  /// engine accounts stats from the return value).
  virtual LtDemand ltCommit(Picos now, Picos quantum, const LtDemand& planned,
                            std::uint64_t granted_bytes) = 0;
  /// True once the agent's workload quota is exhausted.
  virtual bool ltDone() const = 0;
};

struct FastForwardStats {
  std::uint64_t quanta = 0;
  std::uint64_t lt_transactions = 0;
  std::uint64_t lt_bytes = 0;
  Picos skipped_ps = 0;
};

/// The quantum engine.  Build one per platform, register one route per
/// master, then runTo(boundary).  Deterministic: plain integer/double
/// arithmetic over registered routes in registration order, no RNG, no
/// threads.
class FastForward {
 public:
  FastForward(Simulator& sim, Picos quantum_ps);

  /// Register `agent` reached through `channels` (in traversal order).
  void addRoute(LtAgent* agent, std::vector<const LtChannel*> channels);

  /// Declare the shared bottleneck whose bandwidth caps the per-quantum byte
  /// budget across all routes (typically the memory controller).  Without
  /// one the budget is unbounded and only per-route caps apply.
  void setBottleneck(const LtChannel* ch);

  /// Fast-forward simulated time to `until` (≥ sim.now()), then advance the
  /// kernel clock grid once via Simulator::fastForwardTo.
  void runTo(Picos until);

  const FastForwardStats& stats() const { return stats_; }

 private:
  struct Route {
    LtAgent* agent = nullptr;
    Picos latency_ps = 0;      // sum of channel latencies (one-way)
    double bytes_per_ps = 0;   // min of non-zero channel caps; 0 = uncapped
  };

  Simulator& sim_;
  Picos quantum_ps_;
  const LtChannel* bottleneck_ = nullptr;
  std::vector<Route> routes_;
  FastForwardStats stats_;
};

}  // namespace mpsoc::sim
