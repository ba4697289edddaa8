#pragma once
// Base class for everything with per-cycle behaviour (traffic generators,
// interconnect engines, memories, bridges, processors).

#include <cstdint>
#include <string>

#include "sim/clock.hpp"
#include "sim/state.hpp"
#include "sim/time.hpp"

namespace mpsoc::sim {

class Component {
 public:
  Component(ClockDomain& clk, std::string name);
  virtual ~Component();

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  /// Per-edge behaviour.  May read any committed state and stage new state;
  /// staged state becomes visible to other components on the next edge.
  virtual void evaluate() = 0;

  /// True when this component has no further work to contribute: all local
  /// workload issued and every outstanding effect retired.  The simulator can
  /// stop when every component reports idle.
  virtual bool idle() const { return true; }

  /// Hook invoked once when the simulation stops (for stats finalisation).
  virtual void endOfSimulation() {}

  /// State-manifest hooks, generated by the SIM_STATE macro family
  /// (src/sim/state.hpp).  saveState()/restoreState() snapshot / restore all
  /// internal state mutated by evaluate().  Simulator::checkpoint() uses them
  /// for the replayCheck() checkpoint-equivalence oracle, and deep-check
  /// uses the same calls, through the same helper, to rewind its reversed
  /// replay pass before the forward pass of every edge.  Returning false (the
  /// default for an unmanifested component) makes both deep-check and
  /// checkpoint() raise — the `unmanifested-state` lint rule keeps that
  /// default unreachable in kernel code.
  virtual bool saveState() { return false; }
  virtual void restoreState() {}
  /// Canonical digest of all manifested state.  0 for an unmanifested
  /// component.
  virtual std::uint64_t stateDigest() const { return 0; }

  // --- activity protocol ----------------------------------------------------
  //
  // A component that knows its evaluate() would be a no-op until some
  // external event arrives can go to sleep; the kernel then skips its
  // evaluate() (when activity gating is on — the default).  Two entry
  // points:
  //
  //   sleep()           until an event wakes the component (a wired FIFO
  //                     hook or an explicit wake()).
  //   sleepUntil(c)     the same, plus a timed wake: the kernel wakes the
  //                     component at the start of its domain's cycle `c`.
  //
  // The whole activity state is this component's own asleep() and wakeAt();
  // the kernel keeps no copy of it.  A sleeper may hold work (a transaction
  // in flight, a stalled pipeline): runUntilIdle() polls every component's
  // idle(), asleep or not.
  //
  // Waking is the responsibility of whatever delivers the event: FIFO wake
  // hooks (SyncFifo::wakeOnPush / wakeOnPop, AsyncFifo::wakeOnPush) fire at
  // commit time of any edge that pushed/popped, programming interfaces (e.g.
  // DmaEngine::program) call wake() explicitly, and the clock domain's
  // evaluate scan wakes a sleeper whose wakeAt() is due when it reaches it.
  // Any wake clears the asleep state and the timed wake.
  //
  // Contract: while asleep, evaluate() must be a no-op — it stages nothing
  // and leaves stateDigest() unchanged — so gating can never change
  // simulated behaviour, only skip provably empty evaluations.  An ungated
  // run evaluates sleepers anyway (a sleeper re-derives the same sleep() or
  // sleepUntil() call), and deep-check replays every sleeper on every edge
  // and raises InvariantViolation, naming it, if one breaks the contract
  // (staged work on every edge; the state digest on the first edge of each
  // sleep, where a counter bumped per cycle shows at once).  Counters that a
  // waiting component would bump every cycle must therefore be settled
  // lazily (see St220's wait_from_).

  /// True while this component is asleep (sleep() or sleepUntil()).
  bool asleep() const { return asleep_; }
  /// Cycle of the pending timed wake, or 0 for none.
  Cycle wakeAt() const { return wake_at_; }

  /// Clear the asleep state and any timed wake; the kernel resumes
  /// evaluating this component from the next edge (or this edge, if called
  /// during its evaluate phase before the component's domain evaluates).
  /// Idempotent.
  void wake();

  ClockDomain& clk() { return clk_; }
  const ClockDomain& clk() const { return clk_; }
  Cycle now() const { return clk_.now(); }
  const std::string& name() const { return name_; }

 protected:
  /// Sleep until woken.
  void sleep();
  /// Sleep with a timed wake at the start of cycle `c` of this component's
  /// domain.  A cycle not after now() leaves the component awake (its next
  /// evaluate is the next edge either way).
  void sleepUntil(Cycle c);

  // --- SIM_STATE base hooks (called by the generated manifest bodies) -------

  /// Snapshot the base-class activity state (every manifest covers it, so a
  /// replayed or restored window re-sleeps/re-wakes identically).
  void saveStateBase() { saved_activity_ = {asleep_, wake_at_}; }
  /// Restore the activity state.
  void restoreStateBase() {
    asleep_ = saved_activity_.asleep;
    wake_at_ = saved_activity_.wake_at;
  }
  void digestStateBase(state::Digest& d) const {
    d.add(asleep_ ? 1u : 0u);
    d.add(wake_at_);
  }

  ClockDomain& clk_;
  std::string name_;

 private:
  friend class Simulator;

  struct Activity {
    bool asleep = false;
    Cycle wake_at = 0;
  };

  bool asleep_ = false;
  Cycle wake_at_ = 0;
  Activity saved_activity_;
  /// Deep-check bookkeeping (not model state): this sleep's first replay
  /// already verified the state digest.  Cleared by every wake and by
  /// Simulator::restoreCheckpoint().
  bool sleep_checked_ = false;
};

}  // namespace mpsoc::sim
