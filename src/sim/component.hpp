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
  // external event arrives can declare itself quiescent with sleep(); the
  // kernel then skips its evaluate() (when activity gating is on — the
  // default) and counts it as idle without polling.  Waking is the
  // responsibility of whatever delivers the event: FIFO wake hooks
  // (SyncFifo::wakeOnPush / wakeOnPop) fire at commit time of any edge that
  // pushed/popped, and programming interfaces (e.g. DmaEngine::program) call
  // wake() explicitly.
  //
  // Contract: sleep() is only legal while idle() holds — enforced by
  // SIM_CHECK — so gating can never change simulated behaviour, only skip
  // provably no-op evaluations.  Deep-check replay re-evaluates sleeping
  // components and flags any that would have staged work.

  /// True while this component has declared itself quiescent.
  bool asleep() const { return asleep_; }

  /// Clear the quiescent flag; the kernel resumes evaluating this component
  /// from the next edge (or this edge, if called during its evaluate phase
  /// before the component's domain evaluates).  Idempotent.
  void wake();

  ClockDomain& clk() { return clk_; }
  const ClockDomain& clk() const { return clk_; }
  Cycle now() const { return clk_.now(); }
  const std::string& name() const { return name_; }

 protected:
  /// Declare this component quiescent.  Only legal while idle() holds.
  void sleep();

  // --- SIM_STATE base hooks (called by the generated manifest bodies) -------

  /// Snapshot the base-class activity flag (every manifest covers it, so a
  /// replayed or restored window re-sleeps/re-wakes identically).
  void saveStateBase() { state_base_asleep_ = asleep_; }
  /// Restore the activity flag, keeping the kernel's asleep counter balanced.
  void restoreStateBase();
  void digestStateBase(state::Digest& d) const { d.add(asleep() ? 1u : 0u); }

  ClockDomain& clk_;
  std::string name_;

 private:
  bool asleep_ = false;
  bool state_base_asleep_ = false;
};

}  // namespace mpsoc::sim
