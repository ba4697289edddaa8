#pragma once
// A clock domain: a periodic edge source that drives a set of components and
// commits the staged state (FIFOs, registers) bound to it.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace mpsoc::sim {

class ClockDomain;
class Component;
class Simulator;
class Updatable;

/// Anything holding staged (to-be-registered) state that must become visible
/// only at the end of the current clock edge.  SyncFifo is the main
/// implementer; user components may register their own.
///
/// Commit scheduling: an Updatable that stages work during an edge must call
/// ClockDomain::queueCommit(this) (FIFOs do this on every push/pop); the
/// domain then commits exactly the touched updatables at the end of the edge.
/// There is no other commit policy: an untouched updatable is not committed,
/// so anything that accounts per cycle (FifoStateProbe) settles the quiet
/// cycles between two commits itself.
///
/// Rewinding: the checkpoint hooks below are the only way an updatable is
/// snapshotted and restored.  Simulator::checkpoint() uses them between
/// edges, and deep-check uses them at the start of every edge to rewind the
/// replay pass (see Simulator::setDeepCheck).
class Updatable {
 public:
  virtual ~Updatable() = default;

  // --- deep-check hooks (see Simulator::setDeepCheck) -----------------------

  /// Structural digest of the state staged this edge (push/pop counts and a
  /// running hash of out-of-order removal positions).  Two evaluate passes
  /// that stage different amounts or shapes of work produce different
  /// digests.
  virtual std::uint64_t stagedDigest() const { return 0; }
  /// Validate internal structural invariants; raise InvariantViolation on
  /// corruption.  Called per edge in deep-check mode.
  virtual void checkInvariants() const {}
  /// Name used by deep-check divergence reports (FIFOs return their
  /// instance name so a replay mismatch points at the guilty queue).
  virtual const std::string& updatableName() const {
    static const std::string anon = "<unnamed updatable>";
    return anon;
  }

  // --- checkpoint hooks (see Simulator::checkpoint) -------------------------

  /// Snapshot all registered state so the kernel can restore this updatable
  /// to the current instant later.  Called when nothing is staged: between
  /// edges (checkpoint()) or at the start of an edge, before any evaluate
  /// (deep-check).  restoreCheckpoint() also discards anything staged since.
  virtual void saveCheckpoint() = 0;
  virtual void restoreCheckpoint() = 0;
  /// Canonical digest of the committed contents (src/sim/state.hpp).
  virtual std::uint64_t checkpointDigest() const = 0;

 private:
  friend class ClockDomain;
  /// Commit staged state.  Called once per edge, after every component in the
  /// edge's domains has run evaluate().  Private: only ClockDomain::commitEdge
  /// calls it, so a commit from component code is a compile error.
  virtual void commit() = 0;

  bool commit_queued_ = false;  ///< enqueued for commit at this edge's end
};

/// A named clock domain with a fixed period.  Components register themselves
/// on construction.  The Simulator advances domains in lock-step on the global
/// picosecond timeline; coincident edges across domains are evaluated together
/// before any state commits, so simulation results are independent of
/// registration order.
class ClockDomain {
 public:
  ClockDomain(Simulator& sim, std::string name, Picos period_ps);

  ClockDomain(const ClockDomain&) = delete;
  ClockDomain& operator=(const ClockDomain&) = delete;

  const std::string& name() const { return name_; }
  Picos period() const { return period_ps_; }

  /// Local cycle count: number of edges seen so far.  During evaluate() of
  /// edge N this reads N (first edge is cycle 1, at t = period).
  Cycle now() const { return cycle_; }

  Simulator& simulator() { return sim_; }
  const Simulator& simulator() const { return sim_; }

  const std::vector<Component*>& components() const { return components_; }

  // Registration (components and updatables).  Definitions live in
  // clock.cpp (they need the Simulator type).  An updatable commits only on
  // edges where it called queueCommit().
  void addComponent(Component* c);
  void removeComponent(Component* c);
  void addUpdatable(Updatable* u);
  void removeUpdatable(Updatable* u);

  /// Enqueue `u` for commit at the end of the current edge.  Idempotent per
  /// edge.  FIFOs call this from push/pop, so a FIFO is committed exactly on
  /// the edges that touched it and an untouched one costs nothing in the
  /// commit phase.
  void queueCommit(Updatable* u) {
    if (u->commit_queued_) return;
    u->commit_queued_ = true;
    commit_queue_.push_back(u);
  }

  /// Time of the next edge on the global timeline.
  Picos nextEdge() const { return next_edge_ps_; }

  /// First cycle of this domain whose edge falls at or after `t` (the cycle
  /// a component waiting for instant `t` passes to sleepUntil()).  Only
  /// meaningful while the domain evaluates its current edge.
  Cycle cycleAt(Picos t) const {
    // During evaluate next_edge_ps_ still holds the current edge's instant.
    if (t <= next_edge_ps_) return cycle_;
    return cycle_ + (t - next_edge_ps_ + period_ps_ - 1) / period_ps_;
  }

  /// Phase 1 of an edge: bump the cycle counter and run every component,
  /// skipping sleeping ones when activity gating is on.  The same scan fires
  /// timed wakes: a sleeper whose wakeAt() is due at the new cycle is woken
  /// at its own position and evaluated, gated or not.  (Deep-check's
  /// reversed replay pass is driven by the Simulator; see setDeepCheck.)
  void evaluateEdge();
  /// Phase 2 of an edge: commit all staged state and schedule the next edge.
  void commitEdge();

  const std::vector<Updatable*>& updatables() const { return updatables_; }

 private:
  friend class Simulator;

  /// Wake every sleeper whose timed wake is due at the cycle about to run,
  /// with the due test evaluateEdge() applies during its scan.  Only
  /// deep-check calls it, so the edge it saves sees those components awake.
  void wakeDue();

  /// First edge of a domain created while the simulation is already running:
  /// align to the next multiple of the period strictly after `now`, so the
  /// late domain lands on the same grid it would occupy had it existed from
  /// t=0 (coincidences with same-period domains are preserved).
  void alignFirstEdge(Picos now) {
    next_edge_ps_ = (now / period_ps_ + 1) * period_ps_;
  }

  Simulator& sim_;
  std::string name_;
  Picos period_ps_;
  Picos next_edge_ps_;
  Cycle cycle_ = 0;
  std::vector<Component*> components_;
  std::vector<Updatable*> updatables_;
  std::vector<Updatable*> commit_queue_;
};

}  // namespace mpsoc::sim
