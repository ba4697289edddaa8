#pragma once
// Global scheduler.  Owns the clock domains and advances the picosecond
// timeline edge by edge.  Every edge runs in two phases:
//
//   phase 1 (evaluate): all components of all domains whose edge falls on the
//                       current instant run evaluate(); they see only state
//                       committed at earlier edges;
//   phase 2 (commit):   all staged state (SyncFifo pushes/pops, registers) of
//                       those domains becomes visible.
//
// This two-phase discipline makes results independent of component
// registration order and is the custom-kernel equivalent of the SystemC
// delta-cycle semantics the paper's virtual platform relies on.
//
// The edge loop is activity-driven: the next-edge instants are kept in a
// cached schedule (domains grouped by coincident instant, rebuilt only when a
// domain is added), and components that declared themselves quiescent via the
// sleep()/wake() protocol are skipped during evaluate and counted idle
// without polling.  See DESIGN.md "Kernel".

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/clock.hpp"
#include "sim/time.hpp"

namespace mpsoc::sim {

/// Where the kernel is within the two-phase edge protocol.  FIFOs use this to
/// reject mutations outside their legal window: push/pop only during
/// Evaluate.  commit() needs no runtime check: it is private to the kernel.
enum class Phase { Outside, Evaluate, Commit };

namespace state {
class Digest;
}  // namespace state

/// State holder outside the component/updatable graph (verify monitors,
/// stats probes) that must participate in
/// Simulator::checkpoint() so a restored run does not see stale observer
/// state (a monitor remembering in-flight requests from the abandoned
/// timeline would false-positive).  It declares its state with the same
/// SIM_STATE manifest macros as a Component (src/sim/state.hpp), which
/// generate the three hooks below; the base hooks the macros chain are
/// no-ops.  Registered via addCheckpointable(); registration order defines
/// the digest-item order, so register deterministically (construction
/// order).
class Checkpointable {
 public:
  virtual ~Checkpointable() = default;
  virtual bool saveState() = 0;
  virtual void restoreState() = 0;
  virtual std::uint64_t stateDigest() const = 0;
  /// Label of this holder's digest item (see stateDigestItems).
  virtual std::string checkpointName() const = 0;

 protected:
  void saveStateBase() {}
  void restoreStateBase() {}
  void digestStateBase(state::Digest&) const {}
};

/// First state holder whose digest differed between the two passes of
/// Simulator::replayCheck().
struct ReplayDivergence {
  std::string holder;        ///< digest-item label, e.g. "clk:leaky"
  std::uint64_t first = 0;   ///< its digest after the first pass
  std::uint64_t replay = 0;  ///< its digest after the replay
};

class Simulator {
 public:
  Simulator();
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Create (and own) a clock domain.  `mhz` need not be integral.  A domain
  /// added while the simulation is already running gets its first edge at the
  /// next multiple of its period after now() (same grid it would occupy had
  /// it existed from t=0).
  ClockDomain& addClockDomain(const std::string& name, double mhz);

  /// Current global time.  During an edge this is the instant of that edge.
  Picos now() const { return now_ps_; }

  /// Number of edge instants executed so far — the kernel's unit of work.
  /// Sweep harnesses divide this by wall-clock time to report simulation
  /// throughput (edges/s) independently of clock-domain frequencies.
  std::uint64_t edgesExecuted() const { return edges_executed_; }

  /// Current position within the two-phase edge protocol.
  Phase phase() const { return phase_; }

  /// Activity gating (default on): components that called sleep() are skipped
  /// during evaluate.  The sleep contract (only legal while idle()) makes
  /// gating behaviour-neutral; switching it off re-evaluates every component
  /// on every edge and must produce bit-identical results — the equivalence
  /// tests, the check.sh gating smoke and the fuzzer's gated/ungated oracle
  /// assert exactly that.
  void setActivityGating(bool on) { activity_gating_ = on; }
  bool activityGating() const { return activity_gating_; }

  /// Draw a fresh transaction id (txn::Request::id), unique within this
  /// simulation.  The counter is kernel state: checkpoint() saves it, and
  /// deep-check rewinds it after its replay pass, so a replayed window and
  /// the forward pass after a deep-check replay draw the same ids.
  std::uint64_t nextTransactionId() { return next_txn_id_++; }

  /// Number of components currently asleep (activity counter).
  std::size_t asleepComponents() const { return asleep_count_; }

  /// Deep-check mode: at the start of every edge the kernel saves the edge
  /// domains through the checkpoint hooks (component manifests, updatables,
  /// transaction-id counter), runs a replay pass with component order
  /// *reversed* and digests the staged state, rewinds through the same
  /// hooks, then runs the normal forward pass.  It raises InvariantViolation
  /// if the forward pass stages a structurally different result — catching
  /// order-dependent evaluate logic that would break the determinism
  /// guarantee.  The edge commits the forward pass's work, so a deep-checked
  /// run is bit-identical to a plain one and composes with the protocol
  /// monitors.  Every component on the edge must carry a SIM_STATE manifest;
  /// an unmanifested one raises InvariantViolation, as in checkpoint().  The
  /// replay pass evaluates sleeping components too, so a component that
  /// slept while it still had work to stage is caught as a replay/forward
  /// divergence.  Expensive; off by default.
  void setDeepCheck(bool on) { deep_check_ = on; }
  bool deepCheck() const { return deep_check_; }

  /// True while deep-check runs the reversed replay pass of the current
  /// edge.  Observation taps (protocol monitors) and other side-effecting
  /// observers use this to ignore the replay pass, whose work is rewound
  /// before the forward pass stages the same work again.
  bool inReplay() const { return in_replay_; }

  // --- checkpointing (replayCheck; see DESIGN.md) ---------------------------

  /// Register an auxiliary state holder in the checkpoint set.  Must happen
  /// in deterministic (construction) order: the order labels digest items.
  void addCheckpointable(Checkpointable* c);

  /// Snapshot the complete platform state at the current instant: every
  /// component's manifest (saveState), every updatable's committed contents
  /// (saveCheckpoint), every registered Checkpointable's manifest, and the
  /// kernel's own state (now, edge count, transaction-id counter, per-domain
  /// cycle counters and next-edge instants).  Only legal between edges
  /// (Phase::Outside) and with deep-check off — deep-check reuses the same
  /// component and updatable snapshot slots on every edge.  Raises
  /// InvariantViolation naming the first component without a manifest.
  void checkpoint();

  /// Rewind to the last checkpoint().  The component/domain population must
  /// be unchanged since the checkpoint was taken.
  void restoreCheckpoint();

  /// Canonical digest of the complete committed platform state.  Two runs
  /// that took identical decisions hold identical digests at the same
  /// instant.
  std::uint64_t stateDigest() const;

  /// Per-holder labeled digests, appended to `out` in deterministic order —
  /// components by (domain, registration), updatables by domain slot,
  /// kernel time state, then registered checkpointables.  replayCheck()
  /// diffs two of these vectors to name the first diverging holder.
  void stateDigestItems(
      std::vector<std::pair<std::string, std::uint64_t>>& out) const;

  /// Rewind-and-replay oracle: checkpoint(), step up to `edges` edges and
  /// digest every state holder, restoreCheckpoint(), step the same edges
  /// again and digest again.  A component whose SIM_STATE manifest misses a
  /// member its evaluate() reads replays differently and is returned as the
  /// first diverging holder; std::nullopt means the two passes agree.  Raises
  /// InvariantViolation itself when the replayed window ends at a different
  /// time or yields a different number of digest items (kernel time state
  /// not restored, holders registered mid-window).  Either way the run
  /// continues from the end of the window.
  std::optional<ReplayDivergence> replayCheck(std::uint64_t edges);

  /// Advance one edge instant (possibly several coincident domain edges).
  /// Returns false when there are no domains.
  bool step();

  /// Run until `max_time_ps` (absolute) or until `stop` returns true (checked
  /// between edges).  No edge past `max_time_ps` is executed: the upcoming
  /// edge instant is peeked first, and the loop stops when it would exceed
  /// the bound (an edge landing exactly on the bound still runs).  Returns
  /// the final time — the instant of the last executed edge, <= max_time_ps.
  Picos run(Picos max_time_ps,
            const std::function<bool()>& stop = nullptr);

  /// Run until every registered component reports idle() for
  /// `quiesce_edges` consecutive edge instants, or until max_time_ps.
  /// Returns the time of the last non-idle edge (the execution time).
  /// If the platform is already quiescent on entry, returns now() without
  /// executing any edge.  Components registered while the loop runs (mid-run
  /// construction) are picked up and idle-polled from their first edge.
  Picos runUntilIdle(Picos max_time_ps);

  /// Invoke endOfSimulation() on every component exactly once.
  void finish();

  const std::vector<std::unique_ptr<ClockDomain>>& domains() const {
    return domains_;
  }

  /// All components across all domains (for idle checks / finish hooks).
  std::vector<Component*> allComponents() const;

  // --- kernel bookkeeping (called by ClockDomain / Component) ---------------

  void noteComponentAdded(Component* c);
  void noteComponentRemoved(Component* c);
  void noteSleep() { ++asleep_count_; }
  void noteWake() { --asleep_count_; }

 private:
  /// One instant of the cached edge schedule: every domain whose next edge
  /// falls on `t`, in domain registration order.  schedule_ is kept sorted by
  /// t descending, so back() is always the soonest instant.
  struct EdgeSlot {
    Picos t = 0;
    std::vector<ClockDomain*> domains;
  };

  /// Evaluate phase of a deep-checked edge: reversed replay, rewind, forward
  /// pass, staged-digest comparison (see setDeepCheck).
  void evaluateDeepChecked(const std::vector<ClockDomain*>& edge_domains);
  /// Time of the next edge instant, without executing it.
  Picos nextEdgeTime();
  void rebuildSchedule();
  void scheduleDomain(ClockDomain* d);
  void refreshIdleScan();
  bool allIdle() const;

  /// Kernel half of a checkpoint: global time, edge count, transaction-id
  /// counter and each domain's cycle counter / next-edge instant (component
  /// and updatable contents are snapshotted in place by their own hooks).
  struct KernelCheckpoint {
    Picos now_ps = 0;
    std::uint64_t edges = 0;
    std::uint64_t next_txn_id = 0;
    std::vector<std::pair<Cycle, Picos>> domain_state;  // (cycle_, next_edge)
    bool valid = false;
  };

  std::vector<std::unique_ptr<ClockDomain>> domains_;
  Picos now_ps_ = 0;
  std::uint64_t edges_executed_ = 0;
  Phase phase_ = Phase::Outside;
  bool deep_check_ = false;
  bool in_replay_ = false;
  bool finished_ = false;
  bool activity_gating_ = true;
  std::uint64_t next_txn_id_ = 1;

  // Cached coincident-edge schedule (multi-domain path; a single domain short
  // circuits it).  slot_pool_ recycles slot vectors so the steady-state edge
  // loop performs no allocation.
  std::vector<EdgeSlot> schedule_;
  std::vector<std::vector<ClockDomain*>> slot_pool_;
  std::vector<ClockDomain*> edge_scratch_;
  bool schedule_valid_ = false;

  // Checkpoint / deep-check bookkeeping.
  KernelCheckpoint ckpt_;
  std::vector<Checkpointable*> checkpointables_;

  // Activity bookkeeping.
  std::size_t asleep_count_ = 0;
  /// Bumped on every component registration/removal; consumers holding a
  /// component list (runUntilIdle's idle-scan cache) re-derive it on change.
  std::uint64_t component_generation_ = 0;
  std::vector<Component*> idle_scan_;
  std::uint64_t idle_scan_generation_ = ~0ULL;
};

}  // namespace mpsoc::sim
