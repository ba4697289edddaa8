#pragma once
// VerifyContext: the per-platform registry that owns every attached protocol
// monitor.
//
// A platform (or rig) that opts into verification creates one VerifyContext
// on its simulator, walks its components calling attachMonitors(ctx), and
// calls finish() at the end of the run.  Monitors raise ProtocolViolation
// the instant a rule is broken; finish() performs the teardown audits
// (transactions a monitor still tracks are leaks).
//
// A run that leaves `verify` off never creates a context: every hook that
// would feed one (FIFO taps, the SDRAM command observer) is an empty-vector
// or null-pointer test, so monitoring costs nothing until it is attached.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "verify/monitor.hpp"

namespace mpsoc::verify {

/// The context registers every monitor it constructs with the simulator
/// (Simulator::addCheckpointable), in construction order, so a state restore
/// rewinds each one's books through its SIM_STATE manifest and each is its
/// own digest item, labelled by name.  The simulator must outlive the
/// context's last checkpoint.
class VerifyContext {
 public:
  explicit VerifyContext(sim::Simulator& sim);
  ~VerifyContext();

  VerifyContext(const VerifyContext&) = delete;
  VerifyContext& operator=(const VerifyContext&) = delete;

  /// Construct a monitor in place; the context owns it.  Returns a reference
  /// so callers can wire observers (e.g. the SDRAM command observer).
  template <class M, class... Args>
  M& add(Args&&... args) {
    auto m = std::make_unique<M>(std::forward<Args>(args)...);
    M& ref = *m;
    sim_.addCheckpointable(&ref);
    monitors_.push_back(std::move(m));
    return ref;
  }

  std::size_t monitorCount() const { return monitors_.size(); }

  /// Total port/command events checked across all monitors.  Clean-run tests
  /// assert this is non-zero to prove the monitors actually observed traffic.
  std::uint64_t eventsObserved() const;

  /// Teardown audit: every monitor's finish().  `expect_drained` = the
  /// workload ran to completion, so anything still in flight is a leak; pass
  /// false after bounded (runFor-style) runs.
  void finish(bool expect_drained) const;

 private:
  sim::Simulator& sim_;
  std::vector<std::unique_ptr<Monitor>> monitors_;
};

}  // namespace mpsoc::verify
