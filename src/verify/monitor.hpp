#pragma once
// Attachable protocol monitors (SVA-assertion style) for the bus, bridge and
// memory models.  A monitor observes a component *non-intrusively* through
// the SyncFifo payload taps (sim/fifo.hpp) or the SDRAM command observer and
// raises ProtocolViolation the moment a protocol rule is broken — the
// simulation equivalent of a bound SystemVerilog assertion module.
//
// Cost model: attachment is a run-time opt-in per platform / rig (`verify`
// config flags).  Until a monitor attaches, every hook is an empty tap list
// or a null observer, so an unmonitored run pays a branch per FIFO push/pop
// and nothing else.

#include <cstdint>
#include <string>

#include "sim/check.hpp"
#include "sim/simulator.hpp"
#include "sim/state.hpp"

namespace mpsoc::verify {

/// Thrown by every protocol monitor.  Derives from InvariantViolation so the
/// existing catch sites (tests, tools) keep working while monitor-specific
/// tests can catch the narrower type.
class ProtocolViolation : public sim::InvariantViolation {
 public:
  ProtocolViolation(sim::CheckContext ctx, std::string detail)
      : sim::InvariantViolation(std::move(ctx), std::move(detail)) {}
};

/// Every monitor is a sim::Checkpointable: it lives outside the component
/// graph but tracks in-flight traffic, so Simulator::replayCheck must wind
/// its books back with the platform or the replayed timeline false-positives
/// against stale state.  Subclasses manifest their books with
/// SIM_STATE_MEMBERS_WITH_BASE(Monitor, ...).
class Monitor : public sim::Checkpointable {
 public:
  Monitor(std::string name, const sim::ClockDomain* clk)
      : name_(std::move(name)), clk_(clk) {}
  virtual ~Monitor() = default;

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  const std::string& name() const { return name_; }

  /// Number of port/command events this monitor has checked.  Clean-run
  /// tests assert this is non-zero: a monitor that observed nothing proves
  /// nothing (e.g. it was attached to the wrong port).
  std::uint64_t eventsObserved() const { return events_; }

  /// End-of-run audit.  With `expect_drained` (finite workloads run to
  /// completion) a monitor still tracking an unfinished transaction reports
  /// it as a leak; bounded runs pass false.
  virtual void finish(bool expect_drained) const { (void)expect_drained; }

  std::string checkpointName() const override { return name_; }

 protected:
  void countEvent() { ++events_; }

  /// Format and throw a ProtocolViolation with full clock context.  In debug
  /// builds the report is printed to stderr first (mirrors raiseInvariant),
  /// so a violation surfacing through a noexcept path still leaves a trace.
  [[noreturn]] void fail(const char* file, int line,
                         const std::string& detail) const;

  std::string name_;
  const sim::ClockDomain* clk_;

 private:
  std::uint64_t events_ = 0;

  SIM_STATE_MEMBERS(events_);
  SIM_STATE_EXEMPT(name_, "immutable configuration (monitor name)");
};

// Check macro for monitor member functions: `expr` is an ostream chain,
// evaluated only on failure.  Calls the enclosing Monitor's fail().
#define MPSOC_MON_CHECK(cond, expr)                                          \
  do {                                                                       \
    if (!(cond)) [[unlikely]] {                                              \
      std::ostringstream mon_check_oss__;                                    \
      mon_check_oss__ << expr;                                               \
      fail(__FILE__, __LINE__, mon_check_oss__.str());                       \
    }                                                                        \
  } while (0)

}  // namespace mpsoc::verify
