#pragma once
// End-to-end bridge fidelity monitor.
//
// A Bridge absorbs a transaction on its side-A target port, clones it with a
// fresh id (same root_id) and repacked beats for the side-B bus width, and
// forwards the clone through its side-B initiator port.  This monitor keys
// every check on root_id and asserts that nothing is lost, duplicated or
// corrupted across the crossing:
//   - every side-B clone corresponds to exactly one absorbed side-A original
//     and preserves opcode / address / priority / msg_id,
//   - payload size is conserved modulo width conversion: the clone carries
//     at least the original bytes and at most one extra side-B beat of
//     round-up (txn::repackBeats rounds up to whole beats),
//   - side-A responses return the *original* request object, read data only
//     after the clone was forwarded (store-and-forward), and with the
//     side-A beat count,
//   - at teardown nothing is stuck half-way through the bridge.
//
// Posted side-B forwarding and early write acks are part of the bridge's
// contract (cut-through latency hiding), so a write ack before the forward
// is legal; read data before the forward is not.

#include <cstdint>
#include <deque>
#include <string>
#include <tuple>

#include "txn/ports.hpp"
#include "verify/monitor.hpp"

namespace mpsoc::verify {

class BridgeMonitor final : public Monitor {
 public:
  /// `a_clk` is side A's clock domain (used for violation context);
  /// `width_b` is the side-B bus width in bytes (clone beat width).
  BridgeMonitor(std::string name, const sim::ClockDomain* a_clk,
                txn::TargetPort& a_port, txn::InitiatorPort& b_port,
                std::uint32_t width_b);

  void finish(bool expect_drained) const override;

 private:
  void onAbsorb(const txn::RequestPtr& r);
  void onForward(const txn::RequestPtr& clone);
  void onRspA(const txn::ResponsePtr& r);

  struct Xfer {
    txn::RequestPtr orig;
    bool needs_rsp;  ///< side-A response expected (false for posted writes)
    bool forwarded = false;
    bool responded = false;

    auto simStateMembers() {
      return std::tie(orig, needs_rsp, forwarded, responded);
    }
  };

  void maybeRetire(std::deque<Xfer>::iterator it);

  std::uint32_t width_b_;
  std::deque<Xfer> live_;  ///< keyed by orig->root_id, absorb order

  SIM_STATE_MEMBERS_WITH_BASE(Monitor, live_);
  SIM_STATE_EXEMPT(width_b_, "immutable configuration");
};

}  // namespace mpsoc::verify
