#pragma once
// Port-level protocol monitors.
//
// InitiatorMonitor binds to one InitiatorPort of an interconnect engine (bus
// layer or NoC mesh) and checks the request/response handshake the way a
// bound SVA module would watch a bus interface:
//   - request legality at issue (burst length, posted-write rules, ids that
//     strictly increase, so no request is issued twice),
//   - grant-side outstanding caps (per-initiator and, for AHB, a ledger
//     shared by every initiator on the layer: one non-posted owner at a
//     time),
//   - response pairing: every response matches an accepted request by
//     identity, respects the protocol's ordering rule (in-order for STBus
//     T1/T2 and AHB; out-of-order allowed for STBus T3 and AXI), and carries
//     the right beat count (read: the request's beats, write ack: 1).
// Together with finish() this is the transaction-conservation check: every
// issued request is answered at most once (exactly once on a drained run),
// and a posted write is never answered.
//
// TargetMonitor binds to a TargetPort of a memory/slave and checks the
// mirror-image contract: requests are serviced at most once, posted writes
// never produce a response, response beat schedules are causal (first beat
// not in the past, positive beat period for multi-beat data).
//
// All checking happens inside SyncFifo payload taps, so the monitored
// component is not modified and the engine code paths are untouched.

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "txn/ports.hpp"
#include "verify/monitor.hpp"

namespace mpsoc::verify {

/// Outstanding budget shared by every initiator of one layer.  Models the
/// AHB rule that a single non-posted transaction owns the layer end to end
/// (the layer re-arbitrates only after the response has been streamed).
struct SharedLedger {
  unsigned cap = 1;
  unsigned count = 0;

  auto simStateMembers() { return std::tie(count); }
};

struct InitiatorRules {
  bool in_order = true;          ///< responses must return in acceptance order
  unsigned max_outstanding = 0;  ///< per-initiator cap (0 = uncapped)
  std::shared_ptr<SharedLedger> ledger;  ///< layer-wide cap, shared (AHB)
  std::uint32_t max_burst_beats = 4096;  ///< request sanity cap
};

class InitiatorMonitor final : public Monitor {
 public:
  InitiatorMonitor(std::string name, const sim::ClockDomain* clk,
                   txn::InitiatorPort& port, InitiatorRules rules);

  void finish(bool expect_drained) const override;

 private:
  void onReqPush(const txn::RequestPtr& r);
  void onReqPop(const txn::RequestPtr& r);
  void onRspPush(const txn::ResponsePtr& r);

  struct Entry {
    std::uint64_t id;
    txn::RequestPtr req;

    auto simStateMembers() { return std::tie(id, req); }
  };

  InitiatorRules rules_;
  std::vector<Entry> queued_;   ///< pushed by the master, not yet granted
  std::deque<Entry> accepted_;  ///< granted, response pending (grant order)
  std::uint64_t last_id_ = 0;   ///< id of the last request issued here

  // The ledger is shared by every monitor of the layer; each one rewinds it
  // to the same saved count, so the repeated restore is idempotent.
  SIM_STATE_MEMBERS_WITH_BASE(Monitor, queued_, accepted_, last_id_,
                              rules_.ledger);
  SIM_STATE_EXEMPT(rules_, "immutable configuration (ledger manifested)");
};

class TargetMonitor final : public Monitor {
 public:
  TargetMonitor(std::string name, const sim::ClockDomain* clk,
                txn::TargetPort& port);

  void finish(bool expect_drained) const override;

 private:
  void onReqPush(const txn::RequestPtr& r);
  void onReqPop(const txn::RequestPtr& r);
  void onRspPush(const txn::ResponsePtr& r);

  struct Entry {
    std::uint64_t id;
    txn::RequestPtr req;
    bool expects_rsp;
    bool in_service = false;  ///< popped from the request FIFO by the slave

    auto simStateMembers() {
      return std::tie(id, req, expects_rsp, in_service);
    }
  };

  std::deque<Entry> pending_;

  SIM_STATE_MEMBERS_WITH_BASE(Monitor, pending_);
};

}  // namespace mpsoc::verify
