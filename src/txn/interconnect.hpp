#pragma once
// InterconnectBase: common structure shared by the STBus node, AHB layer and
// AXI interconnect engines — port registries, address decoding, outstanding
// transaction tracking, and the response-beat streaming helper that turns a
// memory's BeatSchedule into cycle-by-cycle channel occupancy.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/check.hpp"
#include "sim/component.hpp"
#include "stats/probes.hpp"
#include "txn/ports.hpp"
#include "txn/transaction.hpp"

namespace mpsoc::verify {
class VerifyContext;
}  // namespace mpsoc::verify

namespace mpsoc::txn {

class InterconnectBase : public sim::Component {
 public:
  InterconnectBase(sim::ClockDomain& clk, std::string name)
      : sim::Component(clk, std::move(name)) {}

  /// Register a master-side port.  Returns its initiator index.
  std::size_t addInitiator(InitiatorPort& p) {
    initiators_.push_back(&p);
    order_.emplace_back();
    // Activity protocol: a request arriving on any initiator port is a wake
    // event for the engine (it may have slept with all queues drained).
    p.req.wakeOnPush(this);
    // The master taking a response frees room a last beat may wait for.
    if (wake_on_pops_) p.rsp.wakeOnPop(this);
    return initiators_.size() - 1;
  }

  /// Register a slave-side port covering [base, base+size).  Returns its
  /// target index.
  std::size_t addTarget(TargetPort& p, std::uint64_t base, std::uint64_t size) {
    targets_.push_back(&p);
    amap_.add(base, size, targets_.size() - 1);
    // A response surfacing on a target port must wake the engine too.
    p.rsp.wakeOnPush(this);
    // The target taking a request frees room a grant may wait for.
    if (wake_on_pops_) p.req.wakeOnPop(this);
    return targets_.size() - 1;
  }

  std::size_t numInitiators() const { return initiators_.size(); }
  std::size_t numTargets() const { return targets_.size(); }

  /// Decode; unmapped addresses are a configuration error.
  std::size_t route(std::uint64_t addr) const {
    auto t = amap_.lookup(addr);
    SIM_CHECK_CTX(t.has_value(), name_, &clk_,
                  "address 0x" << std::hex << addr << std::dec
                               << " does not decode to any target");
    return *t;
  }

  /// Attach protocol monitors for this engine's initiator-side ports (each
  /// engine knows its own ordering/outstanding rules).  Call after every
  /// addInitiator()/addTarget().  Pure virtual: an engine that forgets it
  /// cannot be instantiated.
  virtual void attachMonitors(verify::VerifyContext& ctx) = 0;

 protected:
  /// Record acceptance of a non-posted request; posted writes are not
  /// tracked (no response will ever arrive).
  void trackAccept(const RequestPtr& req, std::size_t initiator) {
    if (req->posted && req->op == Opcode::Write) return;
    inflight_initiator_[req->id] = initiator;
    order_[initiator].push_back(req->id);
  }

  /// Initiator a response must return to.
  std::size_t initiatorOf(const ResponsePtr& rsp) const {
    auto it = inflight_initiator_.find(rsp->req->id);
    SIM_CHECK_CTX(it != inflight_initiator_.end(), name_, &clk_,
                  "response for unknown request id " << rsp->req->id);
    return it->second;
  }

  /// Oldest outstanding request id for an initiator (in-order delivery rule
  /// of STBus Type 2), or 0 when none.
  std::uint64_t oldestInflight(std::size_t initiator) const {
    const auto& dq = order_[initiator];
    return dq.empty() ? 0 : dq.front();
  }

  std::size_t inflightCount(std::size_t initiator) const {
    return order_[initiator].size();
  }

  bool anyInflight() const { return !inflight_initiator_.empty(); }

  /// Retire a delivered response from the tracking tables.
  void retire(const ResponsePtr& rsp) {
    auto it = inflight_initiator_.find(rsp->req->id);
    SIM_CHECK_CTX(it != inflight_initiator_.end(), name_, &clk_,
                  "retiring response for untracked request id "
                      << rsp->req->id);
    std::size_t ini = it->second;
    inflight_initiator_.erase(it);
    auto& dq = order_[ini];
    dq.erase(std::find(dq.begin(), dq.end(), rsp->req->id));
  }

  /// An in-progress response transfer on a response channel.
  struct RspStream {
    ResponsePtr rsp;
    std::size_t target = 0;     ///< source target port
    std::size_t initiator = 0;  ///< destination initiator port
    std::uint32_t next_beat = 0;

    auto simStateMembers() {
      return std::tie(rsp, target, initiator, next_beat);
    }

    bool active() const { return rsp != nullptr; }
    bool beatDue(sim::Picos now) const {
      return now >= rsp->sched.beatTime(next_beat);
    }
    bool lastBeat() const { return next_beat + 1 == rsp->beats; }
  };

  /// Advance a response stream by at most one beat this cycle.
  ///
  /// Returns true if the stream completed (response delivered to the
  /// initiator and removed from the target FIFO).  `chan` records transfer /
  /// held cycles.  The caller guarantees `s.rsp` is still resident in
  /// `targets_[s.target]->rsp` (front or deeper; it is located by identity on
  /// completion).
  bool streamBeat(RspStream& s, stats::ChannelUtilization& chan) {
    const sim::Picos now = clk_.simulator().now();
    if (!s.beatDue(now)) {
      chan.markHeld();
      return false;
    }
    if (s.lastBeat()) {
      auto& ini = *initiators_[s.initiator];
      if (!ini.rsp.canPush()) {
        chan.markHeld();  // back-pressure from the master's response queue
        return false;
      }
      chan.markTransfer();
      popResponseByIdentity(s.target, s.rsp);
      ini.rsp.push(s.rsp);
      retire(s.rsp);
      s.rsp.reset();
      return true;
    }
    chan.markTransfer();
    ++s.next_beat;
    return false;
  }

  void popResponseByIdentity(std::size_t target, const ResponsePtr& rsp) {
    auto& fifo = targets_[target]->rsp;
    for (std::size_t i = 0; i < fifo.size(); ++i) {
      if (fifo.at(i) == rsp) {
        fifo.popAt(i);
        return;
      }
    }
    SIM_CHECK_CTX(false, name_, &clk_,
                  "response for request id " << rsp->req->id
                                             << " vanished from target FIFO");
  }

  std::vector<InitiatorPort*> initiators_;
  std::vector<TargetPort*> targets_;
  AddressMap amap_;
  /// Set by an engine that sleeps through back-pressure (the STBus node):
  /// ports added afterwards also wake it on a pop of a target's request FIFO
  /// and of an initiator's response FIFO.
  bool wake_on_pops_ = false;

 private:
  std::unordered_map<std::uint64_t, std::size_t> inflight_initiator_;
  /// Outstanding request ids per initiator index, in acceptance order.
  std::vector<std::deque<std::uint64_t>> order_;

  SIM_STATE_MEMBERS(inflight_initiator_, order_);
  SIM_STATE_EXEMPT(initiators_, "wiring (port registry)");
  SIM_STATE_EXEMPT(targets_, "wiring (port registry)");
  SIM_STATE_EXEMPT(amap_, "immutable configuration (address map)");
  SIM_STATE_EXEMPT(wake_on_pops_, "immutable configuration (wake wiring)");
};

}  // namespace mpsoc::txn
