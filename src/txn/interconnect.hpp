#pragma once
// InterconnectBase: common structure shared by the STBus node, AHB layer and
// AXI interconnect engines — port registries, address decoding, outstanding
// transaction tracking, and the beat walk that turns a memory's BeatSchedule
// into the cycles a response's beats cross a data channel.
//
// Activity: every engine keeps absolute cycles for its streams and waits
// (the cycle a payload's last beat goes out, the cycle a response's last
// beat is due) and sleeps between them, so no engine counts beats down per
// cycle.  The ports wake it on every event it can wait for: a push into an
// initiator's request FIFO or a target's response FIFO, and a pop from a
// target's request FIFO (room for a grant) or an initiator's response FIFO
// (room for a last beat).

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/check.hpp"
#include "sim/component.hpp"
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
    p.rsp.wakeOnPop(this);
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
    p.req.wakeOnPop(this);
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

  /// Walk the beats of `rsp` from beat `first` on a data channel where that
  /// beat may go out no earlier than cycle `from`, whose edge falls at
  /// `from_ps`: one beat per cycle, each on the first edge at or after its
  /// beatTime.  Calls `f(k, cycle)` for k = first, first + 1, ... until it
  /// returns false.
  template <typename F>
  void walkBeats(const Response& rsp, std::uint32_t first, sim::Cycle from,
                 sim::Picos from_ps, F&& f) const {
    const sim::Picos period = clk_.period();
    sim::Cycle c = from;
    for (std::uint32_t k = first; k < rsp.beats; ++k, ++c) {
      const sim::Picos due = rsp.sched.beatTime(k);
      if (due > from_ps) {
        c = std::max(c, from + (due - from_ps + period - 1) / period);
      }
      if (!f(k, c)) return;
    }
  }

  /// Cycle of the last beat of `rsp` walked from beat `first` (walkBeats).
  sim::Cycle lastBeatCycle(const Response& rsp, std::uint32_t first,
                           sim::Cycle from, sim::Picos from_ps) const {
    sim::Cycle last = from;
    walkBeats(rsp, first, from, from_ps, [&](std::uint32_t, sim::Cycle c) {
      last = c;
      return true;
    });
    return last;
  }

  /// Beats of `rsp` from `first` on (walkBeats) out on cycles before `end`,
  /// the last beat excepted: it goes out only when the response retires.
  std::uint32_t beatsOutBefore(const Response& rsp, std::uint32_t first,
                               sim::Cycle from, sim::Picos from_ps,
                               sim::Cycle end) const {
    std::uint32_t out = 0;
    walkBeats(rsp, first, from, from_ps, [&](std::uint32_t k, sim::Cycle c) {
      if (k + 1 == rsp.beats || c >= end) return false;
      ++out;
      return true;
    });
    return out;
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

 private:
  std::unordered_map<std::uint64_t, std::size_t> inflight_initiator_;
  /// Outstanding request ids per initiator index, in acceptance order.
  std::vector<std::deque<std::uint64_t>> order_;

  SIM_STATE_MEMBERS(inflight_initiator_, order_);
  SIM_STATE_EXEMPT(initiators_, "wiring (port registry)");
  SIM_STATE_EXEMPT(targets_, "wiring (port registry)");
  SIM_STATE_EXEMPT(amap_, "immutable configuration (address map)");
};

}  // namespace mpsoc::txn
