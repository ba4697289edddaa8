#include "ahb/ahb_layer.hpp"

#include "sim/check.hpp"
#include "verify/context.hpp"
#include "verify/port_monitor.hpp"

namespace mpsoc::ahb {

using txn::Opcode;
using txn::RequestPtr;

AhbLayer::AhbLayer(sim::ClockDomain& clk, std::string name, AhbLayerConfig cfg)
    : txn::InterconnectBase(clk, std::move(name)), cfg_(cfg), arb_(cfg.arb) {}

void AhbLayer::attachMonitors(verify::VerifyContext& ctx) {
  auto ledger = std::make_shared<verify::SharedLedger>();
  ledger->cap = 1;  // no split transactions: one non-posted owner at a time
  for (std::size_t i = 0; i < initiators_.size(); ++i) {
    verify::InitiatorRules rules;
    rules.in_order = true;
    rules.max_outstanding = 1;
    rules.ledger = ledger;
    ctx.add<verify::InitiatorMonitor>(name_ + ".mon.i" + std::to_string(i),
                                      &clk_, *initiators_[i], rules);
  }
}

void AhbLayer::evaluate() {
  // At most one transaction owns the layer; `advance()` may complete it this
  // cycle, in which case the hidden-handover arbitration immediately grants
  // the next master (the new address phase overlaps the final data beat).
  if (state_ != State::Idle) {
    advance();
  }
  if (state_ == State::Idle) {
    arbitrate();
  }
  // Layer unlocked and every master queue drained: nothing moves until a
  // port push wakes us (wired in addInitiator/addTarget).  The O(1) state
  // test keeps the queue scan off busy cycles.
  if (state_ == State::Idle && requestsDrained()) sleep();
}

bool AhbLayer::requestsDrained() const {
  for (const auto* p : initiators_) {
    if (!p->req.empty()) return false;
  }
  return true;
}

void AhbLayer::arbitrate() {
  cands_.clear();
  for (std::size_t i = 0; i < initiators_.size(); ++i) {
    auto* p = initiators_[i];
    if (p->req.empty()) continue;
    const RequestPtr& f = p->req.front();
    if (!targets_[route(f->addr)]->req.canPush()) continue;
    cands_.push_back({i, f->priority});
  }
  auto winner = arb_.pick(cands_, initiators_.size(), now());
  if (!winner) return;

  active_ini_ = *winner;
  active_ = initiators_[active_ini_]->req.pop();
  active_tgt_ = route(active_->addr);
  trackAccept(active_, active_ini_);
  // The address phase overlaps the previous transaction's final data beat
  // (pipelined handover), so it is not accounted as a separate busy cycle.

  if (active_->op == Opcode::Write) {
    wdata_left_ = active_->beats;
    state_ = State::WriteData;
  } else {
    targets_[active_tgt_]->req.push(active_);
    state_ = State::WaitResponse;
  }
}

void AhbLayer::advance() {
  switch (state_) {
    case State::WriteData: {
      chan_.markTransfer();
      if (--wdata_left_ == 0) {
        targets_[active_tgt_]->req.push(active_);
        // A posted write (e.g. re-issued by a bridge) completes at data
        // acceptance: no response will ever arrive.
        if (active_->posted) {
          active_.reset();
          state_ = State::Idle;
        } else {
          state_ = State::WaitResponse;
        }
      }
      break;
    }
    case State::WaitResponse: {
      auto& fifo = targets_[active_tgt_]->rsp;
      if (!fifo.empty() && fifo.front()->req == active_) {
        stream_.rsp = fifo.front();
        stream_.target = active_tgt_;
        stream_.initiator = active_ini_;
        stream_.next_beat = 0;
        state_ = State::Stream;
        // Fall through into streaming this very cycle: the first data beat
        // may already be due.
        advance();
        return;
      }
      chan_.markHeld();  // slave wait states: idle cycles on a locked bus
      break;
    }
    case State::Stream: {
      if (streamBeat(stream_, chan_)) {
        active_.reset();
        state_ = State::Idle;
      }
      break;
    }
    case State::Idle:
      break;
  }
}

bool AhbLayer::idle() const {
  return state_ == State::Idle && !anyInflight() && requestsDrained();
}

}  // namespace mpsoc::ahb
