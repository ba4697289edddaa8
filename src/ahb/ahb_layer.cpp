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
  settle();
}

void AhbLayer::settle() {
  switch (state_) {
    case State::Idle:
      // Every master queue drained, or every head request faces a full
      // target: a request push or a target pop wakes us (wired in
      // addInitiator/addTarget).
      sleep();
      break;
    case State::WriteData:
      sleepUntil(last_at_);
      break;
    case State::WaitResponse:
      sleep();  // the target's response push wakes us
      break;
    case State::Stream:
      if (now() < last_at_) {
        sleepUntil(last_at_);
      } else {
        sleep();  // the last beat waits for a pop of the master's queue
      }
      break;
  }
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
  SIM_CHECK_CTX(active_->beats > 0, name_, &clk_,
                "request id " << active_->id << " carries no beat");
  active_tgt_ = route(active_->addr);
  trackAccept(active_, active_ini_);
  // The address phase overlaps the previous transaction's final data beat
  // (pipelined handover), so it is not accounted as a separate busy cycle.
  since_ = now();

  if (active_->op == Opcode::Write) {
    // One data beat per cycle after the address phase.
    last_at_ = since_ + active_->beats;
    state_ = State::WriteData;
  } else {
    targets_[active_tgt_]->req.push(active_);
    state_ = State::WaitResponse;
  }
}

void AhbLayer::advance() {
  switch (state_) {
    case State::WriteData: {
      if (now() < last_at_) break;
      chan_.add(active_->beats, 0);
      targets_[active_tgt_]->req.push(active_);
      // A posted write (e.g. re-issued by a bridge) completes at data
      // acceptance: no response will ever arrive.
      if (active_->posted) {
        active_.reset();
        state_ = State::Idle;
      } else {
        since_ = now();
        state_ = State::WaitResponse;
      }
      break;
    }
    case State::WaitResponse: {
      auto& fifo = targets_[active_tgt_]->rsp;
      if (fifo.empty() || fifo.front()->req != active_) break;
      // Slave wait states: idle cycles on a locked bus, from the cycle after
      // the request reached the target to the one before the response.
      chan_.add(0, now() - since_ - 1);
      rsp_ = fifo.front();
      SIM_CHECK_CTX(rsp_->beats > 0, name_, &clk_,
                    "response for request id " << active_->id
                                               << " carries no beat");
      since_ = now();
      since_ps_ = clk_.simulator().now();
      last_at_ = lastBeatCycle(*rsp_, 0, since_, since_ps_);
      state_ = State::Stream;
      // Fall through into streaming this very cycle: the last beat may
      // already be due.
      advance();
      return;
    }
    case State::Stream: {
      // Beats go out as they fall due; the last one only into room in the
      // master's response queue, the channel held until then.
      auto& ini = *initiators_[active_ini_];
      if (now() < last_at_ || !ini.rsp.canPush()) break;
      chan_.add(rsp_->beats, now() - since_ + 1 - rsp_->beats);
      popResponseByIdentity(active_tgt_, rsp_);
      ini.rsp.push(rsp_);
      retire(rsp_);
      rsp_.reset();
      active_.reset();
      state_ = State::Idle;
      break;
    }
    case State::Idle:
      break;
  }
}

stats::ChannelUtilization AhbLayer::channel() const {
  stats::ChannelUtilization chan = chan_;
  switch (state_) {
    case State::WriteData:
      chan.add(now() - since_, 0);
      break;
    case State::WaitResponse:
      chan.add(0, now() - since_);
      break;
    case State::Stream: {
      const std::uint64_t cycles = now() - since_ + 1;
      const std::uint32_t out =
          beatsOutBefore(*rsp_, 0, since_, since_ps_, now() + 1);
      chan.add(out, cycles - out);
      break;
    }
    case State::Idle:
      break;
  }
  return chan;
}

bool AhbLayer::idle() const {
  return state_ == State::Idle && !anyInflight() && requestsDrained();
}

}  // namespace mpsoc::ahb
