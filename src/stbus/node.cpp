#include "stbus/node.hpp"

#include "sim/check.hpp"
#include "verify/context.hpp"
#include "verify/port_monitor.hpp"
#include <limits>

namespace mpsoc::stbus {

using txn::Opcode;
using txn::RequestPtr;
using txn::ResponsePtr;

namespace {
/// Outstanding (accepted, not yet responded) transactions the node tracks
/// per initiator on Types 2 and 3; Type 1 allows one.
constexpr unsigned kMaxOutstandingPerInitiator = 8;
}  // namespace

StbusNode::StbusNode(sim::ClockDomain& clk, std::string name,
                     StbusNodeConfig cfg)
    : txn::InterconnectBase(clk, std::move(name)), cfg_(cfg),
      max_outstanding_(cfg.type == StbusType::T1
                           ? 1
                           : kMaxOutstandingPerInitiator) {}

void StbusNode::attachMonitors(verify::VerifyContext& ctx) {
  verify::InitiatorRules rules;
  rules.in_order = cfg_.type != StbusType::T3;
  rules.max_outstanding = max_outstanding_;
  for (std::size_t i = 0; i < initiators_.size(); ++i) {
    ctx.add<verify::InitiatorMonitor>(name_ + ".mon.i" + std::to_string(i),
                                      &clk_, *initiators_[i], rules);
  }
}

void StbusNode::finalize() {
  if (finalized_) return;
  finalized_ = true;
  req_engines_.resize(numTargets());
  rsp_engines_.resize(numInitiators());
  for (auto& e : req_engines_) e.arb = txn::Arbiter(cfg_.arb);
}

void StbusNode::evaluate() {
  finalize();
  // Responses first: a response retiring this cycle unlocks its Type-1 path
  // and frees an outstanding slot in the *same* cycle — the model of STBus's
  // asynchronous target-to-initiator grant propagation that makes handover
  // free (Section 4.1.2).
  responsePath();
  requestPath();
  // No stream active and every input FIFO empty: nothing moves until a port
  // push wakes us (wired in addInitiator/addTarget).  Transactions still in
  // flight at the targets keep idle() false while we sleep.
  if (quiet()) sleep();
}

bool StbusNode::quiet() const {
  for (const auto& e : req_engines_) {
    if (e.streaming) return false;
  }
  for (const auto& e : rsp_engines_) {
    if (e.stream.active()) return false;
  }
  for (const auto* p : initiators_) {
    if (!p->req.empty()) return false;
  }
  for (const auto* p : targets_) {
    if (!p->rsp.empty()) return false;
  }
  return true;
}

bool StbusNode::idle() const {
  for (const auto& e : req_engines_) {
    if (e.streaming) return false;
  }
  if (anyInflight()) return false;
  for (const auto* p : initiators_) {
    if (!p->req.empty()) return false;
  }
  return true;
}

void StbusNode::requestPath() {
  for (std::size_t t = 0; t < req_engines_.size(); ++t) {
    runReqEngine(req_engines_[t], t);
  }
}

void StbusNode::responsePath() {
  for (std::size_t i = 0; i < rsp_engines_.size(); ++i) {
    auto& e = rsp_engines_[i];
    if (!e.stream.active()) selectResponse(e, i);
    if (e.stream.active()) {
      const std::size_t tgt = e.stream.target;
      if (streamBeat(e.stream, e.chan) && cfg_.type == StbusType::T1) {
        req_engines_[tgt].locked = false;
      }
    }
  }
}

bool StbusNode::eligible(std::size_t initiator, const RequestPtr& front,
                         std::size_t target) const {
  if (!targets_[target]->req.canPush()) return false;
  const bool fire_and_forget = front->posted && front->op == Opcode::Write;
  if (!fire_and_forget &&
      inflightCount(initiator) >= max_outstanding_) {
    return false;
  }
  return true;
}

void StbusNode::runReqEngine(ReqEngine& e, std::size_t target) {
  // Phase A: continue an in-progress request packet (one beat per cycle).
  auto advance = [&] {
    e.chan.markTransfer();
    --e.beats_left;
    if (e.beats_left == 0) finishStream(e);
  };
  if (e.streaming) {
    advance();
    return;
  }
  if (e.locked) return;  // Type 1: path locked until the response retires

  // Phase B: arbitration.  Message-granularity grant holding first: as long
  // as the previously granted initiator presents the next request of the
  // same message, it keeps the channel without re-arbitration.
  if (cfg_.message_arbitration && e.has_last && e.last_msg != 0) {
    auto* p = initiators_[e.last_initiator];
    if (!p->req.empty()) {
      const RequestPtr& f = p->req.front();
      if (route(f->addr) == target && f->msg_id == e.last_msg &&
          eligible(e.last_initiator, f, target)) {
        startStream(e, e.last_initiator, target);
        advance();
        return;
      }
    }
  }

  cands_.clear();
  for (std::size_t i = 0; i < initiators_.size(); ++i) {
    auto* p = initiators_[i];
    if (p->req.empty()) continue;
    const RequestPtr& f = p->req.front();
    if (route(f->addr) != target || !eligible(i, f, target)) continue;
    cands_.push_back({i, f->priority});
  }
  auto winner = e.arb.pick(cands_, initiators_.size(), now());
  if (!winner) return;
  startStream(e, *winner, target);
  advance();
}

void StbusNode::startStream(ReqEngine& e, std::size_t initiator,
                            std::size_t target) {
  RequestPtr req = initiators_[initiator]->req.pop();
  // Channel occupancy of the request packet:
  //  * writes carry their payload: `beats` cycles on every type;
  //  * Type 3 shaped read packets are a single header cell;
  //  * Types 1/2 express a read burst as one request cell per datum.
  std::uint32_t cycles = req->beats;
  if (req->op == Opcode::Read && cfg_.type == StbusType::T3) cycles = 1;
  e.streaming = req;
  e.beats_left = cycles;
  e.stream_target = target;
  e.has_last = true;
  e.last_initiator = initiator;
  e.last_msg = req->msg_id;
  trackAccept(req, initiator);
}

void StbusNode::finishStream(ReqEngine& e) {
  SIM_CHECK_CTX(e.streaming != nullptr, name_, &clk_,
                "finishStream() with no request streaming");
  targets_[e.stream_target]->req.push(e.streaming);
  // Type 1 locks the path until the response retires.  A posted write gets
  // no response (trackAccept does not track it either), so it never locks.
  const bool posted_write =
      e.streaming->posted && e.streaming->op == Opcode::Write;
  if (cfg_.type == StbusType::T1 && !posted_write) e.locked = true;
  e.streaming.reset();
}

void StbusNode::selectResponse(RspEngine& e, std::size_t initiator) {
  ResponsePtr best;
  std::size_t best_target = 0;
  sim::Picos best_key = std::numeric_limits<sim::Picos>::max();

  for (std::size_t t = 0; t < targets_.size(); ++t) {
    auto& fifo = targets_[t]->rsp;
    // Types 1/2: targets deliver in production order, so only the front of
    // each target FIFO is a candidate.  Type 3 supports out-of-order
    // delivery and may pick any queued response.
    const std::size_t depth = cfg_.type == StbusType::T3 ? fifo.size()
                              : (fifo.empty() ? 0 : 1);
    for (std::size_t k = 0; k < depth; ++k) {
      const ResponsePtr& rsp = fifo.at(k);
      if (initiatorOf(rsp) != initiator) continue;
      if (cfg_.type != StbusType::T3 &&
          rsp->req->id != oldestInflight(initiator)) {
        continue;  // in-order delivery per initiator
      }
      if (rsp->sched.first_beat < best_key) {
        best = rsp;
        best_key = rsp->sched.first_beat;
        best_target = t;
      }
    }
  }
  if (best) {
    e.stream.rsp = best;
    e.stream.target = best_target;
    e.stream.initiator = initiator;
    e.stream.next_beat = 0;
  }
}

}  // namespace mpsoc::stbus
