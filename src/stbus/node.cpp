#include "stbus/node.hpp"

#include <limits>

#include "sim/check.hpp"
#include "verify/context.hpp"
#include "verify/port_monitor.hpp"

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
  settle();
}

bool StbusNode::quiet() const {
  for (const auto& e : req_engines_) {
    if (e.streaming) return false;
  }
  for (const auto& e : rsp_engines_) {
    if (e.rsp) return false;
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

void StbusNode::settle() {
  // No stream active and every input FIFO empty: nothing moves until a port
  // push wakes us.  Transactions still in flight at the targets keep idle()
  // false while we sleep.
  if (quiet()) {
    sleep();
    return;
  }
  // Whatever else could change a decision reaches us as a wake: a push into
  // an initiator request or target response FIFO, a pop of a target request
  // FIFO (room for a grant) or of an initiator response FIFO (room for a last
  // beat).  Outstanding slots and Type-1 locks free only when one of our own
  // responses retires, on a cycle we are awake for.
  const sim::Cycle now = clk_.now();
  sim::Cycle wake = 0;
  auto soonest = [&](sim::Cycle c) {
    if (wake == 0 || c < wake) wake = c;
  };
  std::size_t unused_target = 0;
  for (std::size_t i = 0; i < rsp_engines_.size(); ++i) {
    const RspEngine& e = rsp_engines_[i];
    if (!e.rsp) {
      if (nextResponse(i, unused_target)) return;  // picks it next cycle
    } else if (now < e.last_at) {
      soonest(e.last_at);
    }  // else its last beat waits for room in the initiator's response FIFO
  }
  for (std::size_t t = 0; t < req_engines_.size(); ++t) {
    const ReqEngine& e = req_engines_[t];
    if (e.streaming) {
      soonest(e.done_at);
    } else if (!e.locked) {
      for (std::size_t i = 0; i < initiators_.size(); ++i) {
        if (requests(i, t)) return;  // grants next cycle
      }
    }
  }
  if (wake != 0) {
    sleepUntil(wake);
  } else {
    sleep();  // every waiting stream or request is blocked on a full FIFO
  }
}

void StbusNode::requestPath() {
  for (std::size_t t = 0; t < req_engines_.size(); ++t) {
    runReqEngine(req_engines_[t], t);
  }
}

void StbusNode::responsePath() {
  const sim::Cycle now = clk_.now();
  for (std::size_t i = 0; i < rsp_engines_.size(); ++i) {
    auto& e = rsp_engines_[i];
    if (!e.rsp) {
      e.rsp = nextResponse(i, e.target);
      if (!e.rsp) continue;
      SIM_CHECK_CTX(e.rsp->beats > 0, name_, &clk_,
                    "response for request id " << e.rsp->req->id
                                               << " carries no beat");
      e.picked_at = now;
      e.picked_ps = clk_.simulator().now();
      e.last_at = lastBeatCycle(*e.rsp, 0, e.picked_at, e.picked_ps);
    }
    // The last beat goes out only into room in the master's response queue;
    // until then the channel is held (back-pressure).
    if (now >= e.last_at && initiators_[i]->rsp.canPush()) {
      retireResponse(e, i);
    }
  }
}

void StbusNode::retireResponse(RspEngine& e, std::size_t initiator) {
  const std::uint64_t cycles = clk_.now() - e.picked_at + 1;
  e.chan.add(e.rsp->beats, cycles - e.rsp->beats);
  popResponseByIdentity(e.target, e.rsp);
  initiators_[initiator]->rsp.push(e.rsp);
  retire(e.rsp);
  if (cfg_.type == StbusType::T1) req_engines_[e.target].locked = false;
  e.rsp.reset();
}

stats::ChannelUtilization StbusNode::reqChannel(std::size_t target) const {
  if (!finalized_) return {};  // nothing has run yet
  const ReqEngine& e = req_engines_[target];
  stats::ChannelUtilization chan = e.chan;
  // One cell per cycle from the grant through now.
  if (e.streaming) {
    chan.add(packetCells(*e.streaming) - (e.done_at - now()), 0);
  }
  return chan;
}

stats::ChannelUtilization StbusNode::rspChannel(std::size_t initiator) const {
  if (!finalized_) return {};
  const RspEngine& e = rsp_engines_[initiator];
  stats::ChannelUtilization chan = e.chan;
  if (e.rsp) {
    const std::uint64_t cycles = now() - e.picked_at + 1;
    const std::uint32_t out =
        beatsOutBefore(*e.rsp, 0, e.picked_at, e.picked_ps, now() + 1);
    chan.add(out, cycles - out);
  }
  return chan;
}

bool StbusNode::requests(std::size_t initiator, std::size_t target) const {
  const auto& fifo = initiators_[initiator]->req;
  if (fifo.empty()) return false;
  const RequestPtr& front = fifo.front();
  if (route(front->addr) != target) return false;
  if (!targets_[target]->req.canPush()) return false;
  const bool fire_and_forget = front->posted && front->op == Opcode::Write;
  return fire_and_forget || inflightCount(initiator) < max_outstanding_;
}

void StbusNode::runReqEngine(ReqEngine& e, std::size_t target) {
  // Phase A: an in-progress request packet goes out one cell per cycle and
  // reaches the target with its last cell.
  if (e.streaming) {
    if (now() == e.done_at) finishStream(e, target);
    return;
  }
  if (e.locked) return;  // Type 1: path locked until the response retires

  // Phase B: arbitration.  Message-granularity grant holding first: as long
  // as the previously granted initiator presents the next request of the
  // same message, it keeps the channel without re-arbitration.
  if (cfg_.message_arbitration && e.has_last && e.last_msg != 0 &&
      requests(e.last_initiator, target) &&
      initiators_[e.last_initiator]->req.front()->msg_id == e.last_msg) {
    startStream(e, e.last_initiator, target);
    return;
  }

  cands_.clear();
  for (std::size_t i = 0; i < initiators_.size(); ++i) {
    if (requests(i, target)) {
      cands_.push_back({i, initiators_[i]->req.front()->priority});
    }
  }
  auto winner = e.arb.pick(cands_, initiators_.size(), now());
  if (winner) startStream(e, *winner, target);
}

std::uint32_t StbusNode::packetCells(const txn::Request& req) const {
  // Channel occupancy of the request packet:
  //  * writes carry their payload: `beats` cycles on every type;
  //  * Type 3 shaped read packets are a single header cell;
  //  * Types 1/2 express a read burst as one request cell per datum.
  if (req.op == Opcode::Read && cfg_.type == StbusType::T3) return 1;
  return req.beats;
}

void StbusNode::startStream(ReqEngine& e, std::size_t initiator,
                            std::size_t target) {
  RequestPtr req = initiators_[initiator]->req.pop();
  const std::uint32_t cells = packetCells(*req);
  SIM_CHECK_CTX(cells > 0, name_, &clk_,
                "request id " << req->id << " carries no beat");
  e.streaming = req;
  e.done_at = now() + cells - 1;
  e.has_last = true;
  e.last_initiator = initiator;
  e.last_msg = req->msg_id;
  trackAccept(req, initiator);
  if (e.done_at == now()) finishStream(e, target);
}

void StbusNode::finishStream(ReqEngine& e, std::size_t target) {
  SIM_CHECK_CTX(e.streaming != nullptr, name_, &clk_,
                "finishStream() with no request streaming");
  e.chan.add(packetCells(*e.streaming), 0);
  targets_[target]->req.push(e.streaming);
  // Type 1 locks the path until the response retires.  A posted write gets
  // no response (trackAccept does not track it either), so it never locks.
  const bool posted_write =
      e.streaming->posted && e.streaming->op == Opcode::Write;
  if (cfg_.type == StbusType::T1 && !posted_write) e.locked = true;
  e.streaming.reset();
}

txn::ResponsePtr StbusNode::nextResponse(std::size_t initiator,
                                         std::size_t& target) const {
  ResponsePtr best;
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
        target = t;
      }
    }
  }
  return best;
}

}  // namespace mpsoc::stbus
