#include "axi/axi_bus.hpp"

#include <algorithm>
#include "sim/check.hpp"
#include "verify/context.hpp"
#include "verify/port_monitor.hpp"

namespace mpsoc::axi {

using txn::Opcode;
using txn::RequestPtr;
using txn::ResponsePtr;

namespace {
/// How deep the engine looks into each master's request queue for a
/// read/write to dispatch (models the independent AR and AW+W paths).
constexpr std::size_t kRequestWindow = 4;
}  // namespace

AxiBus::AxiBus(sim::ClockDomain& clk, std::string name, AxiBusConfig cfg)
    : txn::InterconnectBase(clk, std::move(name)), cfg_(cfg) {}

void AxiBus::attachMonitors(verify::VerifyContext& ctx) {
  verify::InitiatorRules rules;
  rules.in_order = false;  // transaction IDs allow out-of-order completion
  rules.max_outstanding = cfg_.max_outstanding_per_initiator;
  for (std::size_t i = 0; i < initiators_.size(); ++i) {
    ctx.add<verify::InitiatorMonitor>(name_ + ".mon.i" + std::to_string(i),
                                      &clk_, *initiators_[i], rules);
  }
}

void AxiBus::finalize() {
  if (finalized_) return;
  finalized_ = true;
  ar_.resize(numTargets());
  aw_.resize(numTargets());
  r_.resize(numInitiators());
  for (auto& e : ar_) e.arb = txn::Arbiter(txn::ArbPolicy::RoundRobin);
  for (auto& e : aw_) e.arb = txn::Arbiter(txn::ArbPolicy::RoundRobin);
  reserved_.assign(numTargets(), 0);
  ar_issued_.assign(numInitiators(), false);
  w_granted_.assign(numInitiators(), false);
}

void AxiBus::evaluate() {
  finalize();
  std::fill(ar_issued_.begin(), ar_issued_.end(), false);
  std::fill(w_granted_.begin(), w_granted_.end(), false);
  responsePath();
  readRequestPath();
  writeRequestPath();
  // No burst streaming and every input FIFO empty: nothing moves until a
  // port push wakes us (wired in addInitiator/addTarget).  Transactions
  // still in flight at the targets keep idle() false while we sleep.
  if (quiet()) sleep();
}

bool AxiBus::quiet() const {
  for (const auto& e : aw_) {
    if (e.streaming) return false;
  }
  for (const auto& e : r_) {
    if (!e.active.empty()) return false;
  }
  for (const auto* p : initiators_) {
    if (!p->req.empty()) return false;
  }
  for (const auto* p : targets_) {
    if (!p->rsp.empty()) return false;
  }
  return true;
}

bool AxiBus::outstandingOk(std::size_t initiator,
                           const RequestPtr& r) const {
  if (r->posted && r->op == Opcode::Write) return true;
  return inflightCount(initiator) < cfg_.max_outstanding_per_initiator;
}

int AxiBus::findInWindow(std::size_t initiator, Opcode op,
                         std::size_t target) const {
  const auto& q = initiators_[initiator]->req;
  const std::size_t depth = std::min(q.size(), kRequestWindow);
  for (std::size_t k = 0; k < depth; ++k) {
    const RequestPtr& r = q.at(k);
    if (r->op == op && route(r->addr) == target) return static_cast<int>(k);
  }
  return -1;
}

void AxiBus::readRequestPath() {
  for (std::size_t t = 0; t < targets_.size(); ++t) {
    auto& eng = ar_[t];
    if (!targets_[t]->req.canPush(reserved_[t] + 1)) continue;

    cands_.clear();
    window_idx_.assign(initiators_.size(), -1);
    for (std::size_t i = 0; i < initiators_.size(); ++i) {
      if (ar_issued_[i]) continue;  // one AR per master port per cycle
      int k = findInWindow(i, Opcode::Read, t);
      if (k < 0) continue;
      const RequestPtr& r = initiators_[i]->req.at(static_cast<std::size_t>(k));
      if (!outstandingOk(i, r)) continue;
      cands_.push_back({i, r->priority});
      window_idx_[i] = k;
    }
    auto winner = eng.arb.pick(cands_, initiators_.size(), now());
    if (!winner) continue;

    RequestPtr req = initiators_[*winner]->req.popAt(
        static_cast<std::size_t>(window_idx_[*winner]));
    eng.chan.markTransfer();  // a burst issues only its first address
    ar_issued_[*winner] = true;
    trackAccept(req, *winner);
    targets_[t]->req.push(req);
  }
}

void AxiBus::writeRequestPath() {
  for (std::size_t t = 0; t < targets_.size(); ++t) {
    auto& eng = aw_[t];
    if (eng.streaming) {
      eng.chan.markTransfer();
      if (--eng.beats_left == 0) {
        targets_[t]->req.push(eng.streaming);
        eng.streaming.reset();
        SIM_CHECK_CTX(reserved_[t] > 0, name_, &clk_,
                      "write-stream completion on target " << t
                          << " with no reserved slot");
        --reserved_[t];
      }
      continue;
    }
    if (!targets_[t]->req.canPush(reserved_[t] + 1)) continue;

    cands_.clear();
    window_idx_.assign(initiators_.size(), -1);
    for (std::size_t i = 0; i < initiators_.size(); ++i) {
      if (w_granted_[i]) continue;
      int k = findInWindow(i, Opcode::Write, t);
      if (k < 0) continue;
      const RequestPtr& r = initiators_[i]->req.at(static_cast<std::size_t>(k));
      if (!outstandingOk(i, r)) continue;
      cands_.push_back({i, r->priority});
      window_idx_[i] = k;
    }
    auto winner = eng.arb.pick(cands_, initiators_.size(), now());
    if (!winner) continue;

    RequestPtr req = initiators_[*winner]->req.popAt(
        static_cast<std::size_t>(window_idx_[*winner]));
    w_granted_[*winner] = true;
    trackAccept(req, *winner);
    ++reserved_[t];  // the slot is claimed until the payload finishes
    eng.streaming = req;
    eng.beats_left = req->beats;
    eng.stream_target = t;
    // First data beat moves this cycle (AW and the first W beat overlap).
    eng.chan.markTransfer();
    if (--eng.beats_left == 0) {
      targets_[t]->req.push(eng.streaming);
      eng.streaming.reset();
      --reserved_[t];
    }
  }
}

void AxiBus::harvestResponses() {
  for (std::size_t t = 0; t < targets_.size(); ++t) {
    auto& fifo = targets_[t]->rsp;
    for (std::size_t k = 0; k < fifo.size(); ++k) {
      const ResponsePtr& rsp = fifo.at(k);
      const std::size_t initiator = initiatorOf(rsp);
      auto& active = r_[initiator].active;
      bool known = false;
      for (const auto& s : active) {
        if (s.rsp == rsp) {
          known = true;
          break;
        }
      }
      if (!known) {
        RspStream s;
        s.rsp = rsp;
        s.target = t;
        s.initiator = initiator;
        s.next_beat = 0;
        active.push_back(s);
      }
    }
  }
}

void AxiBus::responsePath() {
  const sim::Picos now = clk_.simulator().now();
  // One pass over the target FIFOs serves every initiator: a link below
  // only pops its own initiator's responses, so harvesting all of them up
  // front sees the same responses in the same (target, FIFO index) order
  // as harvesting each initiator's just before its link runs.
  harvestResponses();
  for (auto& eng : r_) {
    if (eng.active.empty()) continue;

    // Fine-granularity link arbitration: pick a stream with a due beat, with
    // preference for the one served last (minimises switching) and otherwise
    // round-robin.
    std::size_t pick = eng.active.size();
    for (std::size_t off = 0; off < eng.active.size(); ++off) {
      std::size_t idx = (eng.last_pick + off) % eng.active.size();
      if (eng.active[idx].beatDue(now)) {
        pick = idx;
        break;
      }
    }
    // No beat due anywhere: the link is simply free this cycle (it is not
    // reserved by a stalled burst).
    if (pick == eng.active.size()) continue;
    eng.last_pick = pick;
    if (streamBeat(eng.active[pick], eng.chan)) {
      eng.active.erase(eng.active.begin() +
                       static_cast<std::ptrdiff_t>(pick));
      eng.last_pick = 0;
    }
  }
}

bool AxiBus::idle() const {
  for (const auto& e : aw_) {
    if (e.streaming) return false;
  }
  for (const auto& e : r_) {
    if (!e.active.empty()) return false;
  }
  if (anyInflight()) return false;
  for (const auto* p : initiators_) {
    if (!p->req.empty()) return false;
  }
  return true;
}

}  // namespace mpsoc::axi
