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
  moved_ = false;
  responsePath();
  readRequestPath();
  writeRequestPath();
  settle();
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

void AxiBus::settle() {
  // No burst streaming and every input FIFO empty: nothing moves until a
  // port push wakes us.  Transactions still in flight at the targets keep
  // idle() false while we sleep.
  if (quiet()) {
    sleep();
    return;
  }
  // A grant, a stepped beat or a completed stream changes what the next edge
  // sees (a freed reservation, outstanding slot or master port).  Otherwise
  // the next edge repeats this one unless time or a port event moves it:
  // every FIFO change that could reach a decision wakes us (push into an
  // initiator request or target response FIFO, pop of a target request or
  // initiator response FIFO).
  if (moved_) return;
  const sim::Cycle now = clk_.now();
  const sim::Picos now_ps = clk_.simulator().now();
  const sim::Picos period = clk_.period();
  sim::Cycle wake = 0;
  auto soonest = [&](sim::Cycle c) {
    if (wake == 0 || c < wake) wake = c;
  };
  for (const auto& e : aw_) {
    if (e.streaming) soonest(e.done_at);
  }
  for (const auto& e : r_) {
    if (e.active.size() == 1) {
      if (now < e.last_at) soonest(e.last_at);
    } else if (!e.blocked) {
      // No beat was due this cycle: wake on the first cycle one is.
      for (const auto& s : e.active) {
        const sim::Picos due = s.rsp->sched.beatTime(s.next_beat);
        const sim::Cycle ahead =
            due > now_ps ? (due - now_ps + period - 1) / period : 1;
        soonest(now + ahead);
      }
    }  // else a last beat waits for room in the initiator's response FIFO
  }
  if (wake != 0) {
    sleepUntil(wake);
  } else {
    sleep();  // every waiting grant or last beat is blocked on a full FIFO
  }
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
    SIM_CHECK_CTX(req->beats > 0, name_, &clk_,
                  "request id " << req->id << " carries no beat");
    eng.chan.markTransfer();  // a burst issues only its first address
    ar_issued_[*winner] = true;
    moved_ = true;
    trackAccept(req, *winner);
    targets_[t]->req.push(req);
  }
}

void AxiBus::writeRequestPath() {
  for (std::size_t t = 0; t < targets_.size(); ++t) {
    auto& eng = aw_[t];
    if (eng.streaming) {
      if (now() == eng.done_at) finishWrite(eng, t);
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
    SIM_CHECK_CTX(req->beats > 0, name_, &clk_,
                  "request id " << req->id << " carries no beat");
    w_granted_[*winner] = true;
    moved_ = true;
    trackAccept(req, *winner);
    ++reserved_[t];  // the slot is claimed until the payload finishes
    eng.streaming = req;
    // The first data beat moves this cycle (AW and the first W beat
    // overlap), then one beat per cycle.
    eng.done_at = now() + req->beats - 1;
    if (eng.done_at == now()) finishWrite(eng, t);
  }
}

void AxiBus::finishWrite(AwEngine& eng, std::size_t target) {
  eng.chan.add(eng.streaming->beats, 0);
  targets_[target]->req.push(eng.streaming);
  eng.streaming.reset();
  SIM_CHECK_CTX(reserved_[target] > 0, name_, &clk_,
                "write-stream completion on target " << target
                    << " with no reserved slot");
  --reserved_[target];
  moved_ = true;
}

void AxiBus::harvestResponses() {
  const sim::Picos now_ps = clk_.simulator().now();
  for (std::size_t t = 0; t < targets_.size(); ++t) {
    auto& fifo = targets_[t]->rsp;
    for (std::size_t k = 0; k < fifo.size(); ++k) {
      const ResponsePtr& rsp = fifo.at(k);
      auto& e = r_[initiatorOf(rsp)];
      bool known = false;
      for (const auto& s : e.active) {
        if (s.rsp == rsp) {
          known = true;
          break;
        }
      }
      if (known) continue;
      SIM_CHECK_CTX(rsp->beats > 0, name_, &clk_,
                    "response for request id " << rsp->req->id
                                               << " carries no beat");
      if (e.active.size() == 1) endSolo(e);
      e.active.push_back({rsp, t, 0});
      if (e.active.size() == 1) startSolo(e, now(), now_ps);
    }
  }
}

void AxiBus::startSolo(REngine& e, sim::Cycle from, sim::Picos from_ps) {
  const RStream& s = e.active.front();
  e.walk_from = from;
  e.walk_ps = from_ps;
  e.last_at = lastBeatCycle(*s.rsp, s.next_beat, from, from_ps);
}

void AxiBus::endSolo(REngine& e) {
  RStream& s = e.active.front();
  std::uint32_t out;
  if (now() > e.last_at) {
    // The last beat has waited for room since last_at: every other beat is
    // out, and the link stays held from last_at.
    out = s.rsp->beats - 1 - s.next_beat;
    e.blocked = true;
  } else {
    out = beatsOutBefore(*s.rsp, s.next_beat, e.walk_from, e.walk_ps, now());
  }
  s.next_beat += out;
  e.chan.add(out, 0);
}

void AxiBus::retireStream(REngine& e, std::size_t k, std::size_t initiator) {
  const ResponsePtr rsp = e.active[k].rsp;
  popResponseByIdentity(e.active[k].target, rsp);
  initiators_[initiator]->rsp.push(rsp);
  retire(rsp);
  e.active.erase(e.active.begin() + static_cast<std::ptrdiff_t>(k));
  e.last_pick = 0;
  e.blocked = false;
  moved_ = true;
}

void AxiBus::responsePath() {
  // One pass over the target FIFOs serves every initiator: a link below
  // only pops its own initiator's responses, so harvesting all of them up
  // front sees the same responses in the same (target, FIFO index) order
  // as harvesting each initiator's just before its link runs.
  harvestResponses();
  for (std::size_t i = 0; i < r_.size(); ++i) runLink(r_[i], i);
}

void AxiBus::runLink(REngine& e, std::size_t initiator) {
  if (e.active.empty()) return;
  const sim::Cycle now = clk_.now();
  const bool room = initiators_[initiator]->rsp.canPush();
  if (e.active.size() == 1) {
    // Solo: the walk reaches the last beat on last_at, which goes out only
    // into room in the master's response queue (back-pressure holds the
    // link until then).
    if (now >= e.last_at && room) {
      const RStream& s = e.active.front();
      e.chan.add(s.rsp->beats - s.next_beat, now - e.last_at);
      retireStream(e, 0, initiator);
    }
    return;
  }

  // Fine-granularity link arbitration: pick a stream with a due beat, with
  // preference for the one served last (minimises switching) and otherwise
  // round-robin.
  const sim::Picos now_ps = clk_.simulator().now();
  std::size_t pick = e.active.size();
  for (std::size_t off = 0; off < e.active.size(); ++off) {
    const std::size_t idx = (e.last_pick + off) % e.active.size();
    const RStream& s = e.active[idx];
    if (now_ps >= s.rsp->sched.beatTime(s.next_beat)) {
      pick = idx;
      break;
    }
  }
  // No beat due anywhere: the link is simply free this cycle (it is not
  // reserved by a stalled burst).
  if (pick == e.active.size()) return;
  e.last_pick = pick;
  RStream& s = e.active[pick];
  if (s.next_beat + 1 < s.rsp->beats) {
    e.chan.markTransfer();
    ++s.next_beat;
    moved_ = true;
    return;
  }
  // The last beat: held from its first try until the master's response
  // queue has room.
  if (!e.blocked) {
    e.last_at = now;
    e.blocked = true;
  }
  if (!room) return;
  e.chan.add(1, now - e.last_at);
  retireStream(e, pick, initiator);
  // One response left: it walks on from the next cycle.
  if (e.active.size() == 1) startSolo(e, now + 1, now_ps + clk_.period());
}

stats::ChannelUtilization AxiBus::arChannel(std::size_t target) const {
  if (!finalized_) return {};  // nothing has run yet
  return ar_[target].chan;
}

stats::ChannelUtilization AxiBus::wChannel(std::size_t target) const {
  if (!finalized_) return {};
  const AwEngine& e = aw_[target];
  stats::ChannelUtilization chan = e.chan;
  // One beat per cycle from the grant through now.
  if (e.streaming) chan.add(e.streaming->beats - (e.done_at - now()), 0);
  return chan;
}

stats::ChannelUtilization AxiBus::rChannel(std::size_t initiator) const {
  if (!finalized_) return {};
  const REngine& e = r_[initiator];
  stats::ChannelUtilization chan = e.chan;
  const sim::Cycle now = clk_.now();
  if (e.active.size() == 1) {
    const RStream& s = e.active.front();
    chan.add(beatsOutBefore(*s.rsp, s.next_beat, e.walk_from, e.walk_ps,
                            now + 1),
             now >= e.last_at ? now - e.last_at + 1 : 0);
  } else if (e.blocked) {
    chan.add(0, now - e.last_at + 1);
  }
  return chan;
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
