#include "iptg/iptg.hpp"

#include <algorithm>
#include "sim/check.hpp"
#include <memory>

namespace mpsoc::iptg {

using txn::Opcode;
using txn::RequestPtr;

Iptg::Iptg(sim::ClockDomain& clk, std::string name, txn::InitiatorPort& port,
           IptgConfig cfg)
    : txn::MasterBase(clk, std::move(name), port,
                      [&cfg] {
                        unsigned total = 0;
                        for (const auto& a : cfg.agents) total += a.outstanding;
                        return total ? total : 1;
                      }()),
      cfg_(std::move(cfg)),
      next_msg_id_(sim::Rng::fnv1a(this->name()) | 1) {
  agents_.reserve(cfg_.agents.size());
  for (std::size_t i = 0; i < cfg_.agents.size(); ++i) {
    AgentState st{cfg_.agents[i],
                  sim::Rng(cfg_.seed, this->name() + "." +
                                          cfg_.agents[i].name),
                  0, 0, 0, cfg_.agents[i].base_addr, 0, 0, 0, 0};
    agents_.push_back(std::move(st));
  }
}

const PhaseOverride* Iptg::activePhase(const AgentState& a) const {
  return activePhaseAt(a, clk_.simulator().now());
}

const PhaseOverride* Iptg::activePhaseAt(const AgentState& a,
                                         sim::Picos at) const {
  for (const auto& p : a.profile.phases) {
    if (at >= p.begin && at < p.end) return &p;
  }
  return nullptr;
}

bool Iptg::agentReady(const AgentState& a) const {
  if (a.quotaDone()) return false;
  if (a.outstanding >= a.profile.outstanding) return false;
  if (now() < a.blocked_until) return false;
  if (a.profile.after_agent >= 0) {
    const auto& dep = agents_[static_cast<std::size_t>(a.profile.after_agent)];
    if (dep.retired < a.profile.after_count) return false;
  }
  return true;
}

void Iptg::evaluate() {
  collectResponses();
  // Every agent's quota issued and retired: nothing can ever restart this
  // generator, so quiesce for good.
  if (done()) {
    sleep();
    return;
  }
  if (!port_.req.canPush()) return;

  // One issue slot per cycle shared by all agents, rotating for fairness.
  const std::size_t n = agents_.size();
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t idx = (rr_next_ + k) % n;
    AgentState& a = agents_[idx];
    if (!agentReady(a)) continue;

    // Throttle / gap: statistical pacing (phase overrides win).
    if (a.profile.sequence.empty()) {
      const PhaseOverride* ph = activePhase(a);
      const double throttle = ph ? ph->throttle : a.profile.throttle;
      if (!a.rng.bernoulli(throttle)) {
        // This agent idles this cycle; others may still use the slot.
        continue;
      }
    }

    RequestPtr req = makeRequest(a, idx);
    const bool posted = req->posted && req->op == Opcode::Write;
    if (posted ? !canIssuePosted() : !canIssue()) return;
    issue(req);
    ++a.issued;
    if (!posted) ++a.outstanding;
    else ++a.retired;  // posted writes retire at issue, like MasterBase
    rr_next_ = (idx + 1) % n;
    return;
  }
}

txn::RequestPtr Iptg::makeRequest(AgentState& a, std::size_t agent_idx) {
  auto req = std::make_shared<txn::Request>();
  req->id = clk_.simulator().nextTransactionId();
  req->root_id = req->id;
  req->bytes_per_beat = cfg_.bytes_per_beat;
  req->priority = a.profile.priority;
  req->tag = static_cast<std::uint32_t>(agent_idx);
  req->source = name() + "." + a.profile.name;

  const PhaseOverride* ph = activePhase(a);
  const std::uint64_t gap_min = ph ? ph->gap_min : a.profile.gap_min;
  const std::uint64_t gap_max = ph ? ph->gap_max : a.profile.gap_max;

  if (!a.profile.sequence.empty()) {
    const SeqEntry& e = a.profile.sequence[a.seq_pos++];
    req->op = e.op;
    req->addr = e.addr;
    req->beats = e.beats;
    a.blocked_until = now() + e.gap_cycles;
  } else {
    req->op = a.rng.bernoulli(a.profile.read_fraction) ? Opcode::Read
                                                       : Opcode::Write;
    // Burst length from the weighted table.
    std::vector<double> w;
    w.reserve(a.profile.burst_beats.size());
    for (const auto& b : a.profile.burst_beats) w.push_back(b.weight);
    req->beats = a.profile.burst_beats[a.rng.weighted(w)].beats;

    const std::uint64_t span = static_cast<std::uint64_t>(req->beats) *
                               cfg_.bytes_per_beat;
    switch (a.profile.pattern) {
      case AddressPattern::Sequential:
        if (a.next_addr + span >
            a.profile.base_addr + a.profile.region_size) {
          a.next_addr = a.profile.base_addr;
        }
        req->addr = a.next_addr;
        a.next_addr += span;
        break;
      case AddressPattern::Strided: {
        if (a.next_addr + span >
            a.profile.base_addr + a.profile.region_size) {
          a.next_addr = a.profile.base_addr;
        }
        req->addr = a.next_addr;
        a.next_addr += std::max<std::uint64_t>(span, a.profile.stride);
        break;
      }
      case AddressPattern::Random: {
        const std::uint64_t slots =
            std::max<std::uint64_t>(1, a.profile.region_size / span);
        req->addr =
            a.profile.base_addr + a.rng.uniformInt(0, slots - 1) * span;
        break;
      }
    }
  }

  req->posted = a.profile.posted_writes && req->op == Opcode::Write;

  // Message grouping: `message_len` consecutive transactions share a msg_id.
  if (a.profile.message_len > 1) {
    if (a.msg_remaining == 0) {
      a.msg_id = next_msg_id_++;
      a.msg_remaining = a.profile.message_len;
    }
    req->msg_id = a.msg_id;
    --a.msg_remaining;
  }

  // Inter-transaction gaps apply at *message* boundaries, so a gapped agent
  // stays bursty: it emits a whole train back-to-back, then idles.
  if (a.profile.sequence.empty() && a.msg_remaining == 0 &&
      gap_max >= gap_min && gap_max > 0) {
    a.blocked_until = now() + a.rng.uniformInt(gap_min, gap_max);
  }
  return req;
}

void Iptg::onResponse(const txn::ResponsePtr& rsp) {
  AgentState& a = agents_[rsp->req->tag];
  SIM_CHECK_CTX(a.outstanding > 0, name_, &clk_,
                "agent " << rsp->req->tag
                         << " response with no outstanding transaction");
  --a.outstanding;
  ++a.retired;
}

bool Iptg::done() const {
  for (const auto& a : agents_) {
    if (!a.quotaDone() || a.outstanding != 0) return false;
  }
  return true;
}

bool Iptg::idle() const { return done(); }

// --- loosely-timed issue path (fast-forward mode) ----------------------------
//
// LT-EQUIV: tests/test_fastforward.cpp (FfHandoffOracle digest gate)
//
// Deterministic analytic consumption of one quantum.  Statistical agents run
// at their *expected* pacing rate (throttle + mean message gap) capped by the
// outstanding/round-trip-latency product; sequence agents walk their entries
// at one issue plus gap_cycles per entry.  No RNG is drawn, so the engine's
// rng streams stay bit-identical to the checkpoint for the accurate region.

namespace {
std::uint64_t ltScale(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return c == 0 ? 0
               : static_cast<std::uint64_t>(
                     static_cast<unsigned __int128>(a) * b / c);
}
}  // namespace

double Iptg::meanBytesPerTxn(const AgentState& a) const {
  double wsum = 0, bsum = 0;
  for (const auto& b : a.profile.burst_beats) {
    wsum += b.weight;
    bsum += b.weight * static_cast<double>(b.beats);
  }
  const double mean_beats = wsum > 0 ? bsum / wsum : 1.0;
  return mean_beats * static_cast<double>(cfg_.bytes_per_beat);
}

sim::LtDemand Iptg::ltPlan(sim::Picos now, sim::Picos quantum,
                           sim::Picos route_latency_ps) {
  lt_plan_.assign(agents_.size(), 0);
  sim::LtDemand d;
  const sim::Picos period = clk_.period();
  const std::uint64_t cycles = static_cast<std::uint64_t>(quantum / period);
  if (cycles == 0) return d;

  for (std::size_t i = 0; i < agents_.size(); ++i) {
    const AgentState& a = agents_[i];
    if (a.quotaDone()) continue;
    if (a.profile.after_agent >= 0) {
      const auto& dep =
          agents_[static_cast<std::size_t>(a.profile.after_agent)];
      // LT commits retire at issue, so a dependency unlocks within the region
      // as soon as the producer's committed quota crosses the threshold.
      if (dep.retired < a.profile.after_count) continue;
    }

    std::uint64_t txns = 0;
    std::uint64_t bytes = 0;
    if (!a.profile.sequence.empty()) {
      std::uint64_t budget = cycles;
      for (std::size_t pos = a.seq_pos; pos < a.profile.sequence.size();
           ++pos) {
        const SeqEntry& e = a.profile.sequence[pos];
        const std::uint64_t cost = 1 + e.gap_cycles;
        if (cost > budget) break;
        budget -= cost;
        ++txns;
        bytes += static_cast<std::uint64_t>(e.beats) * cfg_.bytes_per_beat;
      }
    } else {
      const PhaseOverride* ph = activePhaseAt(a, now);
      const double throttle = ph ? ph->throttle : a.profile.throttle;
      if (throttle <= 0) continue;
      const std::uint64_t gap_min = ph ? ph->gap_min : a.profile.gap_min;
      const std::uint64_t gap_max = ph ? ph->gap_max : a.profile.gap_max;
      const double mean_gap =
          gap_max >= gap_min
              ? static_cast<double>(gap_min + gap_max) / 2.0 /
                    static_cast<double>(std::max<std::uint64_t>(
                        1, a.profile.message_len))
              : 0.0;
      const double cycles_per_txn = 1.0 / throttle + mean_gap;
      double rate = static_cast<double>(cycles) / cycles_per_txn;
      // Outstanding-limited: each transaction occupies a slot for the route
      // round trip.
      const std::uint64_t rt_cycles = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(2 * route_latency_ps / period));
      const double cap = static_cast<double>(a.profile.outstanding) *
                         static_cast<double>(cycles) /
                         static_cast<double>(rt_cycles);
      if (cap < rate) rate = cap;
      txns = static_cast<std::uint64_t>(rate);
      if (a.profile.total_transactions != 0) {
        txns = std::min(txns, a.profile.total_transactions - a.issued);
      }
      bytes = static_cast<std::uint64_t>(static_cast<double>(txns) *
                                         meanBytesPerTxn(a));
    }
    lt_plan_[i] = txns;
    d.transactions += txns;
    d.bytes += bytes;
  }
  return d;
}

sim::LtDemand Iptg::ltCommit(sim::Picos, sim::Picos,
                             const sim::LtDemand& planned,
                             std::uint64_t granted_bytes) {
  sim::LtDemand done_now;
  if (planned.transactions == 0) return done_now;
  for (std::size_t i = 0; i < agents_.size() && i < lt_plan_.size(); ++i) {
    std::uint64_t txns = lt_plan_[i];
    if (txns == 0) continue;
    if (granted_bytes < planned.bytes) {
      txns = ltScale(txns, granted_bytes, planned.bytes);
      if (txns == 0) continue;
    }
    AgentState& a = agents_[i];
    std::uint64_t bytes = 0;
    std::uint64_t read_bytes = 0;
    if (!a.profile.sequence.empty()) {
      txns = std::min<std::uint64_t>(txns,
                                     a.profile.sequence.size() - a.seq_pos);
      for (std::uint64_t k = 0; k < txns; ++k) {
        const SeqEntry& e = a.profile.sequence[a.seq_pos + k];
        const std::uint64_t sz =
            static_cast<std::uint64_t>(e.beats) * cfg_.bytes_per_beat;
        bytes += sz;
        if (e.op == Opcode::Read) read_bytes += sz;
      }
      a.seq_pos += txns;
    } else {
      if (a.profile.total_transactions != 0) {
        txns = std::min(txns, a.profile.total_transactions - a.issued);
      }
      bytes = static_cast<std::uint64_t>(static_cast<double>(txns) *
                                         meanBytesPerTxn(a));
      read_bytes = static_cast<std::uint64_t>(
          static_cast<double>(bytes) * a.profile.read_fraction);
    }
    if (txns == 0) continue;
    // LT transactions retire at commit: issued/retired advance together so
    // quotas and cross-agent dependencies keep working in the LT region.
    a.issued += txns;
    a.retired += txns;
    ltRecord(txns, read_bytes, bytes - read_bytes);
    done_now.transactions += txns;
    done_now.bytes += bytes;
  }
  return done_now;
}

}  // namespace mpsoc::iptg
