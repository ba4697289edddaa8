#include "iptg/iptg.hpp"

#include <algorithm>
#include <memory>
#include <ranges>

#include "sim/check.hpp"

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
  for (const AgentProfile& p : cfg_.agents) {
    agents_.emplace_back(p, this->name() + "." + p.name, cfg_.seed);
  }
}

namespace {

std::discrete_distribution<std::size_t> burstDistribution(
    const AgentProfile& p) {
  const auto w = p.burst_beats | std::views::transform(&BurstChoice::weight);
  return std::discrete_distribution<std::size_t>(w.begin(), w.end());
}

}  // namespace

Iptg::AgentState::AgentState(const AgentProfile& p, std::string src,
                             std::uint64_t seed)
    : profile(p),
      source(std::move(src)),
      burst_dist(burstDistribution(p)),
      rng(seed, source),
      next_addr(p.base_addr) {}

const PhaseOverride* Iptg::activePhase(const AgentState& a) const {
  const sim::Picos at = clk_.simulator().now();
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
    const bool dep_finished = dep.quotaDone() && dep.outstanding == 0;
    if (dep.retired < a.profile.after_count && !dep_finished) return false;
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
  if (!port_.req.canPush()) {
    // Nothing is drawn while the port is full: sleep until it pops.
    sleep();
    return;
  }

  // One issue slot per cycle shared by all agents, rotating for fairness.
  const std::size_t n = agents_.size();
  bool any_ready = false;
  sim::Cycle gap_end = 0;  // earliest end of an agent's inter-message gap
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t idx = (rr_next_ + k) % n;
    AgentState& a = agents_[idx];
    if (!agentReady(a)) {
      if (!a.quotaDone() && a.blocked_until > now() &&
          (gap_end == 0 || a.blocked_until < gap_end)) {
        gap_end = a.blocked_until;
      }
      continue;
    }
    any_ready = true;

    // Throttle / gap: statistical pacing (phase overrides win).
    if (a.profile.sequence.empty()) {
      const PhaseOverride* ph = activePhase(a);
      const double throttle = ph ? ph->throttle : a.profile.throttle;
      if (!a.rng.bernoulli(throttle)) {
        // This agent idles this cycle; others may still use the slot.
        continue;
      }
    }

    // Unlike the bridge, which checks before it clones, the request is
    // built before the issue check and dropped when the check fails: making
    // it has already drawn from the agent's RNG and taken a transaction id,
    // so checking first would shift every later draw and move the goldens.
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
  if (!any_ready) {
    // No agent could start, so no RNG was drawn and nothing changes until a
    // gap ends or a response (outstanding slot, dependency) arrives.
    if (gap_end != 0) {
      sleepUntil(gap_end);
    } else {
      sleep();
    }
  }
}

txn::RequestPtr Iptg::makeRequest(AgentState& a, std::size_t agent_idx) {
  auto req = std::make_shared<txn::Request>();
  req->id = clk_.simulator().nextTransactionId();
  req->root_id = req->id;
  req->bytes_per_beat = cfg_.bytes_per_beat;
  req->priority = a.profile.priority;
  req->tag = static_cast<std::uint32_t>(agent_idx);
  req->source = a.source;

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
    req->beats = a.profile.burst_beats[a.burst_dist(a.rng.engine())].beats;

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

}  // namespace mpsoc::iptg
