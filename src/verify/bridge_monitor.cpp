#include "verify/bridge_monitor.hpp"

#include <algorithm>
#include <sstream>

namespace mpsoc::verify {

BridgeMonitor::BridgeMonitor(std::string name, const sim::ClockDomain* a_clk,
                             txn::TargetPort& a_port,
                             txn::InitiatorPort& b_port, std::uint32_t width_b)
    : Monitor(std::move(name), a_clk), width_b_(width_b) {
  // Absorption point: the bridge slave side consumes the original request.
  a_port.req.addPopTap([this](const txn::RequestPtr& r) { onAbsorb(r); });
  // Forward point: the bridge master side issues the clone on side B.
  b_port.req.addPushTap([this](const txn::RequestPtr& r) { onForward(r); });
  // Return point: the bridge delivers the side-A response.
  a_port.rsp.addPushTap([this](const txn::ResponsePtr& r) { onRspA(r); });
}

void BridgeMonitor::onAbsorb(const txn::RequestPtr& r) {
  countEvent();
  MPSOC_MON_CHECK(r != nullptr, "bridge absorbed a null request");
  for (const auto& x : live_) {
    MPSOC_MON_CHECK(x.orig->root_id != r->root_id,
                    "bridge absorbed root id " << r->root_id
                                               << " twice (duplication)");
  }
  Xfer x;
  x.orig = r;
  x.needs_rsp = !(r->posted && r->op == txn::Opcode::Write);
  live_.push_back(std::move(x));
}

void BridgeMonitor::onForward(const txn::RequestPtr& clone) {
  countEvent();
  MPSOC_MON_CHECK(clone != nullptr, "bridge forwarded a null request");
  auto it = std::find_if(live_.begin(), live_.end(), [&](const Xfer& x) {
    return x.orig->root_id == clone->root_id;
  });
  MPSOC_MON_CHECK(it != live_.end(),
                  "bridge forwarded root id "
                      << clone->root_id
                      << " without an absorbed original (fabrication)");
  const txn::RequestPtr& orig = it->orig;
  MPSOC_MON_CHECK(!it->forwarded, "bridge forwarded root id "
                                      << clone->root_id
                                      << " twice (duplication)");
  MPSOC_MON_CHECK(clone->id != orig->id,
                  "bridge reused the original request id "
                      << orig->id << " for the side-B clone");
  MPSOC_MON_CHECK(clone->op == orig->op,
                  "opcode corrupted across bridge: absorbed "
                      << toString(orig->op) << ", forwarded "
                      << toString(clone->op));
  MPSOC_MON_CHECK(clone->addr == orig->addr,
                  "address corrupted across bridge: absorbed 0x"
                      << std::hex << orig->addr << ", forwarded 0x"
                      << clone->addr << std::dec);
  MPSOC_MON_CHECK(clone->priority == orig->priority &&
                      clone->msg_id == orig->msg_id,
                  "priority/msg_id corrupted across bridge for root id "
                      << clone->root_id);
  MPSOC_MON_CHECK(clone->bytes_per_beat == width_b_,
                  "clone beat width " << clone->bytes_per_beat
                                      << " bytes does not match side-B bus "
                                         "width "
                                      << width_b_);
  // Width conversion rounds up to whole beats, never down and never by more
  // than one beat: orig_bytes <= clone_bytes < orig_bytes + width_b.
  MPSOC_MON_CHECK(clone->bytes() >= orig->bytes() &&
                      clone->bytes() < orig->bytes() + clone->bytes_per_beat,
                  "payload not conserved across bridge: absorbed "
                      << orig->bytes() << " bytes, forwarded "
                      << clone->bytes() << " bytes at " << clone->bytes_per_beat
                      << " bytes/beat");
  it->forwarded = true;
  maybeRetire(it);
}

void BridgeMonitor::onRspA(const txn::ResponsePtr& r) {
  countEvent();
  MPSOC_MON_CHECK(r != nullptr && r->req != nullptr,
                  "bridge delivered a response without a request");
  auto it = std::find_if(live_.begin(), live_.end(), [&](const Xfer& x) {
    return x.orig->root_id == r->req->root_id;
  });
  MPSOC_MON_CHECK(it != live_.end(),
                  "bridge delivered a response for root id "
                      << r->req->root_id
                      << " it never absorbed (spurious or duplicate)");
  MPSOC_MON_CHECK(it->needs_rsp,
                  "bridge responded to posted write root id "
                      << r->req->root_id << " (no response expected)");
  MPSOC_MON_CHECK(!it->responded, "bridge delivered two responses for root id "
                                      << r->req->root_id);
  MPSOC_MON_CHECK(r->req == it->orig,
                  "side-A response for root id "
                      << r->req->root_id
                      << " does not carry the original Request object (clone "
                         "leaked back across the bridge)");
  if (it->orig->op == txn::Opcode::Read) {
    // Store-and-forward: read data cannot exist before the clone reached
    // side B.  (Write acks may: the bridge acknowledges on absorption.)
    MPSOC_MON_CHECK(it->forwarded,
                    "read data for root id "
                        << r->req->root_id
                        << " delivered before the request was forwarded to "
                           "side B");
    MPSOC_MON_CHECK(r->beats == it->orig->beats,
                    "side-A read response carries "
                        << r->beats << " beats, original request asked for "
                        << it->orig->beats);
  } else {
    MPSOC_MON_CHECK(r->beats == 1, "side-A write acknowledge carries "
                                       << r->beats << " beats, expected 1");
  }
  it->responded = true;
  maybeRetire(it);
}

void BridgeMonitor::maybeRetire(std::deque<Xfer>::iterator it) {
  if (it->forwarded && (it->responded || !it->needs_rsp)) live_.erase(it);
}

void BridgeMonitor::finish(bool expect_drained) const {
  if (!expect_drained) return;
  if (live_.empty()) return;
  std::ostringstream oss;
  oss << "transactions stuck inside the bridge at end of run:";
  for (const auto& x : live_) {
    oss << " root(" << x.orig->root_id << (x.forwarded ? ",fwd" : ",held")
        << (x.responded ? ",rsp)" : ",no-rsp)");
  }
  fail(__FILE__, __LINE__, oss.str());
}

}  // namespace mpsoc::verify
