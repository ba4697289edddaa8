#include "txn/audit.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "sim/clock.hpp"

namespace mpsoc::txn {

void TxnAuditor::onIssue(const sim::ClockDomain& clk, const Request& req,
                         bool fire_and_forget) {
  SIM_CHECK_CTX(live_.find(req.id) == live_.end() && !completed_.count(req.id),
                "txn-audit", &clk,
                "transaction id " << req.id << " (" << req.source
                                  << ") issued twice");
  ++issued_;
  if (fire_and_forget) {
    // Posted write: complete at issue.  Remember the id so a stray response
    // for it is caught as a spurious completion.
    completed_.insert(req.id);
    ++retired_;
    return;
  }
  live_[req.id] = Live{req.source, req.addr, req.created_ps};
}

void TxnAuditor::onRetire(const sim::ClockDomain& clk, const Response& rsp) {
  SIM_CHECK_CTX(rsp.req != nullptr, "txn-audit", &clk,
                "retirement carries no request");
  const std::uint64_t id = rsp.req->id;
  auto it = live_.find(id);
  if (it == live_.end()) {
    SIM_CHECK_CTX(!completed_.count(id), "txn-audit", &clk,
                  "transaction id " << id << " (" << rsp.req->source
                                    << ") retired twice");
    SIM_CHECK_CTX(false, "txn-audit", &clk,
                  "response for never-issued transaction id " << id);
  }
  live_.erase(it);
  completed_.insert(id);
  ++retired_;
}

void TxnAuditor::finish(bool expect_drained) const {
  if (expect_drained && !live_.empty()) {
    // Sort leaked ids so the report (and any test asserting on it) is
    // deterministic regardless of hash-map iteration order.
    std::vector<std::uint64_t> ids;
    ids.reserve(live_.size());
    for (const auto& [id, info] : live_) ids.push_back(id);  // mpsoc-lint: allow(unordered-iter)
    std::sort(ids.begin(), ids.end());
    std::ostringstream oss;
    oss << live_.size() << " transaction(s) leaked (issued, never retired):";
    for (std::uint64_t id : ids) {
      const Live& l = live_.at(id);
      oss << " id=" << id << " src=" << l.source << " addr=0x" << std::hex
          << l.addr << std::dec << ";";
    }
    sim::raiseInvariant(sim::checkContext(__FILE__, __LINE__, "txn-audit",
                                          nullptr),
                        oss.str());
  }
  SIM_CHECK(retired_ <= issued_, "retired " << retired_ << " transactions but "
                                            << "only " << issued_
                                            << " were issued");
}

}  // namespace mpsoc::txn
