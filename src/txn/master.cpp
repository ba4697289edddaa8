#include "txn/master.hpp"

#include "sim/check.hpp"

namespace mpsoc::txn {

MasterBase::MasterBase(sim::ClockDomain& clk, std::string name,
                       InitiatorPort& port, unsigned max_outstanding)
    : sim::Component(clk, std::move(name)), port_(port),
      max_outstanding_(max_outstanding ? max_outstanding : 1) {
  // Activity protocol: a master parked on a stall wakes when a response
  // arrives or when its full request port frees a slot.
  port_.rsp.wakeOnPush(this);
  port_.req.wakeOnPop(this);
}

bool MasterBase::canIssue() const {
  return outstanding_ < max_outstanding_ && port_.req.canPush();
}

bool MasterBase::canIssuePosted() const { return port_.req.canPush(); }

void MasterBase::issue(const RequestPtr& req) {
  req->created_ps = clk_.simulator().now();
  if (req->source.empty()) req->source = name_;
  ++issued_;
  if (req->op == Opcode::Write) {
    bytes_written_ += req->bytes();
  } else {
    bytes_read_ += req->bytes();
  }
  const bool fire_and_forget = req->posted && req->op == Opcode::Write;
  if (!fire_and_forget) {
    SIM_CHECK_CTX(outstanding_ < max_outstanding_, name_, &clk_,
                  "issue() beyond max outstanding " << max_outstanding_);
    ++outstanding_;
  } else {
    ++retired_;  // posted writes retire at issue
  }
  port_.req.push(req);
}

void MasterBase::collectResponses() {
  while (!port_.rsp.empty()) {
    ResponsePtr rsp = port_.rsp.pop();
    SIM_CHECK_CTX(outstanding_ > 0, name_, &clk_,
                  "response arrived with no outstanding transaction");
    --outstanding_;
    ++retired_;
    rsp->req->completed_ps = clk_.simulator().now();
    latency_.record(rsp->req->created_ps, rsp->req->completed_ps);
    onResponse(rsp);
  }
}

}  // namespace mpsoc::txn
