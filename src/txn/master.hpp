#pragma once
// MasterBase: shared issue/retire machinery for every transaction source
// (IPTG agents, the ST220 core, bridge master sides).
//
// Tracks outstanding transactions against a configurable limit — the
// "multiple outstanding transaction capability of bus master interfaces" that
// the paper identifies as precondition (i) for distributed architectures to
// win (guideline 3).  Posted writes are fire-and-forget: they retire when the
// request is pushed and never occupy an outstanding slot.
//
// Every master is woken by a push into its response FIFO and by a pop from
// its request FIFO, so a subclass can sleep() while it waits for a response
// or for port space.

#include <cstdint>
#include <string>

#include "sim/component.hpp"
#include "stats/probes.hpp"
#include "txn/ports.hpp"
#include "txn/transaction.hpp"

namespace mpsoc::txn {

class MasterBase : public sim::Component {
 public:
  MasterBase(sim::ClockDomain& clk, std::string name, InitiatorPort& port,
             unsigned max_outstanding);

  /// True when a new non-posted transaction may be issued this cycle.
  bool canIssue() const;
  /// True when a posted write may be issued this cycle (port space only).
  bool canIssuePosted() const;

  /// Stamp, count and push a request.  The caller must have checked
  /// canIssue()/canIssuePosted().
  void issue(const RequestPtr& req);

  /// Drain the response FIFO; updates outstanding counts and latency stats.
  /// Calls onResponse() for each retired transaction.
  void collectResponses();

  unsigned outstanding() const { return outstanding_; }
  std::uint64_t issued() const { return issued_; }
  std::uint64_t retired() const { return retired_; }
  std::uint64_t bytesRead() const { return bytes_read_; }
  std::uint64_t bytesWritten() const { return bytes_written_; }
  const stats::LatencyProbe& latency() const { return latency_; }

 protected:
  /// Hook for subclasses (e.g. unblocking a stalled CPU, advancing an agent).
  virtual void onResponse(const ResponsePtr& rsp) { (void)rsp; }

  InitiatorPort& port_;

 private:
  unsigned max_outstanding_;
  unsigned outstanding_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t retired_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
  stats::LatencyProbe latency_;

  SIM_STATE_MEMBERS(outstanding_, issued_, retired_, bytes_read_,
                    bytes_written_, latency_);
  SIM_STATE_EXEMPT(max_outstanding_, "immutable configuration");
};

}  // namespace mpsoc::txn
