#pragma once
// AMBA AXI interconnect model.
//
// AXI is a point-to-point protocol with five largely independent
// monodirectional channels: read address (AR), write address (AW), write data
// (W), read data (R) and write response (B).  The model captures the features
// the paper's analysis leans on:
//
//  * reads and writes to the same slave proceed on *separate* request
//    channels (AR vs AW+W), unlike STBus's single request channel;
//  * multiple outstanding transactions per master with out-of-order
//    completion (transaction IDs);
//  * burst transactions issue only the first address (one AR cycle per burst);
//  * fine-granularity data-link arbitration: the per-master R channel
//    re-arbitrates cycle by cycle and interleaves beats of different
//    in-flight responses, so a stalled response does not reserve the link.
//
// The last two points are what make AXI "more robust to traffic congestion"
// above ~80% bus utilisation in the many-to-many study (Section 4.1.1), while
// in many-to-one scenarios burst overlapping merely matches the simpler
// protocols (Section 4.1.2).
//
// A master's single request queue is scanned through a small window to find
// the first read and the first write, emulating the independent read/write
// paths of a real AXI master interface.  Every channel arbitrates
// round-robin.

#include <cstdint>
#include <vector>

#include "stats/probes.hpp"
#include "txn/arbiter.hpp"
#include "txn/interconnect.hpp"

namespace mpsoc::axi {

struct AxiBusConfig {
  unsigned max_outstanding_per_initiator = 8;
};

class AxiBus final : public txn::InterconnectBase {
 public:
  AxiBus(sim::ClockDomain& clk, std::string name, AxiBusConfig cfg = {});

  void evaluate() override;
  bool idle() const override;

  /// One InitiatorMonitor per initiator port: out-of-order completion is
  /// legal (transaction IDs), outstanding cap from config.
  void attachMonitors(verify::VerifyContext& ctx) override;

  const stats::ChannelUtilization& arChannel(std::size_t target) const {
    return ar_[target].chan;
  }
  const stats::ChannelUtilization& wChannel(std::size_t target) const {
    return aw_[target].chan;
  }
  const stats::ChannelUtilization& rChannel(std::size_t initiator) const {
    return r_[initiator].chan;
  }

 private:
  /// Read-address channel engine (per target): one cycle per burst.
  struct ArEngine {
    txn::Arbiter arb;
    stats::ChannelUtilization chan;

    auto simStateMembers() { return std::tie(arb, chan); }
  };
  /// Write address+data engine (per target): 1 + beats cycles per burst.
  struct AwEngine {
    txn::Arbiter arb;
    txn::RequestPtr streaming;
    std::uint32_t beats_left = 0;
    std::size_t stream_target = 0;
    stats::ChannelUtilization chan;

    auto simStateMembers() {
      return std::tie(arb, streaming, beats_left, stream_target, chan);
    }
  };
  /// Per-initiator read-data link interleaving beats of its responses.
  struct REngine {
    std::vector<RspStream> active;
    std::size_t last_pick = 0;
    stats::ChannelUtilization chan;

    auto simStateMembers() { return std::tie(active, last_pick, chan); }
  };

  /// Size the per-channel engines; run by the first evaluate().
  void finalize();
  void readRequestPath();
  /// No burst streaming and every input FIFO empty: evaluate() is a no-op
  /// until a port push.
  bool quiet() const;
  void writeRequestPath();
  void responsePath();
  /// Append every response not yet streaming to its initiator's R link.
  void harvestResponses();

  /// Index (within the visible window of initiator i's queue) of the first
  /// request with the given opcode routed anywhere, or -1.
  int findInWindow(std::size_t initiator, txn::Opcode op,
                   std::size_t target) const;

  bool outstandingOk(std::size_t initiator, const txn::RequestPtr& r) const;

  AxiBusConfig cfg_;
  std::vector<ArEngine> ar_;
  std::vector<AwEngine> aw_;
  std::vector<REngine> r_;
  /// Per-target request-FIFO slots claimed by in-flight write payloads.
  std::vector<unsigned> reserved_;
  /// Per-initiator one-request-per-channel-per-cycle guards, cleared at
  /// the start of every evaluate().
  std::vector<bool> ar_issued_;
  std::vector<bool> w_granted_;
  bool finalized_ = false;
  /// Request-path arbitration scratch, rebuilt per target.
  std::vector<txn::Arbiter::Candidate> cands_;
  std::vector<int> window_idx_;

  SIM_STATE_MEMBERS_WITH_BASE(txn::InterconnectBase, ar_, aw_, r_, reserved_,
                              finalized_);
  SIM_STATE_EXEMPT(cfg_, "immutable configuration");
  SIM_STATE_EXEMPT(ar_issued_, "per-call scratch");
  SIM_STATE_EXEMPT(w_granted_, "per-call scratch");
  SIM_STATE_EXEMPT(cands_, "per-call scratch");
  SIM_STATE_EXEMPT(window_idx_, "per-call scratch");
};

}  // namespace mpsoc::axi
