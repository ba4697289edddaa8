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
//
// Activity: the engines keep absolute cycles, so a stream costs nothing per
// cycle.  A write engine granted on cycle g sends its payload's last beat
// (and pushes the request to the target) on done_at = g + beats - 1.  An R
// link carrying one response walks that response's BeatSchedule (one beat
// per cycle, each no earlier than its beatTime) to the cycle of the last
// beat, last_at, and retires there if the initiator's response FIFO has
// room, else on the first cycle after a pop makes room.  A link carrying
// several responses interleaves them beat by beat on the cycles a beat is
// due; a last beat that meets a full response FIFO holds the link from
// last_at until a pop.  The channel counters settle when a stream or wait
// ends; arChannel()/wChannel()/rChannel() add the part in progress, so they
// read exactly between edges.  After each evaluate the bus sleeps when
// quiet(); stays awake after an edge that granted, moved an interleaved beat
// or completed a stream (the next edge may act on it); else sleeps until
// the soonest done_at, last_at or due interleaved beat; else sleeps on
// back-pressure, woken by a port push or pop (txn/interconnect.hpp).

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

  /// Read-address channel stats of a target, through the current cycle.
  stats::ChannelUtilization arChannel(std::size_t target) const;
  /// Write address+data channel stats of a target, through the current
  /// cycle.
  stats::ChannelUtilization wChannel(std::size_t target) const;
  /// Read-data link stats of an initiator, through the current cycle.
  stats::ChannelUtilization rChannel(std::size_t initiator) const;

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
    sim::Cycle done_at = 0;  ///< cycle the payload's last beat goes out
    stats::ChannelUtilization chan;  ///< settled when a payload completes

    auto simStateMembers() { return std::tie(arb, streaming, done_at, chan); }
  };
  /// A response on an R link.
  struct RStream {
    txn::ResponsePtr rsp;
    std::size_t target = 0;       ///< target FIFO `rsp` sits in
    std::uint32_t next_beat = 0;  ///< beats out, a solo walk's excepted

    auto simStateMembers() { return std::tie(rsp, target, next_beat); }
  };
  /// Per-initiator read-data link interleaving beats of its responses.
  /// With one response (solo) its beats from next_beat on are walked from
  /// walk_from; with several, each beat is stepped on the cycle it goes out.
  struct REngine {
    std::vector<RStream> active;
    std::size_t last_pick = 0;
    sim::Cycle walk_from = 0;  ///< solo: first cycle next_beat may go out
    sim::Picos walk_ps = 0;    ///< solo: instant of walk_from's edge
    /// Solo: cycle of the last beat.  Interleaved and `blocked`: cycle the
    /// picked last beat first met a full response FIFO.
    sim::Cycle last_at = 0;
    bool blocked = false;  ///< interleaved: the picked last beat waits
    stats::ChannelUtilization chan;  ///< settled per stepped beat and wait

    auto simStateMembers() {
      return std::tie(active, last_pick, walk_from, walk_ps, last_at, blocked,
                      chan);
    }
  };

  /// Size the per-channel engines; run by the first evaluate().
  void finalize();
  void readRequestPath();
  /// No burst streaming and every input FIFO empty: evaluate() is a no-op
  /// until a port push.
  bool quiet() const;
  void writeRequestPath();
  /// The payload's last beat goes out: push it to the target.
  void finishWrite(AwEngine& eng, std::size_t target);
  void responsePath();
  /// Append every response not yet streaming to its initiator's R link.
  void harvestResponses();
  /// Advance initiator `i`'s R link by this cycle.
  void runLink(REngine& e, std::size_t initiator);
  /// Start the solo walk of `e`'s only stream at cycle `from` (edge at
  /// `from_ps`).
  void startSolo(REngine& e, sim::Cycle from, sim::Picos from_ps);
  /// Settle `e`'s solo walk through the previous cycle: it interleaves from
  /// this cycle on.
  void endSolo(REngine& e);
  /// Deliver `e.active[k]`'s response to the initiator and drop the stream.
  void retireStream(REngine& e, std::size_t k, std::size_t initiator);
  /// After every path: sleep, stay awake, or sleep until the next engine
  /// event (see the Activity note above).
  void settle();

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
  /// This evaluate granted, stepped an interleaved beat or completed a
  /// stream: the next edge may act on it.
  bool moved_ = false;
  bool finalized_ = false;
  /// Request-path arbitration scratch, rebuilt per target.
  std::vector<txn::Arbiter::Candidate> cands_;
  std::vector<int> window_idx_;

  SIM_STATE_MEMBERS_WITH_BASE(txn::InterconnectBase, ar_, aw_, r_, reserved_,
                              finalized_);
  SIM_STATE_EXEMPT(cfg_, "immutable configuration");
  SIM_STATE_EXEMPT(ar_issued_, "per-call scratch");
  SIM_STATE_EXEMPT(w_granted_, "per-call scratch");
  SIM_STATE_EXEMPT(moved_, "per-call scratch");
  SIM_STATE_EXEMPT(cands_, "per-call scratch");
  SIM_STATE_EXEMPT(window_idx_, "per-call scratch");
};

}  // namespace mpsoc::axi
