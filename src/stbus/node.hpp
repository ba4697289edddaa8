#pragma once
// STBus node model (STMicroelectronics proprietary interconnect).
//
// A full crossbar: one request channel per target and one response channel
// per initiator, with split transaction support: while one initiator
// receives data, another can issue a request to a different target.  Each
// initiator may have 8 accepted, not yet responded transactions (1 on Type
// 1).  Protocol types:
//
//   Type 1 — peripheral protocol: no split, one outstanding transaction per
//            initiator, the granted target path stays locked until the
//            response completes.
//   Type 2 — split + pipelined transactions, posted writes, priority/source
//            labelling, in-order response delivery per initiator.
//   Type 3 — Type 2 plus shaped request packets (a read burst occupies the
//            request channel for a single header cycle) and out-of-order
//            response delivery.
//
// Arbitration is priority- or round-robin-based and can operate at *message*
// granularity: consecutive requests carrying the same msg_id from the granted
// initiator keep the grant, so sequences the memory controller can optimise
// reach it unfragmented (Section 3 of the paper).
//
// Grant handover is hidden: a response retiring on a cycle unlocks its
// Type-1 path and frees its outstanding slot before the request engines
// arbitrate on that same cycle, and with the registered target FIFOs a queued
// next request is already at the memory interface when the previous access
// retires, so a 1-wait-state memory keeps its response channel at exactly 50%
// efficiency (Section 4.1.2).
//
// Activity: the engines keep absolute cycles, so a stream costs nothing per
// cycle.  A request engine granted on cycle g sends its packet's last cell
// (and pushes the packet to the target) on done_at = g + cells - 1.  A
// response engine that picked its response on cycle p walks the response's
// BeatSchedule (one beat per cycle, each no earlier than its beatTime) to the
// cycle of the last beat, last_at, and retires there if the initiator's
// response FIFO has room, else on the first cycle after a pop makes room.
// The channel counters settle when a stream ends; reqChannel()/rspChannel()
// add the part in progress, so they read exactly between edges.  After each
// evaluate the node sleeps when quiet() holds; stays awake while a free
// request engine has an eligible request or a free response engine a
// deliverable response; else sleeps until its engines' soonest done_at or
// last_at; else sleeps on back-pressure.  A push into an initiator's request
// FIFO or a target's response FIFO, and a pop from a target's request FIFO
// or an initiator's response FIFO, wakes it.

#include <cstdint>
#include <vector>

#include "stats/probes.hpp"
#include "txn/arbiter.hpp"
#include "txn/interconnect.hpp"

namespace mpsoc::stbus {

enum class StbusType : std::uint8_t { T1 = 1, T2 = 2, T3 = 3 };

struct StbusNodeConfig {
  StbusType type = StbusType::T3;
  txn::ArbPolicy arb = txn::ArbPolicy::FixedPriority;
  /// Hold the grant while the same initiator keeps presenting requests with
  /// the same non-zero msg_id.
  bool message_arbitration = true;
};

class StbusNode final : public txn::InterconnectBase {
 public:
  StbusNode(sim::ClockDomain& clk, std::string name, StbusNodeConfig cfg);

  void evaluate() override;
  bool idle() const override;

  /// Request channel stats of a target, through the current cycle.
  stats::ChannelUtilization reqChannel(std::size_t target) const;
  /// Response channel stats of an initiator, through the current cycle.
  stats::ChannelUtilization rspChannel(std::size_t initiator) const;

  /// One InitiatorMonitor per initiator port: in-order delivery for T1/T2,
  /// out-of-order allowed for T3, per-initiator outstanding cap from config.
  void attachMonitors(verify::VerifyContext& ctx) override;

 private:
  struct ReqEngine {
    txn::RequestPtr streaming;
    sim::Cycle done_at = 0;  ///< cycle the packet's last cell goes out
    txn::Arbiter arb;
    bool has_last = false;
    std::size_t last_initiator = 0;
    std::uint64_t last_msg = 0;
    bool locked = false;  ///< Type 1: locked until the response retires
    stats::ChannelUtilization chan;  ///< settled when the last cell goes out

    auto simStateMembers() {
      return std::tie(streaming, done_at, arb, has_last, last_initiator,
                      last_msg, locked, chan);
    }
  };

  struct RspEngine {
    txn::ResponsePtr rsp;        ///< held from pick to retire
    std::size_t target = 0;      ///< target FIFO `rsp` sits in
    sim::Cycle picked_at = 0;    ///< cycle the response was picked
    sim::Picos picked_ps = 0;    ///< instant of that cycle's edge
    sim::Cycle last_at = 0;      ///< cycle of the last beat
    stats::ChannelUtilization chan;  ///< settled when a response retires

    auto simStateMembers() {
      return std::tie(rsp, target, picked_at, picked_ps, last_at, chan);
    }
  };

  /// Build the per-channel engines; run by the first evaluate().
  void finalize();
  /// No stream active and every input FIFO empty: evaluate() is a no-op
  /// until a port push.
  bool quiet() const;
  void requestPath();
  void responsePath();
  void runReqEngine(ReqEngine& e, std::size_t target);
  /// After both paths: sleep, stay awake, or sleep until the next engine
  /// event (see the Activity note above).
  void settle();
  /// The response `initiator`'s channel would pick next, or null; its target
  /// index goes to `target`.
  txn::ResponsePtr nextResponse(std::size_t initiator,
                                std::size_t& target) const;
  void retireResponse(RspEngine& e, std::size_t initiator);

  /// Request-channel cells of a packet (see startStream).
  std::uint32_t packetCells(const txn::Request& req) const;

  /// `initiator`'s head request routes to `target` and may be granted.
  bool requests(std::size_t initiator, std::size_t target) const;
  void startStream(ReqEngine& e, std::size_t initiator, std::size_t target);
  void finishStream(ReqEngine& e, std::size_t target);

  StbusNodeConfig cfg_;
  unsigned max_outstanding_;  ///< per initiator
  std::vector<ReqEngine> req_engines_;
  std::vector<RspEngine> rsp_engines_;
  bool finalized_ = false;
  std::vector<txn::Arbiter::Candidate> cands_;  ///< runReqEngine scratch

  SIM_STATE_MEMBERS_WITH_BASE(txn::InterconnectBase, req_engines_,
                              rsp_engines_, finalized_);
  SIM_STATE_EXEMPT(cfg_, "immutable configuration");
  SIM_STATE_EXEMPT(max_outstanding_, "immutable configuration");
  SIM_STATE_EXEMPT(cands_, "per-call scratch");
};

}  // namespace mpsoc::stbus
