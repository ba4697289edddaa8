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
// Grant handover is hidden: the arbiter re-evaluates every cycle, and with
// the registered target FIFOs a queued next request is already at the memory
// interface when the previous access retires, so a 1-wait-state memory keeps
// its response channel at exactly 50% efficiency (Section 4.1.2).

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

  /// Request channel stats of a target.
  const stats::ChannelUtilization& reqChannel(std::size_t target) const {
    return req_engines_[target].chan;
  }
  /// Response channel stats of an initiator.
  const stats::ChannelUtilization& rspChannel(std::size_t initiator) const {
    return rsp_engines_[initiator].chan;
  }

  /// One InitiatorMonitor per initiator port: in-order delivery for T1/T2,
  /// out-of-order allowed for T3, per-initiator outstanding cap from config.
  void attachMonitors(verify::VerifyContext& ctx) override;

 private:
  struct ReqEngine {
    txn::RequestPtr streaming;
    std::uint32_t beats_left = 0;
    std::size_t stream_target = 0;  ///< routed target of `streaming`
    txn::Arbiter arb;
    bool has_last = false;
    std::size_t last_initiator = 0;
    std::uint64_t last_msg = 0;
    bool locked = false;  ///< Type 1: locked until the response retires
    stats::ChannelUtilization chan;

    auto simStateMembers() {
      return std::tie(streaming, beats_left, stream_target, arb, has_last,
                      last_initiator, last_msg, locked, chan);
    }
  };

  struct RspEngine {
    RspStream stream;
    stats::ChannelUtilization chan;

    auto simStateMembers() { return std::tie(stream, chan); }
  };

  /// Build the per-channel engines; run by the first evaluate().
  void finalize();
  /// No stream active and every input FIFO empty: evaluate() is a no-op
  /// until a port push.
  bool quiet() const;
  void requestPath();
  void responsePath();
  void runReqEngine(ReqEngine& e, std::size_t target);
  /// Pick the next response deliverable on `initiator`'s channel `e`.
  void selectResponse(RspEngine& e, std::size_t initiator);

  bool eligible(std::size_t initiator, const txn::RequestPtr& front,
                std::size_t target) const;
  void startStream(ReqEngine& e, std::size_t initiator, std::size_t target);
  void finishStream(ReqEngine& e);

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
