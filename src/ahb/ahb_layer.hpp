#pragma once
// AMBA AHB layer model.
//
// A single shared communication channel: two unidirectional data paths (read
// and write) of which only one can be active at any time, pipelined
// address/data phases, bursts to amortise arbitration, non-posted writes.
// As in the paper's model, *split transactions are not implemented*: from
// grant to the last response beat the layer is owned by one transaction, and
// slave wait states surface as idle bus cycles.  Arbitration handover is
// hidden (HGRANT switches while the penultimate beat completes), so
// back-to-back bursts lose no cycles — which is why AHB matches the advanced
// protocols in the single-layer many-to-one scenario (Section 4.1.2) and
// falls apart in multi-layer systems where its non-split semantics keep the
// source layer locked across bridge round trips (Section 4.2).
//
// Activity: the layer keeps absolute cycles and sleeps after every
// evaluate.  WriteData sleeps until its last data beat (grant + beats);
// WaitResponse until the target pushes a response; Stream walks the
// response's BeatSchedule (one beat per cycle, each no earlier than its
// beatTime) to the cycle of the last beat and retires there if the master's
// response FIFO has room, else after a pop; Idle until a master pushes a
// request or a full target pops one.  The channel counters settle when a
// state ends; channel() adds the part in progress, so it reads exactly
// between edges.

#include <cstdint>
#include <vector>

#include "stats/probes.hpp"
#include "txn/arbiter.hpp"
#include "txn/interconnect.hpp"

namespace mpsoc::ahb {

struct AhbLayerConfig {
  txn::ArbPolicy arb = txn::ArbPolicy::FixedPriority;
};

class AhbLayer final : public txn::InterconnectBase {
 public:
  AhbLayer(sim::ClockDomain& clk, std::string name, AhbLayerConfig cfg = {});

  void evaluate() override;
  bool idle() const override;

  /// The single shared channel (address + both data paths), through the
  /// current cycle.
  stats::ChannelUtilization channel() const;

  /// One InitiatorMonitor per initiator port, all sharing a one-transaction
  /// ledger: AHB has no split transactions, so a single non-posted
  /// transaction owns the layer from grant to last response beat.
  void attachMonitors(verify::VerifyContext& ctx) override;

 private:
  enum class State : std::uint8_t {
    Idle,          ///< no transaction owns the layer
    WriteData,     ///< streaming write data beats master -> slave
    WaitResponse,  ///< request at the slave; waiting for its response
    Stream,        ///< streaming read data / write ack back to the master
  };

  /// Every initiator request FIFO is empty.
  bool requestsDrained() const;
  void arbitrate();
  void advance();
  /// Sleep until the event the current state waits for (see the Activity
  /// note above).
  void settle();

  AhbLayerConfig cfg_;
  txn::Arbiter arb_;
  State state_ = State::Idle;
  txn::RequestPtr active_;
  std::size_t active_ini_ = 0;
  std::size_t active_tgt_ = 0;
  txn::ResponsePtr rsp_;  ///< Stream: the response going back
  /// Cycle the state began: the grant (WriteData), the request reaching the
  /// target (WaitResponse), the response's first cycle (Stream).
  sim::Cycle since_ = 0;
  sim::Picos since_ps_ = 0;  ///< Stream: instant of since_'s edge
  /// Cycle of the last beat: of the write data (WriteData), of the response
  /// (Stream).
  sim::Cycle last_at_ = 0;
  stats::ChannelUtilization chan_;  ///< settled when a state ends
  std::vector<txn::Arbiter::Candidate> cands_;  ///< arbitrate() scratch

  SIM_STATE_MEMBERS_WITH_BASE(txn::InterconnectBase, arb_, state_, active_,
                              active_ini_, active_tgt_, rsp_, since_,
                              since_ps_, last_at_, chan_);
  SIM_STATE_EXEMPT(cfg_, "immutable configuration");
  SIM_STATE_EXEMPT(cands_, "per-call scratch");
};

}  // namespace mpsoc::ahb
