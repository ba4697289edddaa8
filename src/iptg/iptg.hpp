#pragma once
// IPTG — configurable IP Traffic Generator (a reimplementation of the
// STMicroelectronics SystemC block described in Section 3.1).
//
// An IPTG emulates one real-life IP core as a set of *agents* (internal
// sub-processes), each with its own statistical traffic profile (burst-length
// mix, read/write mix, addressing scheme, inter-transaction gaps, outstanding
// capability) or an explicit transaction *sequence*.  Agents can depend on
// each other through synchronisation points ("agent B starts after agent A
// has completed N transactions"), which reproduces pipelined IP behaviour
// such as decrypt -> decode -> resize chains.
//
// Time-phased profiles let a single run express distinct working regimes
// (the two phases of Fig. 6: an intense steady phase followed by a burstier,
// lower-average phase).

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "txn/master.hpp"

namespace mpsoc::iptg {

enum class AddressPattern : std::uint8_t { Sequential, Random, Strided };

/// Weighted burst-length table entry (beats at the IPTG's native bus width).
struct BurstChoice {
  std::uint32_t beats;
  double weight;
};

/// Explicit transaction for sequence mode.
struct SeqEntry {
  txn::Opcode op = txn::Opcode::Read;
  std::uint64_t addr = 0;
  std::uint32_t beats = 1;
  /// Idle cycles after this entry issues, before the next may start.
  std::uint64_t gap_cycles = 0;
};

/// A time-window override of the statistical knobs (working regimes).
struct PhaseOverride {
  sim::Picos begin = 0;
  sim::Picos end = 0;  ///< exclusive
  double throttle = 1.0;
  std::uint64_t gap_min = 0;
  std::uint64_t gap_max = 0;
};

struct AgentProfile {
  std::string name;

  // -- statistical mode ------------------------------------------------
  double read_fraction = 1.0;
  std::vector<BurstChoice> burst_beats{{8, 1.0}};
  AddressPattern pattern = AddressPattern::Sequential;
  std::uint64_t stride = 0;  ///< for Strided
  /// Probability of starting the next transaction on any eligible cycle.
  double throttle = 1.0;
  /// Additional uniform idle gap (cycles) between transactions.
  std::uint64_t gap_min = 0;
  std::uint64_t gap_max = 0;
  std::vector<PhaseOverride> phases;  ///< optional regime schedule

  // -- sequence mode (non-empty overrides statistical mode) --------------
  std::vector<SeqEntry> sequence;

  // -- target region ------------------------------------------------------
  std::uint64_t base_addr = 0;
  std::uint64_t region_size = 1 << 20;

  // -- bus interface capability -------------------------------------------
  unsigned outstanding = 1;  ///< per-agent outstanding transaction limit
  bool posted_writes = false;
  std::uint8_t priority = 0;
  /// Consecutive transactions grouped under one message id (message-based
  /// arbitration keeps them together all the way to the memory controller).
  std::uint64_t message_len = 1;

  // -- workload -------------------------------------------------------------
  /// Transactions to issue; 0 = unbounded (run bounded by simulated time).
  std::uint64_t total_transactions = 0;

  // -- dependencies ---------------------------------------------------------
  int after_agent = -1;           ///< index of the producer agent, or -1
  /// Producer completions needed to start.  A producer that retires its
  /// whole quota meets the dependency even when the quota (e.g. scaled down
  /// by workload_scale) is below after_count.
  std::uint64_t after_count = 0;
};

struct IptgConfig {
  std::vector<AgentProfile> agents;
  std::uint32_t bytes_per_beat = 4;  ///< native interface width
  std::uint64_t seed = 1;
};

class Iptg final : public txn::MasterBase {
 public:
  Iptg(sim::ClockDomain& clk, std::string name, txn::InitiatorPort& port,
       IptgConfig cfg);

  void evaluate() override;
  bool idle() const override;

  /// All agents have exhausted their quotas and every response returned.
  bool done() const;

  std::uint64_t agentIssued(std::size_t i) const { return agents_[i].issued; }
  std::uint64_t agentRetired(std::size_t i) const { return agents_[i].retired; }

 protected:
  void onResponse(const txn::ResponsePtr& rsp) override;

 private:
  struct AgentState {
    /// Built in place: moving a discrete_distribution copies its tables.
    AgentState(const AgentProfile& p, std::string src, std::uint64_t seed);

    AgentProfile profile;
    std::string source;  ///< "<iptg>.<agent>", stamped on every request
    /// Draws an index into profile.burst_beats by weight.  Built once: a
    /// draw reads only the cumulative table, never earlier draws.
    std::discrete_distribution<std::size_t> burst_dist;
    sim::Rng rng;
    std::uint64_t issued = 0;
    std::uint64_t retired = 0;
    unsigned outstanding = 0;
    std::uint64_t next_addr = 0;
    sim::Cycle blocked_until = 0;
    std::size_t seq_pos = 0;
    std::uint64_t msg_remaining = 0;
    std::uint64_t msg_id = 0;

    bool quotaDone() const {
      if (!profile.sequence.empty()) return seq_pos >= profile.sequence.size();
      return profile.total_transactions != 0 &&
             issued >= profile.total_transactions;
    }

    /// profile, source and burst_dist are per-agent immutable
    /// configuration; everything else mutates.
    auto simStateMembers() {
      return std::tie(rng, issued, retired, outstanding, next_addr,
                      blocked_until, seq_pos, msg_remaining, msg_id);
    }
  };

  bool agentReady(const AgentState& a) const;
  txn::RequestPtr makeRequest(AgentState& a, std::size_t agent_idx);
  const PhaseOverride* activePhase(const AgentState& a) const;

  IptgConfig cfg_;
  std::vector<AgentState> agents_;
  std::size_t rr_next_ = 0;
  std::uint64_t next_msg_id_;

  SIM_STATE_MEMBERS_WITH_BASE(txn::MasterBase, agents_, rr_next_,
                              next_msg_id_);
  SIM_STATE_EXEMPT(cfg_, "immutable configuration");
};

}  // namespace mpsoc::iptg
