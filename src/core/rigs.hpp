#pragma once
// Reusable single-layer experiment rig for the Section 4.1 studies: N traffic
// generators and M memories on one interconnect layer of a chosen protocol.
// Used by the S4.1.1 (many-to-many) and S4.1.2 (many-to-one) harnesses and
// by the buffering ablation.

#include <cstdint>
#include <memory>
#include <vector>

#include "ahb/ahb_layer.hpp"
#include "axi/axi_bus.hpp"
#include "iptg/iptg.hpp"
#include "mem/simple_memory.hpp"
#include "sim/simulator.hpp"
#include "stbus/node.hpp"
#include "txn/ports.hpp"
#include "verify/context.hpp"

namespace mpsoc::core {

enum class RigProtocol : std::uint8_t { Stbus, Ahb, Axi };

struct SingleLayerConfig {
  RigProtocol protocol = RigProtocol::Stbus;
  std::size_t masters = 6;
  std::size_t memories = 1;
  unsigned wait_states = 1;
  std::size_t target_fifo_depth = 2;  ///< per-memory input buffering
  double read_fraction = 1.0;
  std::vector<iptg::BurstChoice> bursts{{8, 1.0}};
  /// Idle gap (cycles, uniform) inserted between messages — the offered-load
  /// dial for the S4.1.1 sweep (0 = saturating).
  std::uint64_t gap_min = 0;
  std::uint64_t gap_max = 0;
  unsigned outstanding = 4;
  std::uint64_t txns_per_master = 200;
  bool spray_over_all_memories = true;  ///< many-to-many vs partitioned
  double bus_mhz = 200.0;
  std::uint64_t seed = 1;
  /// Attach the protocol monitors (src/verify).
  bool verify = false;
};

class SingleLayerRig {
 public:
  explicit SingleLayerRig(SingleLayerConfig cfg);
  ~SingleLayerRig();

  /// Run to completion; returns execution time in ps.
  sim::Picos run();

  bool allDone() const;
  /// Fraction of bus cycles carrying a data/request transfer anywhere on the
  /// layer ("bus utilisation" in the paper's Section 4.1 sense).
  double busUtilization() const;
  /// Aggregate response-channel efficiency (transfers per cycle).
  double responseEfficiency() const;
  std::uint64_t totalBytes() const;
  double bandwidthMbS() const;

  sim::Simulator& simulator() { return sim_; }
  txn::InterconnectBase& bus() { return *bus_; }
  const SingleLayerConfig& config() const { return cfg_; }

  /// Monitor registry, or nullptr when built without `cfg.verify`.
  verify::VerifyContext* verifyContext() { return verify_.get(); }

 private:
  SingleLayerConfig cfg_;
  sim::Simulator sim_;
  std::unique_ptr<verify::VerifyContext> verify_;
  sim::ClockDomain* clk_;
  std::unique_ptr<txn::InterconnectBase> bus_;
  std::vector<std::unique_ptr<txn::InitiatorPort>> iports_;
  std::vector<std::unique_ptr<txn::TargetPort>> tports_;
  std::vector<std::unique_ptr<iptg::Iptg>> gens_;
  std::vector<std::unique_ptr<mem::SimpleMemory>> mems_;
  sim::Picos exec_ps_ = 0;
};

}  // namespace mpsoc::core
