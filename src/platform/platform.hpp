#pragma once
// Platform: assembles a complete MPSoC instance from a PlatformConfig —
// clock domains, interconnect layers, bridges/converters, traffic
// generators, the ST220 core and the memory subsystem — and runs it.
//
// Reference instantiation (Topology::Full, mirroring Fig. 1):
//
//   N1  video-decode cluster   32-bit @ 200 MHz   decrypt, decoder, resizer
//   N5  AV I/O cluster (hot)   64-bit @ 200 MHz   video_in/out, audio, gfx_dma
//   N2  generic DMA cluster    32-bit @ 133 MHz   eth_dma, usb_dma
//   CPU ST220 VLIW DSP         32-bit @ 400 MHz   synthetic cache-miss load
//   N8  central node           64-bit @ 250 MHz   memory target
//
// Each cluster reaches N8 through a converter bridge (GenConv on the STBus
// platform: clock/width/protocol conversion with split reads and multiple
// outstanding transactions; lightweight blocking bridges otherwise).  The
// memory is the single target of N8: either an on-chip RAM or the LMI DDR
// SDRAM controller.  On AHB/AXI platforms the natively-STBus LMI sits behind
// a protocol-converter bridge and a 1x1 STBus node.

#include <memory>
#include <string>
#include <vector>

#include "ahb/ahb_layer.hpp"
#include "axi/axi_bus.hpp"
#include "bridge/bridge.hpp"
#include "cpu/st220.hpp"
#include "dma/dma.hpp"
#include "iptg/iptg.hpp"
#include "mem/lmi_controller.hpp"
#include "mem/simple_memory.hpp"
#include "noc/mesh.hpp"
#include "platform/config.hpp"
#include "platform/workloads.hpp"
#include "sim/fastforward.hpp"
#include "sim/simulator.hpp"
#include "stats/probes.hpp"
#include "stbus/node.hpp"
#include "verify/context.hpp"

namespace mpsoc::platform {

class Platform {
 public:
  explicit Platform(PlatformConfig cfg);
  ~Platform();

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  /// Run a finite workload to completion.  Returns the execution time (ps).
  sim::Picos run(sim::Picos max_ps = 50'000'000'000ull);
  /// Run an unbounded (e.g. two-phase) workload for a fixed duration.
  sim::Picos runFor(sim::Picos duration_ps);

  bool allDone() const;

  struct Totals {
    std::uint64_t issued = 0;
    std::uint64_t retired = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    double mean_read_latency_ns = 0.0;
  };
  Totals totals() const;

  /// Latency quantile (in ns) over all masters' awaited transactions.
  double readLatencyQuantileNs(double q) const;

  const PlatformConfig& config() const { return cfg_; }
  sim::Simulator& simulator() { return sim_; }

  /// The memory-interface request FIFO statistics (Fig. 6).
  const stats::FifoStateProbe& memFifo() const { return mem_fifo_probe_; }
  /// The memory-interface port itself (e.g. to attach a custom probe; doing
  /// so replaces the built-in memFifo() probe).
  txn::TargetPort& memPort() { return *mem_port_; }
  const stats::PhaseSchedule& phaseSchedule() const { return phases_; }

  const mem::LmiController* lmi() const { return lmi_.get(); }
  const mem::SimpleMemory* onchipMemory() const { return onchip_.get(); }
  const mem::SimpleMemory* scratchpad() const { return scratchpad_.get(); }
  const cpu::St220* dsp() const { return cpu_.get(); }
  const dma::DmaEngine* dmaEngine() const { return dma_.get(); }
  const std::vector<std::unique_ptr<iptg::Iptg>>& traffic() const {
    return iptgs_;
  }
  const std::vector<std::unique_ptr<bridge::Bridge>>& bridges() const {
    return bridges_;
  }
  txn::InterconnectBase* centralBus() { return central_.get(); }
  /// The packet fabric, or nullptr unless Topology::NocMesh.
  const noc::NocMesh* nocMesh() const { return mesh_.get(); }

  /// The protocol-monitor / conservation-audit registry, or nullptr when the
  /// platform was built without `cfg.verify`.
  verify::VerifyContext* verifyContext() { return verify_.get(); }

  /// Loosely-timed fast-forward statistics, or nullptr when the run had no
  /// fast-forward region (cfg.ff_until_ps == 0 or already past).  Approximate
  /// by construction — excluded from the canonical result digest.
  const sim::FastForwardStats* ffStats() const {
    return ff_ ? &ff_->stats() : nullptr;
  }

 private:
  struct Cluster {
    std::string name;
    sim::ClockDomain* clk = nullptr;
    std::uint32_t width = 4;
    std::unique_ptr<txn::InterconnectBase> bus;
  };

  std::unique_ptr<txn::InterconnectBase> makeBus(sim::ClockDomain& clk,
                                                 const std::string& name,
                                                 bool is_central) const;
  bridge::BridgeConfig uplinkConfig(std::uint32_t width_a,
                                    std::uint32_t width_b) const;
  /// Adapt an IP's traffic profile to the bus it lands on (interface width
  /// rescaling preserves byte counts) and to the platform protocol
  /// (outstanding capability, posted-write support).
  iptg::IptgConfig adaptConfig(iptg::IptgConfig cfg,
                               std::uint32_t new_width) const;
  Cluster* clusterFor(const std::string& name);

  void buildMemory();
  void buildClusters();
  void buildTraffic();
  void buildCpu();
  void buildDma();
  /// Walk every bus, bridge, memory and master, attaching monitors and the
  /// conservation auditor to `verify_`.  Called once, after construction.
  void attachVerification();
  /// Checkpoint-equivalence oracle (cfg_.statecheck): advance to
  /// cfg_.statecheck_at_ps, checkpoint, execute cfg_.statecheck_edges edges
  /// and digest, rewind, re-execute the same window and digest again; raises
  /// InvariantViolation naming the first diverging state holder when the two
  /// digests differ.  The run then continues normally from the end of the
  /// window.  No-op when MPSOC_STATECHECK is compiled out.
  void statecheckOracle();
  /// Assemble the loosely-timed engine: one route per master (cluster bus ->
  /// uplink bridge -> central node -> memory path, per topology) with the
  /// memory controller as the shared bottleneck channel.  Called lazily on
  /// the first fast-forward request.
  void buildFastForward();
  /// Fast-forward to `until` under the LT engine, then hand off to the
  /// cycle-accurate model through a checkpoint/restore boundary.  Runs the
  /// ff_check handoff-equivalence oracle when configured.
  void fastForward(sim::Picos until);
  /// Handoff-equivalence oracle (cfg_.ff_check): from the handoff state,
  /// execute cfg_.ff_check_edges edges and digest, rewind, re-execute and
  /// assert bit-identical digests.  Always compiled in (unlike statecheck).
  void ffHandoffOracle();

  /// NoC topology helpers: the memory's node and the mesh node the i-th
  /// master lands on (round-robin over the non-memory nodes).
  noc::NodeId nocMemNode() const;
  noc::NodeId nocMasterNode(std::size_t i) const;
  /// Attach `port` as the next NoC master (placement follows attach order).
  void attachNocMaster(txn::InitiatorPort& port);

  PlatformConfig cfg_;
  sim::Simulator sim_;
  std::unique_ptr<verify::VerifyContext> verify_;
  sim::ClockDomain* clk_n8_ = nullptr;
  sim::ClockDomain* clk_cpu_ = nullptr;
  std::vector<Cluster> clusters_;
  std::unique_ptr<txn::InterconnectBase> central_;
  std::unique_ptr<noc::NocMesh> mesh_;
  std::size_t noc_masters_attached_ = 0;

  std::vector<std::unique_ptr<txn::InitiatorPort>> iports_;
  std::vector<std::unique_ptr<txn::TargetPort>> tports_;
  std::vector<std::unique_ptr<bridge::Bridge>> bridges_;
  std::vector<std::unique_ptr<iptg::Iptg>> iptgs_;
  std::unique_ptr<cpu::St220> cpu_;
  std::unique_ptr<txn::InterconnectBase> cpu_node_;
  std::unique_ptr<dma::DmaEngine> dma_;

  txn::TargetPort* mem_port_ = nullptr;
  std::unique_ptr<stbus::StbusNode> mem_node_;
  std::unique_ptr<mem::SimpleMemory> onchip_;
  std::unique_ptr<mem::SimpleMemory> scratchpad_;
  std::unique_ptr<mem::LmiController> lmi_;

  stats::PhaseSchedule phases_;
  stats::FifoStateProbe mem_fifo_probe_;
  std::unique_ptr<sim::FastForward> ff_;
};

}  // namespace mpsoc::platform
