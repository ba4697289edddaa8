#include "platform/platform.hpp"

#include <algorithm>
#include "sim/check.hpp"
#include <cmath>

namespace mpsoc::platform {

namespace {
constexpr std::uint32_t kCentralWidth = 8;  // 64-bit N8
constexpr std::uint64_t kCpuCodeBase = kMemBase + 64ull * (1 << 20);
constexpr std::uint64_t kCpuDataBase = kMemBase + 80ull * (1 << 20);
}  // namespace

Platform::Platform(PlatformConfig cfg) : cfg_(cfg) {
  sim_.setActivityGating(cfg_.activity_gating);
  clk_n8_ = &sim_.addClockDomain("n8", 250.0);

  if (cfg_.two_phase_workload) {
    phases_.addPhase("phase1", 0, cfg_.phase1_end_ps);
    phases_.addPhase("phase2", cfg_.phase1_end_ps, cfg_.phase2_end_ps);
  }

  if (cfg_.topology == Topology::NocMesh) {
    // Packet-fabric outlook: every actor sits on a W x H mesh in the central
    // clock domain; XY routing replaces the bus/bridge hierarchy.  The
    // platform protocol still shapes the *masters* (outstanding capability,
    // posted writes) so protocol x fabric interactions stay explorable.
    noc::MeshConfig mc;
    mc.width = cfg_.noc_width;
    mc.height = cfg_.noc_height;
    mc.router.message_locking = cfg_.message_arbitration;
    mesh_ = std::make_unique<noc::NocMesh>(*clk_n8_, "noc", mc);
  } else {
    central_ = makeBus(*clk_n8_, "n8", /*is_central=*/true);
  }
  buildMemory();
  buildClusters();
  buildTraffic();
  if (cfg_.include_cpu) buildCpu();
  if (cfg_.include_dma) buildDma();
  // Out-of-graph state holders join the checkpoint set in construction order
  // (the order labels digest items, so it must be deterministic): the probe,
  // then the verify context's monitors.
  sim_.addCheckpointable(&mem_fifo_probe_);
  if (cfg_.verify) {
    verify_ = std::make_unique<verify::VerifyContext>(sim_);
    attachVerification();
  }
}

void Platform::attachVerification() {
  verify::VerifyContext& ctx = *verify_;
  if (central_) central_->attachMonitors(ctx);
  if (mesh_) mesh_->attachMonitors(ctx);
  for (auto& c : clusters_) c.bus->attachMonitors(ctx);
  if (cpu_node_) cpu_node_->attachMonitors(ctx);
  if (mem_node_) mem_node_->attachMonitors(ctx);
  for (auto& b : bridges_) b->attachMonitors(ctx);
  if (onchip_) onchip_->attachMonitors(ctx);
  if (scratchpad_) scratchpad_->attachMonitors(ctx);
  if (lmi_) lmi_->attachMonitors(ctx);
}

Platform::~Platform() = default;

std::unique_ptr<txn::InterconnectBase> Platform::makeBus(
    sim::ClockDomain& clk, const std::string& name, bool is_central) const {
  switch (cfg_.protocol) {
    case Protocol::Stbus: {
      stbus::StbusNodeConfig c;
      c.type = cfg_.stbus_type;
      c.message_arbitration = cfg_.message_arbitration;
      c.arb = cfg_.arbitration;
      return std::make_unique<stbus::StbusNode>(clk, name, c);
    }
    case Protocol::Ahb: {
      ahb::AhbLayerConfig c;
      c.arb = cfg_.arbitration;
      return std::make_unique<ahb::AhbLayer>(clk, name, c);
    }
    case Protocol::Axi: {
      axi::AxiBusConfig c;
      c.max_outstanding_per_initiator = is_central ? 16 : 8;
      return std::make_unique<axi::AxiBus>(clk, name, c);
    }
  }
  return nullptr;
}

bridge::BridgeConfig Platform::uplinkConfig(std::uint32_t width_a,
                                            std::uint32_t width_b) const {
  const bool optimised =
      cfg_.force_split_bridges ||
      (cfg_.protocol == Protocol::Stbus && !cfg_.force_lightweight_bridges);
  if (optimised) {
    return bridge::genConvConfig(width_a, width_b);
  }
  return bridge::lightweightBridgeConfig(width_a, width_b);
}

iptg::IptgConfig Platform::adaptConfig(iptg::IptgConfig cfg,
                                       std::uint32_t new_width) const {
  if (cfg_.agent_burst_override_beats > 0) {
    for (auto& a : cfg.agents) {
      a.burst_beats = {{cfg_.agent_burst_override_beats, 1.0}};
    }
  }
  const std::uint32_t native = cfg.bytes_per_beat;
  if (native != new_width) {
    cfg.bytes_per_beat = new_width;
    for (auto& a : cfg.agents) {
      for (auto& b : a.burst_beats) {
        b.beats = std::max<std::uint32_t>(
            1, txn::repackBeats(b.beats, native, new_width));
      }
    }
  }
  for (auto& a : cfg.agents) {
    if (cfg_.agent_outstanding_override > 0) {
      a.outstanding = cfg_.agent_outstanding_override;
    }
    switch (cfg_.protocol) {
      case Protocol::Stbus:
        if (cfg_.stbus_type == stbus::StbusType::T1) {
          a.outstanding = 1;
          a.posted_writes = false;
        }
        break;
      case Protocol::Ahb:
        // Non-split protocol: one transaction in flight, non-posted writes.
        a.outstanding = 1;
        a.posted_writes = false;
        break;
      case Protocol::Axi:
        // Writes complete through the B channel.
        a.posted_writes = false;
        break;
    }
  }
  return cfg;
}

noc::NodeId Platform::nocMemNode() const {
  // Centre node: minimises (and equalises) hop distance under XY routing.
  return mesh_->node(cfg_.noc_width / 2, cfg_.noc_height / 2);
}

noc::NodeId Platform::nocMasterNode(std::size_t i) const {
  // Round-robin over every node except the memory's, in attach order.
  const std::size_t nodes = mesh_->routerCount();
  auto id = static_cast<noc::NodeId>(i % (nodes - 1));
  if (id >= nocMemNode()) ++id;
  return id;
}

void Platform::attachNocMaster(txn::InitiatorPort& port) {
  mesh_->attachMaster(port, nocMasterNode(noc_masters_attached_));
  ++noc_masters_attached_;
}

void Platform::buildMemory() {
  const bool native_stbus = cfg_.protocol == Protocol::Stbus;

  if (mesh_) {
    // NoC topology: the memory model hangs off a slave adapter at the centre
    // node — no converter bridge, the adapter is the fabric interface.  Both
    // memory kinds work unmodified: the LMI's out-of-order service is
    // invisible to the adapter (responses return tagged by request id).
    tports_.push_back(std::make_unique<txn::TargetPort>(
        *clk_n8_, cfg_.memory == MemoryKind::Lmi ? "lmi" : "mem",
        cfg_.mem_fifo_depth, 16));
    mem_port_ = tports_.back().get();
    mesh_->attachSlave(*mem_port_, nocMemNode(), kMemBase, kMemSize);
    if (cfg_.memory == MemoryKind::Lmi) {
      lmi_ = std::make_unique<mem::LmiController>(*clk_n8_, "lmi", *mem_port_,
                                                  cfg_.lmi);
    } else {
      onchip_ = std::make_unique<mem::SimpleMemory>(
          *clk_n8_, "onchip", *mem_port_,
          mem::SimpleMemoryConfig{cfg_.onchip_wait_states});
    }
    mem_fifo_probe_.attach(mem_port_->req,
                           cfg_.two_phase_workload ? &phases_ : nullptr);
    return;
  }

  if (cfg_.include_scratchpad) {
    // Registered before the main memory: first matching region wins, so the
    // DSP's code/data window peels off to the on-chip SRAM.
    tports_.push_back(
        std::make_unique<txn::TargetPort>(*clk_n8_, "scratch", 4, 8));
    central_->addTarget(*tports_.back(), kCpuCodeBase,
                        32ull * (1 << 20));  // code + data windows
    scratchpad_ = std::make_unique<mem::SimpleMemory>(
        *clk_n8_, "scratch", *tports_.back(),
        mem::SimpleMemoryConfig{cfg_.scratchpad_wait_states});
  }

  if (cfg_.memory == MemoryKind::OnChip) {
    // Protocol-agnostic on-chip RAM: attach straight to the central node.
    tports_.push_back(std::make_unique<txn::TargetPort>(
        *clk_n8_, "mem", cfg_.mem_fifo_depth, 16));
    mem_port_ = tports_.back().get();
    central_->addTarget(*mem_port_, kMemBase, kMemSize);
    onchip_ = std::make_unique<mem::SimpleMemory>(
        *clk_n8_, "onchip", *mem_port_,
        mem::SimpleMemoryConfig{cfg_.onchip_wait_states});
  } else if (native_stbus) {
    // The LMI exposes an STBus target interface: direct attach.
    tports_.push_back(std::make_unique<txn::TargetPort>(
        *clk_n8_, "lmi", cfg_.mem_fifo_depth, 16));
    mem_port_ = tports_.back().get();
    central_->addTarget(*mem_port_, kMemBase, kMemSize);
    lmi_ = std::make_unique<mem::LmiController>(*clk_n8_, "lmi", *mem_port_,
                                                cfg_.lmi);
  } else {
    // AHB/AXI platform: protocol-converter bridge -> 1x1 STBus node -> LMI.
    bridge::BridgeConfig bc =
        cfg_.mem_bridge_split
            ? bridge::genConvConfig(kCentralWidth, kCentralWidth,
                                    /*outstanding=*/8)
            : bridge::lightweightBridgeConfig(kCentralWidth, kCentralWidth);
    bridges_.push_back(std::make_unique<bridge::Bridge>(
        *clk_n8_, *clk_n8_, "membr", bc));
    bridge::Bridge& br = *bridges_.back();
    central_->addTarget(br.slavePort(), kMemBase, kMemSize);

    stbus::StbusNodeConfig nc;
    nc.type = stbus::StbusType::T3;
    mem_node_ = std::make_unique<stbus::StbusNode>(*clk_n8_, "nmem", nc);
    mem_node_->addInitiator(br.masterPort());
    tports_.push_back(std::make_unique<txn::TargetPort>(
        *clk_n8_, "lmi", cfg_.mem_fifo_depth, 16));
    mem_port_ = tports_.back().get();
    mem_node_->addTarget(*mem_port_, kMemBase, kMemSize);
    lmi_ = std::make_unique<mem::LmiController>(*clk_n8_, "lmi", *mem_port_,
                                                cfg_.lmi);
  }

  mem_fifo_probe_.attach(mem_port_->req,
                         cfg_.two_phase_workload ? &phases_ : nullptr);
}

void Platform::buildClusters() {
  struct Spec {
    const char* name;
    double mhz;
    std::uint32_t width;
  };
  static constexpr Spec kSpecs[] = {
      {"N1", 200.0, 4}, {"N5", 200.0, 8}, {"N2", 133.0, 4}};

  // Single-layer and NoC topologies have no satellite layers.
  if (cfg_.topology == Topology::SingleLayer ||
      cfg_.topology == Topology::NocMesh) {
    return;
  }

  for (const auto& s : kSpecs) {
    if (cfg_.topology == Topology::Collapsed && std::string(s.name) == "N5") {
      continue;  // folded into N8
    }
    Cluster c;
    c.name = s.name;
    c.clk = &sim_.addClockDomain(s.name, s.mhz);
    c.width = s.width;
    c.bus = makeBus(*c.clk, s.name, /*is_central=*/false);

    bridges_.push_back(std::make_unique<bridge::Bridge>(
        *c.clk, *clk_n8_, std::string(s.name) + "_up",
        uplinkConfig(s.width, kCentralWidth)));
    bridge::Bridge& br = *bridges_.back();
    c.bus->addTarget(br.slavePort(), kMemBase, kMemSize);
    central_->addInitiator(br.masterPort());

    clusters_.push_back(std::move(c));
  }
}

Platform::Cluster* Platform::clusterFor(const std::string& name) {
  for (auto& c : clusters_) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

void Platform::buildTraffic() {
  auto specs = referenceWorkload(
      cfg_.workload_scale, cfg_.two_phase_workload, cfg_.phase1_end_ps,
      cfg_.phase2_end_ps, cfg_.seed, cfg_.use_case);
  if (cfg_.master_limit > 0 && specs.size() > cfg_.master_limit) {
    // The fuzz shrinker's "drop masters" axis: keep the first N IPs in
    // workload order (deterministic for a given use case).
    specs.resize(cfg_.master_limit);
  }
  for (const auto& ip : specs) {
    Cluster* c = nullptr;
    if (cfg_.topology == Topology::Full) {
      c = clusterFor(ip.cluster);
    } else if (cfg_.topology == Topology::Collapsed) {
      c = clusterFor(ip.cluster);  // null for N5 -> lands on central
    }
    sim::ClockDomain* clk = c ? c->clk : clk_n8_;
    const std::uint32_t width = c ? c->width : kCentralWidth;

    iports_.push_back(
        std::make_unique<txn::InitiatorPort>(*clk, ip.name, 2, 8));
    if (mesh_) {
      attachNocMaster(*iports_.back());
    } else {
      (c ? c->bus.get() : central_.get())->addInitiator(*iports_.back());
    }
    iptgs_.push_back(std::make_unique<iptg::Iptg>(
        *clk, ip.name, *iports_.back(), adaptConfig(ip.cfg, width)));
  }
}

void Platform::buildCpu() {
  cpu::St220Config cc;
  cc.code_base = kCpuCodeBase;
  cc.data_base = kCpuDataBase;
  cc.seed = cfg_.seed + 100;
  // The DSP is an *interferer*, not the critical path: a modest code/data
  // footprint keeps miss rates "significant" without making the CPU quota
  // dominate the execution time.
  cc.code_footprint = 24 * 1024;
  cc.data_footprint = 64 * 1024;
  cc.data_random_fraction = 0.15;
  cc.load_fraction = 0.22;
  cc.store_fraction = 0.10;
  cc.branch_fraction = 0.06;
  // Sized so the DSP finishes well inside the AV streams' execution window:
  // it interferes (cache-miss bursts into the shared memory) without being
  // the critical path of the Fig. 3/5 experiments.
  cc.total_bundles = cfg_.two_phase_workload
                         ? UINT64_MAX
                         : static_cast<std::uint64_t>(
                               std::llround(6'000 * cfg_.workload_scale));
  if (cfg_.protocol == Protocol::Ahb) cc.posted_writebacks = false;

  if (cfg_.topology == Topology::SingleLayer ||
      cfg_.topology == Topology::NocMesh) {
    // Flattened: the DSP sits directly on the central node (or its own mesh
    // node) in the central clock domain.
    cc.bytes_per_beat = kCentralWidth;
    iports_.push_back(
        std::make_unique<txn::InitiatorPort>(*clk_n8_, "st220", 2, 8));
    if (mesh_) {
      attachNocMaster(*iports_.back());
    } else {
      central_->addInitiator(*iports_.back());
    }
    cpu_ = std::make_unique<cpu::St220>(*clk_n8_, "st220", *iports_.back(),
                                        cc);
    return;
  }

  clk_cpu_ = &sim_.addClockDomain("st220", cfg_.cpu_mhz);
  cc.bytes_per_beat = 4;
  iports_.push_back(
      std::make_unique<txn::InitiatorPort>(*clk_cpu_, "st220", 2, 8));
  // The upsize (32->64 bit) + frequency (400->250 MHz) converter of Fig. 1.
  bridges_.push_back(std::make_unique<bridge::Bridge>(
      *clk_cpu_, *clk_n8_, "cpu_conv", uplinkConfig(4, kCentralWidth)));
  bridge::Bridge& br = *bridges_.back();

  // A private 1x1 layer (same protocol as the platform) connects the core to
  // its converter.
  cpu_node_ = makeBus(*clk_cpu_, "cpu_l1", /*is_central=*/false);
  cpu_node_->addInitiator(*iports_.back());
  cpu_node_->addTarget(br.slavePort(), kMemBase, kMemSize);
  central_->addInitiator(br.masterPort());
  cpu_ = std::make_unique<cpu::St220>(*clk_cpu_, "st220", *iports_.back(), cc);
}

void Platform::buildDma() {
  iports_.push_back(
      std::make_unique<txn::InitiatorPort>(*clk_n8_, "ts_dma", 2, 8));
  if (mesh_) {
    attachNocMaster(*iports_.back());
  } else {
    central_->addInitiator(*iports_.back());
  }
  dma::DmaConfig dc;
  dc.bytes_per_beat = kCentralWidth;
  dc.burst_beats = 16;
  dc.posted_writes = cfg_.protocol != Protocol::Ahb;
  dma_ = std::make_unique<dma::DmaEngine>(*clk_n8_, "ts_dma",
                                          *iports_.back(), dc);
  // Timeshift: spool captured frames into a circular buffer, in frame-sized
  // chunks, scaled with the rest of the workload.
  const auto chunks = static_cast<std::uint64_t>(
      std::llround(24 * cfg_.workload_scale));
  const std::uint64_t src = kMemBase + 100ull * (1 << 20);
  const std::uint64_t dst = kMemBase + 120ull * (1 << 20);
  for (std::uint64_t i = 0; i < std::max<std::uint64_t>(1, chunks); ++i) {
    dma_->program({src + i * 16384, dst + i * 16384, 16384});
  }
}

void Platform::statecheckOracle() {
  // Warm up to the checkpoint instant so the window covers a busy platform,
  // not the cold-start transient.
  sim_.run(cfg_.statecheck_at_ps);
  const auto div = sim_.replayCheck(cfg_.statecheck_edges);
  SIM_CHECK(!div, "statecheck divergence at t="
                      << sim_.now() << " ps after " << cfg_.statecheck_edges
                      << " edges: " << div->holder << " digests 0x" << std::hex
                      << div->first << " (first pass) vs 0x" << div->replay
                      << std::dec
                      << " (replay) — its SIM_STATE manifest is incomplete or "
                         "its evaluate() depends on un-checkpointed state");
}

sim::Picos Platform::run(sim::Picos max_ps) {
  if (cfg_.statecheck) statecheckOracle();
  const sim::Picos t = sim_.runUntilIdle(max_ps);
  sim_.finish();
  // Leak audit only when the workload actually finished — a run that hit
  // max_ps legitimately still has transactions in flight.
  if (verify_) verify_->finish(allDone());
  return t;
}

sim::Picos Platform::runFor(sim::Picos duration_ps) {
  const sim::Picos start = sim_.now();
  if (cfg_.statecheck) statecheckOracle();
  const sim::Picos t = sim_.run(start + duration_ps);
  sim_.finish();
  if (verify_) verify_->finish(/*expect_drained=*/false);
  return t;
}

bool Platform::allDone() const {
  for (const auto& g : iptgs_) {
    if (!g->done()) return false;
  }
  if (cpu_ && !cpu_->done()) return false;
  if (dma_ && !dma_->done()) return false;
  return true;
}

double Platform::readLatencyQuantileNs(double q) const {
  stats::Histogram merged(0.0, stats::LatencyProbe::kMaxNs,
                          stats::LatencyProbe::kBins);
  for (const auto& g : iptgs_) merged.merge(g->latency().histogramNs());
  if (cpu_) merged.merge(cpu_->latency().histogramNs());
  return merged.quantile(q);
}

Platform::Totals Platform::totals() const {
  Totals t;
  double lat_sum = 0.0;
  std::uint64_t lat_n = 0;
  auto fold = [&](const txn::MasterBase& m) {
    t.issued += m.issued();
    t.retired += m.retired();
    t.bytes_read += m.bytesRead();
    t.bytes_written += m.bytesWritten();
    lat_sum += m.latency().latencyNs().sum();
    lat_n += m.latency().latencyNs().count();
  };
  for (const auto& g : iptgs_) fold(*g);
  if (cpu_) fold(*cpu_);
  if (dma_) fold(*dma_);
  t.mean_read_latency_ns = lat_n ? lat_sum / static_cast<double>(lat_n) : 0.0;
  return t;
}

}  // namespace mpsoc::platform
