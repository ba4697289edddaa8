#include "layer_rigs.hpp"

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bridge/bridge.hpp"
#include "iptg/iptg.hpp"
#include "mem/lmi_controller.hpp"
#include "mem/simple_memory.hpp"
#include "noc/mesh.hpp"
#include "sim/component.hpp"
#include "sim/fifo.hpp"
#include "sim/simulator.hpp"
#include "stbus/node.hpp"
#include "txn/ports.hpp"

namespace perfbench {

namespace {

using namespace mpsoc;
using Clock = std::chrono::steady_clock;

constexpr sim::Picos kForever = 1'000'000'000'000ull;

/// Host nanoseconds taken by `fn()`.
template <typename Fn>
double timeNs(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

RigResult finish(double ns, std::uint64_t units, bool ok) {
  RigResult r;
  r.units = units;
  r.ns_per_unit = units ? ns / static_cast<double>(units) : 0.0;
  r.ok = ok && units > 0;
  return r;
}

/// One statistical agent: fixed 8-beat bursts, `txns` transactions.
iptg::IptgConfig agentConfig(std::uint64_t seed, std::uint32_t beat_bytes,
                             std::uint64_t base, double read_fraction,
                             std::uint64_t txns) {
  iptg::AgentProfile prof;
  prof.name = "a";
  prof.read_fraction = read_fraction;
  prof.burst_beats = {{8, 1.0}};
  prof.base_addr = base;
  prof.region_size = 1 << 20;
  prof.outstanding = 4;
  prof.posted_writes = true;
  prof.total_transactions = txns;
  iptg::IptgConfig cfg;
  cfg.seed = seed;
  cfg.bytes_per_beat = beat_bytes;
  cfg.agents.push_back(prof);
  return cfg;
}

bool allDone(const std::vector<std::unique_ptr<iptg::Iptg>>& gens) {
  for (const auto& g : gens) {
    if (!g->done()) return false;
  }
  return true;
}

// --- kernel rigs -------------------------------------------------------------

class Producer final : public sim::Component {
 public:
  Producer(sim::ClockDomain& clk, sim::SyncFifo<std::uint64_t>& out)
      : Component(clk, "producer"), out_(out) {}
  void evaluate() override {
    if (out_.canPush()) out_.push(next_++);
  }

 private:
  sim::SyncFifo<std::uint64_t>& out_;
  std::uint64_t next_ = 0;
};

class Consumer final : public sim::Component {
 public:
  Consumer(sim::ClockDomain& clk, sim::SyncFifo<std::uint64_t>& in)
      : Component(clk, "consumer"), in_(in) {}
  void evaluate() override {
    if (in_.empty()) return;
    // Items arrive in push order: item k carries the value k.
    if (in_.pop() != popped_) in_order_ = false;
    ++popped_;
  }
  std::uint64_t popped() const { return popped_; }
  bool inOrder() const { return in_order_; }

 private:
  sim::SyncFifo<std::uint64_t>& in_;
  std::uint64_t popped_ = 0;
  bool in_order_ = true;
};

/// Declares itself quiescent on its first edge and is never woken.
class Sleeper final : public sim::Component {
 public:
  using Component::Component;
  void evaluate() override { sleep(); }
};

class Ticker final : public sim::Component {
 public:
  using Component::Component;
  void evaluate() override { ++ticks_; }
  std::uint64_t ticks() const { return ticks_; }

 private:
  std::uint64_t ticks_ = 0;
};

}  // namespace

RigResult runFifoRig() {
  constexpr std::uint64_t kCycles = 400'000;
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 500.0);
  sim::SyncFifo<std::uint64_t> fifo(clk, "fifo", 4);
  Producer prod(clk, fifo);
  Consumer cons(clk, fifo);
  const double ns = timeNs([&] { s.run(kCycles * clk.period()); });
  // One item per cycle once the two-edge pipeline has filled.
  const bool ok = cons.inOrder() && cons.popped() + 2 >= kCycles;
  return finish(ns, cons.popped(), ok);
}

RigResult runSleepRig() {
  constexpr std::uint64_t kCycles = 400'000;
  constexpr std::size_t kSleepers = 63;
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 500.0);
  std::vector<std::unique_ptr<Sleeper>> sleepers;
  for (std::size_t i = 0; i < kSleepers; ++i) {
    sleepers.push_back(
        std::make_unique<Sleeper>(clk, "sleeper" + std::to_string(i)));
  }
  Ticker ticker(clk, "ticker");
  const double ns = timeNs([&] { s.run(kCycles * clk.period()); });
  const bool ok = ticker.ticks() == s.edgesExecuted() &&
                  s.asleepComponents() == kSleepers;
  return finish(ns, s.edgesExecuted(), ok);
}

// --- interconnect rigs ---------------------------------------------------------

RigResult runProtocolRig(core::RigProtocol protocol) {
  core::SingleLayerConfig cfg;
  cfg.protocol = protocol;
  cfg.masters = 6;
  cfg.memories = 2;
  cfg.txns_per_master = 600;
  core::SingleLayerRig rig(cfg);
  sim::Picos exec_ps = 0;
  const double ns = timeNs([&] { exec_ps = rig.run(); });
  const auto period_ps =
      static_cast<sim::Picos>(1.0e6 / rig.config().bus_mhz);
  RigResult r = finish(ns, exec_ps / period_ps, rig.allDone());
  r.util = rig.busUtilization();
  return r;
}

RigResult runBridgeRig() {
  constexpr std::size_t kMasters = 4;
  constexpr std::uint64_t kTxns = 1500;
  sim::Simulator s;
  auto& clk_a = s.addClockDomain("a", 200.0);
  auto& clk_b = s.addClockDomain("b", 250.0);
  stbus::StbusNode na(clk_a, "na", stbus::StbusNodeConfig{});
  stbus::StbusNode nb(clk_b, "nb", stbus::StbusNodeConfig{});
  bridge::Bridge br(clk_a, clk_b, "genconv", bridge::genConvConfig(4, 8));
  na.addTarget(br.slavePort(), 0x0, 1ull << 30);
  nb.addInitiator(br.masterPort());
  txn::TargetPort mport(clk_b, "mem", 4, 8);
  nb.addTarget(mport, 0x0, 1ull << 30);
  mem::SimpleMemory memory(clk_b, "mem", mport, mem::SimpleMemoryConfig{1});
  std::vector<std::unique_ptr<txn::InitiatorPort>> iports;
  std::vector<std::unique_ptr<iptg::Iptg>> gens;
  for (std::size_t i = 0; i < kMasters; ++i) {
    iports.push_back(std::make_unique<txn::InitiatorPort>(
        clk_a, "m" + std::to_string(i), 2, 8));
    na.addInitiator(*iports.back());
    gens.push_back(std::make_unique<iptg::Iptg>(
        clk_a, "g" + std::to_string(i), *iports.back(),
        agentConfig(31 + i, 4, (1ull << 22) * i, 0.5, kTxns)));
  }
  const double ns = timeNs([&] { s.runUntilIdle(kForever); });
  const std::uint64_t fwd = br.readsForwarded() + br.writesForwarded();
  return finish(ns, fwd, allDone(gens) && fwd == kMasters * kTxns);
}

RigResult runLmiRig(bool writes) {
  constexpr std::size_t kMasters = 4;
  constexpr std::uint64_t kTxns = 2500;
  sim::Simulator s;
  auto& clk = s.addClockDomain("n8", 250.0);
  stbus::StbusNode node(clk, "n8", stbus::StbusNodeConfig{});
  txn::TargetPort mport(clk, "lmi", 8, 16);
  node.addTarget(mport, 0x0, 1ull << 31);
  mem::LmiController lmi(clk, "lmi", mport, mem::LmiConfig{});
  std::vector<std::unique_ptr<txn::InitiatorPort>> iports;
  std::vector<std::unique_ptr<iptg::Iptg>> gens;
  for (std::size_t i = 0; i < kMasters; ++i) {
    iports.push_back(std::make_unique<txn::InitiatorPort>(
        clk, "m" + std::to_string(i), 2, 8));
    node.addInitiator(*iports.back());
    gens.push_back(std::make_unique<iptg::Iptg>(
        clk, "g" + std::to_string(i), *iports.back(),
        agentConfig(7 + i, 8, (1ull << 24) * i, writes ? 0.0 : 1.0, kTxns)));
  }
  const double ns = timeNs([&] { s.runUntilIdle(kForever); });
  const std::uint64_t served = lmi.requestsServed();
  return finish(ns, served, allDone(gens) && served == kMasters * kTxns);
}

RigResult runNocRig() {
  constexpr std::uint64_t kTxns = 400;
  sim::Simulator s;
  auto& clk = s.addClockDomain("noc", 400.0);
  // Ports outlive the mesh: its adapters keep references to them.
  txn::TargetPort mport(clk, "mem", 8, 16);
  std::vector<std::unique_ptr<txn::InitiatorPort>> iports;
  noc::NocMesh mesh(clk, "noc", noc::MeshConfig{4, 3, {}, 4});
  mem::SimpleMemory memory(clk, "mem", mport, mem::SimpleMemoryConfig{1});
  const noc::NodeId mem_at = mesh.node(1, 1);
  mesh.attachSlave(mport, mem_at, 0x0, 1ull << 30);
  std::vector<std::unique_ptr<iptg::Iptg>> gens;
  for (noc::NodeId at = 0; at < mesh.routerCount(); ++at) {
    if (at == mem_at) continue;
    const std::size_t i = iports.size();
    iports.push_back(std::make_unique<txn::InitiatorPort>(
        clk, "m" + std::to_string(i), 2, 8));
    mesh.attachMaster(*iports.back(), at);
    gens.push_back(std::make_unique<iptg::Iptg>(
        clk, "g" + std::to_string(i), *iports.back(),
        agentConfig(3 + i, 8, (1ull << 22) * i, 0.8, kTxns)));
  }
  const double ns = timeNs([&] { s.runUntilIdle(kForever); });
  return finish(ns, mesh.totalHops(), allDone(gens));
}

}  // namespace perfbench
