// AHB layer and AXI interconnect tests, including the cross-protocol
// single-layer comparisons of Sections 4.1.1 and 4.1.2.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ahb/ahb_layer.hpp"
#include "axi/axi_bus.hpp"
#include "iptg/iptg.hpp"
#include "mem/simple_memory.hpp"
#include "sim/check.hpp"
#include "sim/simulator.hpp"
#include "stbus/node.hpp"
#include "txn/ports.hpp"

namespace {

using namespace mpsoc;

// A single-layer rig generic over the interconnect engine.  `n_targets`
// memories are interleaved across the address map; each master sprays
// requests over all of them (many-to-many) or over one (many-to-one).
struct Rig {
  sim::Simulator sim;
  sim::ClockDomain& clk;
  std::unique_ptr<txn::InterconnectBase> bus;
  std::vector<std::unique_ptr<txn::InitiatorPort>> iports;
  std::vector<std::unique_ptr<txn::TargetPort>> tports;
  std::vector<std::unique_ptr<iptg::Iptg>> gens;
  std::vector<std::unique_ptr<mem::SimpleMemory>> mems;

  enum class Kind { Stbus, Ahb, Axi };

  Rig(Kind kind, std::size_t n_masters, std::size_t n_targets,
      unsigned wait_states, std::uint64_t txns, bool many_to_many,
      double read_fraction = 0.8, std::size_t tgt_depth = 4,
      bool posted = false)
      : clk(sim.addClockDomain("bus", 200.0)) {
    switch (kind) {
      case Kind::Stbus:
        bus = std::make_unique<stbus::StbusNode>(clk, "bus",
                                                 stbus::StbusNodeConfig{});
        break;
      case Kind::Ahb:
        bus = std::make_unique<ahb::AhbLayer>(clk, "bus");
        break;
      case Kind::Axi:
        bus = std::make_unique<axi::AxiBus>(clk, "bus");
        break;
    }
    const std::uint64_t region = 1ull << 24;
    for (std::size_t t = 0; t < n_targets; ++t) {
      tports.push_back(std::make_unique<txn::TargetPort>(
          clk, "t" + std::to_string(t), tgt_depth, 8));
      bus->addTarget(*tports.back(), region * t, region);
      mems.push_back(std::make_unique<mem::SimpleMemory>(
          clk, "mem" + std::to_string(t), *tports.back(),
          mem::SimpleMemoryConfig{wait_states}));
    }
    for (std::size_t i = 0; i < n_masters; ++i) {
      iports.push_back(std::make_unique<txn::InitiatorPort>(
          clk, "m" + std::to_string(i), 4, 8));
      bus->addInitiator(*iports.back());
      iptg::IptgConfig icfg;
      icfg.seed = 97 + i;
      iptg::AgentProfile prof;
      prof.name = "a";
      prof.read_fraction = read_fraction;
      prof.burst_beats = {{4, 0.5}, {8, 0.5}};
      prof.pattern = iptg::AddressPattern::Random;
      prof.posted_writes = posted;
      if (many_to_many) {
        prof.base_addr = 0;
        prof.region_size = region * n_targets;
      } else {
        prof.base_addr = 0;
        prof.region_size = region;
      }
      prof.outstanding = 4;
      prof.total_transactions = txns;
      icfg.agents.push_back(prof);
      gens.push_back(std::make_unique<iptg::Iptg>(
          clk, "g" + std::to_string(i), *iports.back(), icfg));
    }
  }

  sim::Picos run() { return sim.runUntilIdle(1'000'000'000'000ull); }

  bool allDone() const {
    for (const auto& g : gens) {
      if (!g->done()) return false;
    }
    return true;
  }
};

TEST(AhbLayer, CompletesMixedTraffic) {
  Rig rig(Rig::Kind::Ahb, 4, 1, 1, 60, false);
  rig.run();
  EXPECT_TRUE(rig.allDone());
}

TEST(AhbLayer, WaitStatesSurfaceAsHeldCycles) {
  Rig rig(Rig::Kind::Ahb, 2, 1, 4, 60, false, 1.0);
  rig.run();
  auto& layer = static_cast<ahb::AhbLayer&>(*rig.bus);
  // With 4 wait states the locked-bus idle time dominates transfers.
  EXPECT_GT(layer.channel().held(), layer.channel().transfers());
}

TEST(AxiBus, CompletesMixedTraffic) {
  Rig rig(Rig::Kind::Axi, 4, 2, 1, 60, true);
  rig.run();
  EXPECT_TRUE(rig.allDone());
}

TEST(AxiBus, OutOfOrderAcrossTargets) {
  // One master reads from a slow and a fast memory; the fast response must
  // not wait behind the slow one (AXI OOO), so total time is bounded by the
  // slow access, not the sum.
  sim::Simulator sim;
  auto& clk = sim.addClockDomain("bus", 200.0);
  axi::AxiBus bus(clk, "axi");

  txn::TargetPort slow_p(clk, "slow", 2, 4);
  txn::TargetPort fast_p(clk, "fast", 2, 4);
  bus.addTarget(slow_p, 0x0000'0000, 1 << 20);
  bus.addTarget(fast_p, 0x1000'0000, 1 << 20);
  mem::SimpleMemory slow(clk, "slowm", slow_p, {20});
  mem::SimpleMemory fast(clk, "fastm", fast_p, {0});

  txn::InitiatorPort ip(clk, "m0", 4, 8);
  bus.addInitiator(ip);

  iptg::IptgConfig icfg;
  iptg::AgentProfile a;
  a.name = "slow";
  a.base_addr = 0;
  a.region_size = 1 << 12;
  a.burst_beats = {{8, 1.0}};
  a.total_transactions = 2;
  a.outstanding = 2;
  iptg::AgentProfile b = a;
  b.name = "fast";
  b.base_addr = 0x1000'0000;
  b.total_transactions = 8;
  b.outstanding = 2;
  icfg.agents = {a, b};
  iptg::Iptg gen(clk, "g", ip, icfg);

  sim.runUntilIdle(1'000'000'000ull);
  EXPECT_TRUE(gen.done());
  // Fast-memory transactions completed while slow ones were pending:
  // mean latency of all 10 must be far below the slow access time.
  EXPECT_EQ(gen.retired(), 10u);
}

// ---- Section 4.1.2: many-to-one, all protocols perform the same ----------

TEST(SingleLayer, ManyToOneProtocolsEquivalent) {
  const std::uint64_t txns = 150;
  Rig st(Rig::Kind::Stbus, 4, 1, 1, txns, false, 1.0);
  Rig ax(Rig::Kind::Axi, 4, 1, 1, txns, false, 1.0);
  Rig ah(Rig::Kind::Ahb, 4, 1, 1, txns, false, 1.0);
  double t_st = static_cast<double>(st.run());
  double t_ax = static_cast<double>(ax.run());
  double t_ah = static_cast<double>(ah.run());
  EXPECT_TRUE(st.allDone());
  EXPECT_TRUE(ax.allDone());
  EXPECT_TRUE(ah.allDone());
  // The paper: "our simulations did not show significant differences".
  // Allow 15% spread around STBus.
  EXPECT_NEAR(t_ax / t_st, 1.0, 0.15);
  EXPECT_NEAR(t_ah / t_st, 1.0, 0.15);
}

// ---- Section 4.1.1: many-to-many, AHB saturates, STBus/AXI overlap -------

TEST(SingleLayer, ManyToManyAdvancedProtocolsBeatAhb) {
  const std::uint64_t txns = 120;
  Rig st(Rig::Kind::Stbus, 6, 4, 3, txns, true, 1.0);
  Rig ax(Rig::Kind::Axi, 6, 4, 3, txns, true, 1.0);
  Rig ah(Rig::Kind::Ahb, 6, 4, 3, txns, true, 1.0);
  double t_st = static_cast<double>(st.run());
  double t_ax = static_cast<double>(ax.run());
  double t_ah = static_cast<double>(ah.run());
  EXPECT_TRUE(st.allDone());
  EXPECT_TRUE(ax.allDone());
  EXPECT_TRUE(ah.allDone());
  // Parallel flows: both STBus and AXI must clearly outperform AHB, which
  // serialises every wait state on the single shared channel.
  EXPECT_LT(t_st / t_ah, 0.75);
  EXPECT_LT(t_ax / t_ah, 0.75);
}

TEST(AxiBus, PostedWritesComplete) {
  Rig rig(Rig::Kind::Axi, 3, 2, 1, 50, true, 0.0, 4, true);
  rig.run();
  EXPECT_TRUE(rig.allDone());
  std::uint64_t served = 0;
  for (const auto& m : rig.mems) served += m->accessesServed();
  EXPECT_EQ(served, 150u);
}

// A request of no beat would stream forever; every engine names it at its
// grant instead (the IPTG and trace grammars reject one, so only a profile
// built in code can issue it).
TEST(Interconnects, ZeroBeatRequestIsNamedAtGrant) {
  const std::pair<Rig::Kind, txn::Opcode> cases[] = {
      {Rig::Kind::Stbus, txn::Opcode::Write},
      {Rig::Kind::Ahb, txn::Opcode::Write},
      {Rig::Kind::Ahb, txn::Opcode::Read},
      {Rig::Kind::Axi, txn::Opcode::Write},
      {Rig::Kind::Axi, txn::Opcode::Read}};
  for (const auto& [kind, op] : cases) {
    SCOPED_TRACE(static_cast<int>(kind));
    SCOPED_TRACE(op == txn::Opcode::Read ? "read" : "write");
    Rig rig(kind, 1, 1, 1, 1, false);
    iptg::IptgConfig icfg;
    iptg::AgentProfile a;
    a.name = "zero";
    a.sequence = {{op, 0x40, 0, 0}};
    icfg.agents = {a};
    // Replace the rig's statistical master with the zero-beat one.
    rig.gens.clear();
    rig.gens.push_back(
        std::make_unique<iptg::Iptg>(rig.clk, "zero", *rig.iports[0], icfg));
    try {
      rig.sim.run(1'000'000);
      ADD_FAILURE() << "a request of no beat was granted silently";
    } catch (const sim::InvariantViolation& e) {
      EXPECT_NE(std::string(e.what()).find("carries no beat"),
                std::string::npos)
          << e.what();
      EXPECT_EQ(e.context().who, "bus");
    }
  }
}

}  // namespace
