// Protocol-detail tests: the finer mechanisms each engine models — STBus
// type differences on request-channel occupancy and response ordering, AXI
// read/write channel separation, asynchronous FIFO stress, and the LMI under
// refresh pressure.

#include <gtest/gtest.h>

#include <memory>

#include "axi/axi_bus.hpp"
#include "iptg/iptg.hpp"
#include "mem/lmi_controller.hpp"
#include "mem/simple_memory.hpp"
#include "sim/fifo.hpp"
#include "sim/simulator.hpp"
#include "stbus/node.hpp"
#include "txn/ports.hpp"

namespace {

using namespace mpsoc;

// ---- STBus type semantics -------------------------------------------------

// Type 3 shaped packets: a read burst occupies the request channel for one
// header cell; Type 2 expresses it cell by cell.  With read-only traffic the
// request-channel transfer counts reveal the difference directly.
TEST(StbusTypes, ShapedReadPacketsUseOneRequestCell) {
  auto run = [](stbus::StbusType type) {
    sim::Simulator sim;
    auto& clk = sim.addClockDomain("bus", 200.0);
    stbus::StbusNodeConfig cfg;
    cfg.type = type;
    stbus::StbusNode node(clk, "n", cfg);
    txn::TargetPort mp(clk, "mem", 4, 8);
    node.addTarget(mp, 0, 1ull << 30);
    mem::SimpleMemory memory(clk, "mem", mp, {1});
    txn::InitiatorPort ip(clk, "m", 2, 8);
    node.addInitiator(ip);
    iptg::IptgConfig icfg;
    icfg.bytes_per_beat = 8;
    iptg::AgentProfile p;
    p.name = "a";
    p.burst_beats = {{8, 1.0}};
    p.outstanding = 4;
    p.total_transactions = 50;
    icfg.agents.push_back(p);
    iptg::Iptg gen(clk, "g", ip, icfg);
    sim.runUntilIdle(1'000'000'000'000ull);
    EXPECT_TRUE(gen.done());
    return node.reqChannel(0).transfers();
  };
  const auto t3_cells = run(stbus::StbusType::T3);
  const auto t2_cells = run(stbus::StbusType::T2);
  EXPECT_EQ(t3_cells, 50u);       // one header per burst
  EXPECT_EQ(t2_cells, 50u * 8u);  // one cell per datum
}

// Out-of-order delivery (Type 3) vs in-order delivery (Type 2) across a
// slow and a fast target.  The master issues: a fast read that keeps the
// response channel busy, then a slow read, then another fast read whose data
// is ready long before the slow one.  Type 3 delivers the second fast read
// as soon as its data is ready; Type 2 holds it behind the slow read.  The
// mean latency separates the two policies.
TEST(StbusTypes, Type3DeliversOutOfOrderType2HoldsBack) {
  auto run = [](stbus::StbusType type) {
    sim::Simulator sim;
    auto& clk = sim.addClockDomain("bus", 200.0);
    stbus::StbusNodeConfig cfg;
    cfg.type = type;
    stbus::StbusNode node(clk, "n", cfg);

    txn::TargetPort slow_p(clk, "slow", 2, 4);
    txn::TargetPort fast_p(clk, "fast", 2, 4);
    node.addTarget(slow_p, 0x0000'0000, 1 << 20);
    node.addTarget(fast_p, 0x1000'0000, 1 << 20);
    mem::SimpleMemory slow(clk, "slowm", slow_p, {12});
    mem::SimpleMemory fast(clk, "fastm", fast_p, {0});

    txn::InitiatorPort ip(clk, "m", 4, 8);
    node.addInitiator(ip);
    iptg::IptgConfig icfg;
    icfg.bytes_per_beat = 8;
    iptg::AgentProfile p;
    p.name = "seq";
    p.sequence = {{txn::Opcode::Read, 0x1000'0000, 8, 0},   // fast A
                  {txn::Opcode::Read, 0x0000'0000, 8, 0},   // slow
                  {txn::Opcode::Read, 0x1000'0100, 8, 0}};  // fast B
    p.outstanding = 3;
    icfg.agents.push_back(p);
    iptg::Iptg gen(clk, "g", ip, icfg);

    sim.runUntilIdle(1'000'000'000'000ull);
    EXPECT_TRUE(gen.done());
    EXPECT_EQ(gen.latency().latencyNs().count(), 3u);
    return gen.latency().latencyNs().mean();
  };
  const double t3_mean = run(stbus::StbusType::T3);
  const double t2_mean = run(stbus::StbusType::T2);
  // Fast-B overtakes the slow read under T3 only.
  EXPECT_LT(t3_mean, t2_mean - 50.0);
}

// ---- AXI channel separation ------------------------------------------------

// Reads and writes to the same slave proceed on separate request channels:
// with a write stream saturating the W channel, read throughput barely drops
// versus a read-only run (whereas a single-request-channel fabric serialises
// them).
TEST(AxiDetails, ReadAndWriteChannelsAreIndependent) {
  auto runAxi = [](double read_fraction, std::uint64_t txns) {
    sim::Simulator sim;
    auto& clk = sim.addClockDomain("bus", 200.0);
    axi::AxiBus bus(clk, "axi");
    txn::TargetPort mp(clk, "mem", 8, 16);
    bus.addTarget(mp, 0, 1ull << 30);
    mem::SimpleMemory memory(clk, "mem", mp, {0});
    txn::InitiatorPort ip(clk, "m", 8, 16);
    bus.addInitiator(ip);
    iptg::IptgConfig icfg;
    icfg.bytes_per_beat = 8;
    iptg::AgentProfile p;
    p.name = "a";
    p.read_fraction = read_fraction;
    p.burst_beats = {{8, 1.0}};
    p.outstanding = 8;
    p.total_transactions = txns;
    icfg.agents.push_back(p);
    iptg::Iptg gen(clk, "g", ip, icfg);
    const sim::Picos t = sim.runUntilIdle(1'000'000'000'000ull);
    EXPECT_TRUE(gen.done());
    return t;
  };
  // 200 reads alone vs 200 reads + 200 writes interleaved: the mixed run on
  // AXI costs well below 2x the read-only run (the memory, not the request
  // path, is shared).
  const double reads_only = static_cast<double>(runAxi(1.0, 200));
  const double mixed = static_cast<double>(runAxi(0.5, 400));
  EXPECT_LT(mixed, 1.9 * reads_only);
}

// ---- AsyncFifo stress -------------------------------------------------------

TEST(AsyncFifoStress, OddClockRatioPreservesOrderAndCount) {
  sim::Simulator s;
  auto& prod = s.addClockDomain("prod", 133.0);
  auto& cons = s.addClockDomain("cons", 250.0);
  sim::AsyncFifo<int> f(prod, cons, "x", 3, 2);

  struct Producer : sim::Component {
    sim::AsyncFifo<int>& f;
    int next = 0;
    Producer(sim::ClockDomain& c, sim::AsyncFifo<int>& fifo)
        : sim::Component(c, "p"), f(fifo) {}
    void evaluate() override {
      if (next < 500 && f.canPush()) f.push(next++);
    }
    bool idle() const override { return next >= 500; }
  };
  struct Consumer : sim::Component {
    sim::AsyncFifo<int>& f;
    std::vector<int> got;
    Consumer(sim::ClockDomain& c, sim::AsyncFifo<int>& fifo)
        : sim::Component(c, "c"), f(fifo) {}
    void evaluate() override {
      while (f.canPop()) got.push_back(f.pop());
    }
    bool idle() const override { return !f.canPop(); }
  };
  Producer p(prod, f);
  Consumer c(cons, f);
  s.runUntilIdle(1'000'000'000'000ull);
  ASSERT_EQ(c.got.size(), 500u);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(c.got[static_cast<std::size_t>(i)], i);
}

// ---- LMI under refresh pressure ---------------------------------------------

TEST(LmiDetails, AggressiveRefreshCostsThroughputButLosesNothing) {
  auto run = [](unsigned refi) {
    sim::Simulator sim;
    auto& clk = sim.addClockDomain("bus", 250.0);
    stbus::StbusNode node(clk, "n", {});
    txn::TargetPort mp(clk, "lmi", 8, 16);
    node.addTarget(mp, 0, 1ull << 31);
    mem::LmiConfig cfg;
    cfg.timing.t_refi = refi;
    mem::LmiController lmi(clk, "lmi", mp, cfg);
    txn::InitiatorPort ip(clk, "m", 2, 8);
    node.addInitiator(ip);
    iptg::IptgConfig icfg;
    icfg.bytes_per_beat = 8;
    iptg::AgentProfile p;
    p.name = "a";
    p.burst_beats = {{8, 1.0}};
    p.outstanding = 4;
    p.total_transactions = 300;
    icfg.agents.push_back(p);
    iptg::Iptg gen(clk, "g", ip, icfg);
    const sim::Picos t = sim.runUntilIdle(1'000'000'000'000ull);
    EXPECT_TRUE(gen.done());
    EXPECT_EQ(lmi.requestsServed(), 300u);
    return std::make_pair(t, lmi.device().refreshes());
  };
  const auto [t_normal, ref_normal] = run(1560);
  const auto [t_aggressive, ref_aggressive] = run(80);
  EXPECT_GT(ref_aggressive, 4 * ref_normal);
  EXPECT_GT(t_aggressive, t_normal);  // refresh steals bandwidth
}

}  // namespace
