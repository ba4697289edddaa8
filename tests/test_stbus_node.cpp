// STBus node tests: many-to-one service, split-transaction behaviour across
// types, message arbitration, response-channel efficiency against a
// wait-state-bound memory (Section 4.1.2 of the paper).

#include <gtest/gtest.h>

#include <memory>

#include "iptg/iptg.hpp"
#include "mem/simple_memory.hpp"
#include "sim/simulator.hpp"
#include "stbus/node.hpp"
#include "txn/ports.hpp"

namespace {

using namespace mpsoc;

struct ManyToOneRig {
  sim::Simulator sim;
  sim::ClockDomain& clk;
  stbus::StbusNode node;
  std::vector<std::unique_ptr<txn::InitiatorPort>> iports;
  std::unique_ptr<txn::TargetPort> mport;
  std::vector<std::unique_ptr<iptg::Iptg>> gens;
  std::unique_ptr<mem::SimpleMemory> memory;

  ManyToOneRig(std::size_t n_masters, stbus::StbusNodeConfig cfg,
               unsigned wait_states, std::uint64_t txns_per_master,
               std::size_t target_fifo_depth = 4, double read_fraction = 1.0,
               unsigned outstanding = 4)
      : clk(sim.addClockDomain("bus", 200.0)), node(clk, "n0", cfg) {
    mport = std::make_unique<txn::TargetPort>(clk, "mem", target_fifo_depth, 8);
    node.addTarget(*mport, 0x0, 1ull << 30);
    memory = std::make_unique<mem::SimpleMemory>(
        clk, "mem", *mport, mem::SimpleMemoryConfig{wait_states});
    for (std::size_t i = 0; i < n_masters; ++i) {
      iports.push_back(std::make_unique<txn::InitiatorPort>(
          clk, "m" + std::to_string(i), 2, 8));
      node.addInitiator(*iports.back());
      iptg::IptgConfig icfg;
      icfg.seed = 42 + i;
      iptg::AgentProfile prof;
      prof.name = "a";
      prof.read_fraction = read_fraction;
      prof.burst_beats = {{8, 1.0}};
      prof.base_addr = (1ull << 24) * i;
      prof.region_size = 1 << 20;
      prof.outstanding = outstanding;
      prof.total_transactions = txns_per_master;
      icfg.agents.push_back(prof);
      gens.push_back(std::make_unique<iptg::Iptg>(
          clk, "iptg" + std::to_string(i), *iports.back(), icfg));
    }
  }

  sim::Picos run() { return sim.runUntilIdle(1'000'000'000'000ull); }

  double aggregateRspEfficiency() const {
    std::uint64_t transfers = 0;
    for (std::size_t i = 0; i < iports.size(); ++i) {
      transfers += node.rspChannel(i).transfers();
    }
    return static_cast<double>(transfers) / static_cast<double>(clk.now());
  }
};

TEST(StbusNode, AllTransactionsComplete) {
  stbus::StbusNodeConfig cfg;
  ManyToOneRig rig(4, cfg, 1, 50);
  rig.run();
  for (const auto& g : rig.gens) {
    EXPECT_TRUE(g->done());
    EXPECT_EQ(g->retired(), 50u);
  }
  EXPECT_EQ(rig.memory->accessesServed(), 200u);
}

TEST(StbusNode, ResponseChannelBoundedByOneWaitStateMemory) {
  // Section 4.1.2: with a single 1-wait-state slave, the response data path
  // is forced to 50% efficiency (1 transfer, 1 idle cycle), and the
  // interconnect must not degrade it further.
  stbus::StbusNodeConfig cfg;
  ManyToOneRig rig(4, cfg, 1, 200);
  rig.run();
  double eff = rig.aggregateRspEfficiency();
  EXPECT_GT(eff, 0.45);
  EXPECT_LE(eff, 0.51);
}

TEST(StbusNode, ZeroWaitStateMemoryReachesFullRate) {
  stbus::StbusNodeConfig cfg;
  ManyToOneRig rig(4, cfg, 0, 200);
  rig.run();
  double eff = rig.aggregateRspEfficiency();
  EXPECT_GT(eff, 0.9);
}

TEST(StbusNode, Type1SingleOutstandingIsSlower) {
  stbus::StbusNodeConfig t1;
  t1.type = stbus::StbusType::T1;
  stbus::StbusNodeConfig t3;
  t3.type = stbus::StbusType::T3;

  ManyToOneRig rig1(4, t1, 1, 100);
  ManyToOneRig rig3(4, t3, 1, 100);
  sim::Picos time1 = rig1.run();
  sim::Picos time3 = rig3.run();
  // Type 1 locks the target path for the whole transaction: with a depth-4
  // prefetch FIFO and pipelined initiators, Type 3 must be measurably faster.
  EXPECT_LT(time3, time1);
  for (const auto& g : rig1.gens) EXPECT_TRUE(g->done());
}

TEST(StbusNode, WritesAndReadsBothComplete) {
  stbus::StbusNodeConfig cfg;
  ManyToOneRig rig(3, cfg, 1, 80, 4, 0.5);
  rig.run();
  for (const auto& g : rig.gens) {
    EXPECT_TRUE(g->done());
    EXPECT_EQ(g->retired(), 80u);
    EXPECT_GT(g->bytesRead(), 0u);
    EXPECT_GT(g->bytesWritten(), 0u);
  }
}

TEST(StbusNode, MessageArbitrationKeepsMessagesTogether) {
  // Two initiators, message length 4 on initiator 0.  Requests of one message
  // must arrive at the memory back-to-back (no interleaving with the other
  // initiator's requests).
  sim::Simulator sim;
  auto& clk = sim.addClockDomain("bus", 200.0);
  stbus::StbusNodeConfig cfg;
  cfg.message_arbitration = true;
  stbus::StbusNode node(clk, "n0", cfg);

  txn::TargetPort mport(clk, "mem", 16, 16);
  node.addTarget(mport, 0x0, 1ull << 30);

  // Capture arrival order at the memory by draining its request FIFO.
  struct Sink : sim::Component {
    txn::TargetPort& p;
    std::vector<txn::RequestPtr> seen;
    Sink(sim::ClockDomain& c, txn::TargetPort& port)
        : sim::Component(c, "sink"), p(port) {}
    void evaluate() override {
      while (!p.req.empty()) {
        auto r = p.req.pop();
        seen.push_back(r);
        if (!(r->posted && r->op == txn::Opcode::Write)) {
          auto rsp = std::make_shared<txn::Response>();
          rsp->req = r;
          rsp->beats = 1;
          rsp->sched.first_beat = clk_.simulator().now() + clk_.period();
          rsp->sched.beat_period = clk_.period();
          p.rsp.push(rsp);
        }
      }
    }
    bool idle() const override { return p.req.empty(); }
  };
  Sink sink(clk, mport);

  std::vector<std::unique_ptr<txn::InitiatorPort>> ports;
  std::vector<std::unique_ptr<iptg::Iptg>> gens;
  for (int i = 0; i < 2; ++i) {
    ports.push_back(std::make_unique<txn::InitiatorPort>(
        clk, "m" + std::to_string(i), 4, 8));
    node.addInitiator(*ports.back());
    iptg::IptgConfig icfg;
    icfg.seed = 5 + i;
    iptg::AgentProfile prof;
    prof.name = "a";
    prof.burst_beats = {{4, 1.0}};
    prof.base_addr = 0x1000 * (i + 1);
    prof.region_size = 1 << 16;
    prof.outstanding = 4;
    prof.total_transactions = 24;
    prof.message_len = (i == 0) ? 4 : 1;
    icfg.agents.push_back(prof);
    gens.push_back(std::make_unique<iptg::Iptg>(clk, "g" + std::to_string(i),
                                                *ports.back(), icfg));
  }
  sim.runUntilIdle(1'000'000'000ull);
  ASSERT_EQ(sink.seen.size(), 48u);

  // Verify: whenever a request with msg_id M from generator 0 arrives, the
  // remaining requests of message M arrive contiguously.
  for (std::size_t i = 0; i < sink.seen.size();) {
    std::uint64_t m = sink.seen[i]->msg_id;
    if (m == 0) {
      ++i;
      continue;
    }
    std::size_t run = 0;
    while (i < sink.seen.size() && sink.seen[i]->msg_id == m) {
      ++run;
      ++i;
    }
    EXPECT_EQ(run, 4u) << "message " << m << " was fragmented";
  }
}

TEST(StbusNode, PostedWritesRetireAtIssue) {
  stbus::StbusNodeConfig cfg;
  sim::Simulator sim;
  auto& clk = sim.addClockDomain("bus", 200.0);
  stbus::StbusNode node(clk, "n0", cfg);
  txn::TargetPort mport(clk, "mem", 4, 8);
  node.addTarget(mport, 0x0, 1ull << 30);
  mem::SimpleMemory memory(clk, "mem", mport, {1});

  txn::InitiatorPort ip(clk, "m0", 2, 8);
  node.addInitiator(ip);
  iptg::IptgConfig icfg;
  iptg::AgentProfile prof;
  prof.name = "w";
  prof.read_fraction = 0.0;
  prof.posted_writes = true;
  prof.burst_beats = {{8, 1.0}};
  prof.total_transactions = 40;
  prof.outstanding = 1;  // posted writes should not consume outstanding slots
  icfg.agents.push_back(prof);
  iptg::Iptg gen(clk, "g0", ip, icfg);

  sim.runUntilIdle(1'000'000'000ull);
  EXPECT_TRUE(gen.done());
  EXPECT_EQ(gen.retired(), 40u);
  EXPECT_EQ(memory.accessesServed(), 40u);
}

TEST(StbusNode, Type1PostedWriteDoesNotLockThePath) {
  // Type 1 locks a target path until its response retires.  A posted write
  // gets no response, so it must not lock: the node has to grant the next
  // request behind it (here, a second initiator's reads to the same target).
  stbus::StbusNodeConfig cfg;
  cfg.type = stbus::StbusType::T1;
  sim::Simulator sim;
  auto& clk = sim.addClockDomain("bus", 200.0);
  stbus::StbusNode node(clk, "n0", cfg);
  txn::TargetPort mport(clk, "mem", 4, 8);
  node.addTarget(mport, 0x0, 1ull << 30);
  mem::SimpleMemory memory(clk, "mem", mport, {1});

  std::vector<std::unique_ptr<txn::InitiatorPort>> ports;
  std::vector<std::unique_ptr<iptg::Iptg>> gens;
  for (int i = 0; i < 2; ++i) {
    ports.push_back(std::make_unique<txn::InitiatorPort>(
        clk, "m" + std::to_string(i), 2, 8));
    node.addInitiator(*ports.back());
    iptg::IptgConfig icfg;
    icfg.seed = 3 + i;
    iptg::AgentProfile prof;
    prof.name = i == 0 ? "w" : "r";
    prof.read_fraction = i == 0 ? 0.0 : 1.0;
    prof.posted_writes = i == 0;
    prof.burst_beats = {{4, 1.0}};
    prof.base_addr = 0x10000 * (i + 1);
    prof.region_size = 1 << 12;
    prof.total_transactions = 10;
    icfg.agents.push_back(prof);
    gens.push_back(std::make_unique<iptg::Iptg>(clk, "g" + std::to_string(i),
                                                *ports.back(), icfg));
  }

  sim.runUntilIdle(1'000'000'000ull);
  for (const auto& g : gens) {
    EXPECT_TRUE(g->done()) << g->name();
    EXPECT_EQ(g->retired(), 10u) << g->name();
  }
  EXPECT_EQ(memory.accessesServed(), 20u);
}

TEST(StbusNode, DeeperTargetFifoNeverSlower) {
  stbus::StbusNodeConfig cfg;
  ManyToOneRig shallow(4, cfg, 3, 100, 1);
  ManyToOneRig deep(4, cfg, 3, 100, 8);
  sim::Picos t_shallow = shallow.run();
  sim::Picos t_deep = deep.run();
  EXPECT_LE(t_deep, t_shallow);
}

}  // namespace
