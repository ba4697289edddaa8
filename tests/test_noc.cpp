// NoC substrate tests: XY routing, end-to-end transactions over the mesh,
// placement effects, saturation behaviour, conservation, and the routers'
// and adapters' part in the kernel's sleep/wake activity protocol.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>

#include "iptg/iptg.hpp"
#include "mem/simple_memory.hpp"
#include "noc/mesh.hpp"
#include "sim/check.hpp"
#include "sim/simulator.hpp"
#include "txn/ports.hpp"

namespace {

using namespace mpsoc;

TEST(NocRouter, XyRoutingPicksDimensionOrder) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("noc", 500.0);
  noc::Router r(clk, "r11", 1, 1, 3, 3, {});
  // From (1,1): east first when x differs, regardless of y.
  EXPECT_EQ(r.routeTo(/*node (2,2)=*/8), noc::Dir::East);
  EXPECT_EQ(r.routeTo(/*node (0,2)=*/6), noc::Dir::West);
  EXPECT_EQ(r.routeTo(/*node (1,0)=*/1), noc::Dir::North);
  EXPECT_EQ(r.routeTo(/*node (1,2)=*/7), noc::Dir::South);
  EXPECT_EQ(r.routeTo(/*node (1,1)=*/4), noc::Dir::Local);
}

TEST(NocRouter, OutOfMeshDestinationRaises) {
  // A packet addressed past the last node must trip the route lookup's
  // bounds check on the evaluate path, naming the router and the mesh size.
  sim::Simulator s;
  auto& clk = s.addClockDomain("noc", 500.0);
  noc::Router r(clk, "r11", 1, 1, 3, 3, {});
  struct Injector : sim::Component {
    noc::Router::PacketFifo& in;
    Injector(sim::ClockDomain& c, noc::Router::PacketFifo& f)
        : sim::Component(c, "inj"), in(f) {}
    void evaluate() override {
      if (now() != 1) return;
      auto pkt = std::make_shared<noc::NocPacket>();
      pkt->dst = 9;  // one past node (2,2)
      in.push(pkt);
    }
  };
  Injector inj(clk, r.input(noc::Dir::West));
  try {
    s.run(100'000);
    FAIL() << "out-of-mesh destination was routed";
  } catch (const sim::InvariantViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("r11"), std::string::npos) << what;
    EXPECT_NE(what.find("destination node 9 outside the 3x3 mesh"),
              std::string::npos)
        << what;
  }
  EXPECT_THROW(r.routeTo(9), sim::InvariantViolation);
}

struct NocRig {
  sim::Simulator sim;
  sim::ClockDomain& clk;
  noc::NocMesh mesh;
  std::unique_ptr<txn::TargetPort> mport;
  std::unique_ptr<mem::SimpleMemory> memory;
  std::vector<std::unique_ptr<txn::InitiatorPort>> iports;
  std::vector<std::unique_ptr<iptg::Iptg>> gens;

  NocRig(unsigned w, unsigned h, noc::NodeId mem_at,
         const std::vector<noc::NodeId>& masters_at, std::uint64_t txns,
         unsigned wait_states = 1, unsigned outstanding = 4)
      : clk(sim.addClockDomain("noc", 400.0)),
        mesh(clk, "noc", {w, h, {}, 4}) {
    mport = std::make_unique<txn::TargetPort>(clk, "mem", 8, 16);
    memory = std::make_unique<mem::SimpleMemory>(
        clk, "mem", *mport, mem::SimpleMemoryConfig{wait_states});
    mesh.attachSlave(*mport, mem_at, 0x0, 1ull << 30);

    for (std::size_t i = 0; i < masters_at.size(); ++i) {
      iports.push_back(std::make_unique<txn::InitiatorPort>(
          clk, "m" + std::to_string(i), 2, 8));
      mesh.attachMaster(*iports.back(), masters_at[i]);
      iptg::IptgConfig cfg;
      cfg.seed = 3 + i;
      cfg.bytes_per_beat = 8;
      iptg::AgentProfile p;
      p.name = "a";
      p.read_fraction = 0.8;
      p.burst_beats = {{8, 1.0}};
      p.base_addr = (1ull << 22) * i;
      p.region_size = 1 << 20;
      p.outstanding = outstanding;
      p.total_transactions = txns;
      cfg.agents.push_back(p);
      gens.push_back(std::make_unique<iptg::Iptg>(
          clk, "g" + std::to_string(i), *iports.back(), cfg));
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

TEST(NocMesh, SingleMasterRoundTrip) {
  // Master at (0,0), memory at (2,2) on a 3x3 mesh: 4 hops each way.
  NocRig rig(3, 3, /*mem at (2,2)=*/8, {/*master at (0,0)=*/0}, 30);
  rig.run();
  EXPECT_TRUE(rig.allDone());
  EXPECT_EQ(rig.memory->accessesServed(), 30u);
  EXPECT_EQ(rig.mesh.hopDistance(0, 8), 4u);
  // Each transaction crosses >= hop-count routers twice (there and back).
  EXPECT_GE(rig.mesh.totalHops(), 30u * 2u * 4u);
}

TEST(NocMesh, ManyToOneCompletesWithoutLoss) {
  NocRig rig(3, 3, 4 /*(1,1) centre*/, {0, 2, 6, 8}, 100);
  rig.run();
  EXPECT_TRUE(rig.allDone());
  EXPECT_EQ(rig.memory->accessesServed(), 400u);
  for (const auto& g : rig.gens) EXPECT_EQ(g->retired(), 100u);
}

TEST(NocMesh, CentralPlacementBeatsCornerPlacement) {
  // Same traffic, memory at the centre vs at a corner: mean distance (and
  // with latency-bound masters, execution time) favours the centre.
  NocRig centre(3, 3, 4, {0, 2, 6, 8}, 120, 1, /*outstanding=*/1);
  NocRig corner(3, 3, 8, {0, 2, 6, 4}, 120, 1, /*outstanding=*/1);
  const sim::Picos tc = centre.run();
  const sim::Picos tk = corner.run();
  EXPECT_TRUE(centre.allDone());
  EXPECT_TRUE(corner.allDone());
  EXPECT_LT(tc, tk);
}

TEST(NocMesh, WritesArePostedAndArrive) {
  // Start from a master-less rig: an attached MasterAdapter keeps a reference
  // to its port, so ports must outlive the mesh once attached.
  NocRig rig(2, 2, 3, {}, 0);
  rig.iports.push_back(
      std::make_unique<txn::InitiatorPort>(rig.clk, "w0", 2, 8));
  rig.mesh.attachMaster(*rig.iports.back(), 0);
  iptg::IptgConfig cfg;
  cfg.bytes_per_beat = 8;
  iptg::AgentProfile p;
  p.name = "w";
  p.read_fraction = 0.0;
  p.posted_writes = true;
  p.burst_beats = {{8, 1.0}};
  p.total_transactions = 50;
  cfg.agents.push_back(p);
  rig.gens.push_back(
      std::make_unique<iptg::Iptg>(rig.clk, "gw", *rig.iports.back(), cfg));
  rig.run();
  EXPECT_TRUE(rig.allDone());
  EXPECT_EQ(rig.memory->accessesServed(), 50u);
}

TEST(NocMesh, MessageLockingPreservesTrains) {
  // Two masters inject 4-packet message trains toward one sink; with
  // message-locking routers the trains arrive unfragmented.
  for (bool locking : {false, true}) {
    sim::Simulator sim;
    auto& clk = sim.addClockDomain("noc", 400.0);
    noc::MeshConfig mc{3, 1, {}, 4};
    mc.router.message_locking = locking;
    noc::NocMesh mesh(clk, "noc", mc);
    txn::TargetPort mp(clk, "mem", 16, 16);
    mesh.attachSlave(mp, 1, 0, 1ull << 30);  // centre of a 1x3 row

    // Drain the memory port manually to observe arrival order.
    struct Sink : sim::Component {
      txn::TargetPort& p;
      std::vector<std::uint64_t> msgs;
      Sink(sim::ClockDomain& c, txn::TargetPort& port)
          : sim::Component(c, "sink"), p(port) {}
      void evaluate() override {
        while (!p.req.empty()) {
          auto r = p.req.pop();
          msgs.push_back(r->msg_id);
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
    Sink sink(clk, mp);

    std::vector<std::unique_ptr<txn::InitiatorPort>> ports;
    std::vector<std::unique_ptr<iptg::Iptg>> gens;
    for (int i = 0; i < 2; ++i) {
      ports.push_back(std::make_unique<txn::InitiatorPort>(
          clk, "m" + std::to_string(i), 4, 8));
      mesh.attachMaster(*ports.back(), i == 0 ? 0 : 2);
      iptg::IptgConfig cfg;
      cfg.seed = 5 + i;
      cfg.bytes_per_beat = 8;
      iptg::AgentProfile p;
      p.name = "a";
      p.read_fraction = 0.0;
      p.posted_writes = true;  // payload-carrying packets contend hardest
      p.burst_beats = {{8, 1.0}};
      p.outstanding = 8;
      p.message_len = 4;
      p.base_addr = (1ull << 22) * i;
      p.region_size = 1 << 20;
      p.total_transactions = 32;
      cfg.agents.push_back(p);
      gens.push_back(std::make_unique<iptg::Iptg>(
          clk, "g" + std::to_string(i), *ports.back(), cfg));
    }
    sim.runUntilIdle(1'000'000'000'000ull);
    ASSERT_EQ(sink.msgs.size(), 64u);

    // Count fragmented messages: a message is fragmented if its packets do
    // not arrive contiguously.
    int fragmented = 0;
    for (std::size_t i = 0; i < sink.msgs.size();) {
      const std::uint64_t m = sink.msgs[i];
      std::size_t run = 0;
      while (i < sink.msgs.size() && sink.msgs[i] == m) {
        ++run;
        ++i;
      }
      if (run < 4) ++fragmented;
    }
    if (locking) {
      EXPECT_EQ(fragmented, 0) << "message-locking must keep trains together";
    } else {
      EXPECT_GT(fragmented, 0) << "round-robin should interleave at least once";
    }
  }
}

// ---------------------------------------------------------------------------
// Activity protocol: routers and adapters sleep once quiet, sleep parked on
// back-pressure and sleep through link serialisation.
// ---------------------------------------------------------------------------

/// Issues one read on demand and records its round-trip latency in cycles.
struct Prober : sim::Component {
  txn::InitiatorPort& port;
  std::uint64_t addr = 0;
  bool pending = false;
  sim::Cycle issued_at = 0;
  std::vector<sim::Cycle> latencies;

  Prober(sim::ClockDomain& c, txn::InitiatorPort& p)
      : sim::Component(c, "prober"), port(p) {}

  void issue(std::uint64_t a) {
    addr = a;
    pending = true;
  }
  void evaluate() override {
    if (pending && port.req.canPush()) {
      auto r = std::make_shared<txn::Request>();
      r->id = clk_.simulator().nextTransactionId();
      r->addr = addr;
      r->beats = 8;
      r->bytes_per_beat = 8;
      r->source = name_;
      port.req.push(r);
      pending = false;
      issued_at = now();
    }
    while (!port.rsp.empty()) {
      port.rsp.pop();
      latencies.push_back(now() - issued_at);
    }
  }
  bool idle() const override { return !pending && port.rsp.empty(); }
};

TEST(NocMesh, QuietFabricSleepsAndARequestWakesOnlyItsPath) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("noc", 400.0);
  noc::NocMesh mesh(clk, "noc", {3, 3, {}, 4});
  txn::TargetPort mp(clk, "mem", 8, 16);
  mem::SimpleMemory memory(clk, "mem", mp, {1});
  mesh.attachSlave(mp, /*(2,2)=*/8, 0x0, 1ull << 30);
  txn::InitiatorPort ip(clk, "m", 2, 8);
  mesh.attachMaster(ip, /*(0,0)=*/0);
  Prober prober(clk, ip);

  const sim::Component* adapter = nullptr;
  const sim::Component* slave = nullptr;
  for (const sim::Component* c : clk.components()) {
    if (c->name() == "noc.ma0") adapter = c;
    if (c->name() == "noc.sa8") slave = c;
  }
  ASSERT_NE(adapter, nullptr);
  ASSERT_NE(slave, nullptr);

  // Step until the round trip has drained and the link tails have crossed;
  // record every router that is awake after some edge of the transaction.
  auto roundTrip = [&](std::uint64_t addr) {
    std::set<noc::NodeId> woken;
    const std::size_t done = prober.latencies.size() + 1;
    prober.issue(addr);
    for (int edge = 0; edge < 10'000; ++edge) {
      s.step();
      bool any_awake = false;
      for (noc::NodeId n = 0; n < mesh.routerCount(); ++n) {
        if (mesh.router(n).asleep()) continue;
        woken.insert(n);
        any_awake = true;
      }
      if (prober.latencies.size() == done && !any_awake && adapter->asleep() &&
          slave->asleep()) {
        break;
      }
    }
    return woken;
  };

  roundTrip(0x1000);
  ASSERT_EQ(prober.latencies.size(), 1u);
  for (noc::NodeId n = 0; n < mesh.routerCount(); ++n) {
    EXPECT_TRUE(mesh.router(n).asleep()) << "router " << n;
  }
  EXPECT_TRUE(adapter->asleep());
  EXPECT_TRUE(slave->asleep());

  // (0,0) -> (2,2) runs east then south; the response runs west then north.
  // Only the centre router (1,1) lies on neither leg.
  const std::set<noc::NodeId> woken = roundTrip(0x2000);
  ASSERT_EQ(prober.latencies.size(), 2u);
  EXPECT_EQ(woken, (std::set<noc::NodeId>{0, 1, 2, 3, 5, 6, 7, 8}));
  EXPECT_EQ(prober.latencies[1], prober.latencies[0]);
  for (noc::NodeId n = 0; n < mesh.routerCount(); ++n) {
    EXPECT_TRUE(mesh.router(n).asleep()) << "router " << n;
  }
  EXPECT_TRUE(adapter->asleep());
  EXPECT_TRUE(slave->asleep());
}

struct MeshRun {
  sim::Picos exec_ps = 0;
  std::uint64_t state_digest = 0;
  std::uint64_t hops = 0;
  std::uint64_t retired = 0;
};

/// Traffic for runMesh: masters at `masters` send 4-packet message trains
/// to the memory at the centre of a 3x3 mesh.
struct MeshLoad {
  unsigned wait_states = 1;
  std::vector<noc::NodeId> masters{0, 2, 6, 8};
  unsigned outstanding = 4;
  std::uint64_t txns = 40;
};

using MidRunCheck =
    std::function<void(noc::NocMesh&, const sim::ClockDomain&)>;

/// Runs `load` under the given router discipline to completion.  With
/// `frozen` set it first steps 100 cycles into the memory's 10th access and
/// calls it there.
MeshRun runMesh(const noc::RouterConfig& rc, bool gated, bool deep_check,
                const MeshLoad& load = {},
                const MidRunCheck& frozen = nullptr) {
  sim::Simulator s;
  s.setActivityGating(gated);
  s.setDeepCheck(deep_check);
  auto& clk = s.addClockDomain("noc", 400.0);
  noc::NocMesh mesh(clk, "noc", {3, 3, rc, 4});
  txn::TargetPort mp(clk, "mem", 8, 16);
  mem::SimpleMemory memory(clk, "mem", mp, {load.wait_states});
  mesh.attachSlave(mp, 4, 0x0, 1ull << 30);
  std::vector<std::unique_ptr<txn::InitiatorPort>> ports;
  std::vector<std::unique_ptr<iptg::Iptg>> gens;
  for (noc::NodeId at : load.masters) {
    ports.push_back(std::make_unique<txn::InitiatorPort>(
        clk, "m" + std::to_string(at), 2, 8));
    mesh.attachMaster(*ports.back(), at);
    iptg::IptgConfig cfg;
    cfg.seed = 11 + at;
    cfg.bytes_per_beat = 8;
    iptg::AgentProfile p;
    p.name = "a";
    p.read_fraction = 0.7;
    p.posted_writes = true;
    p.burst_beats = {{4, 0.5}, {8, 0.5}};
    p.message_len = 4;
    p.outstanding = load.outstanding;
    p.base_addr = (1ull << 22) * at;
    p.region_size = 1 << 20;
    p.total_transactions = load.txns;
    cfg.agents.push_back(p);
    gens.push_back(std::make_unique<iptg::Iptg>(
        clk, "g" + std::to_string(at), *ports.back(), cfg));
  }
  if (frozen) {
    while (memory.accessesServed() < 10) s.step();
    const sim::Cycle start = clk.now();
    while (clk.now() < start + 100) s.step();
    EXPECT_EQ(memory.accessesServed(), 10u) << "memory not slow enough";
    frozen(mesh, clk);
  }
  MeshRun r;
  r.exec_ps = s.runUntilIdle(1'000'000'000'000ull);
  r.state_digest = s.stateDigest();
  r.hops = mesh.totalHops();
  for (const auto& g : gens) r.retired += g->retired();
  return r;
}

TEST(NocMesh, GatingIsBehaviourNeutralForEveryRouterDiscipline) {
  // Sleeping routers and adapters must not change behaviour: the complete
  // kernel state digest (every router's engines, every FIFO, every
  // generator) matches an ungated run at the end.  The
  // deep-check replay pass evaluates sleeping components too, so a router or
  // adapter asleep while it has work to stage (a missing wake) diverges from
  // the gated forward pass and raises.
  noc::RouterConfig locking;
  locking.message_locking = true;
  for (const noc::RouterConfig& rc : {noc::RouterConfig{}, locking}) {
    SCOPED_TRACE(testing::Message()
                 << "message_locking=" << rc.message_locking);
    const MeshRun gated = runMesh(rc, true, false);
    const MeshRun ungated = runMesh(rc, false, false);
    EXPECT_EQ(gated.retired, 160u);
    EXPECT_EQ(gated.exec_ps, ungated.exec_ps);
    EXPECT_EQ(gated.hops, ungated.hops);
    EXPECT_EQ(gated.retired, ungated.retired);
    EXPECT_EQ(gated.state_digest, ungated.state_digest);

    MeshRun checked;
    ASSERT_NO_THROW(checked = runMesh(rc, true, true));
    EXPECT_EQ(checked.exec_ps, gated.exec_ps);
  }
}

TEST(NocMesh, BlockedRoutersParkUntilTheirSinkPops) {
  // Eight masters with deep request windows in front of a slow memory: its
  // request port, the centre egress and the routers' inputs back up toward
  // the masters.  One access takes 121 (4 beats) to 248 (8 beats) cycles, so
  // 100 cycles into one the cascade of grants behind the request it took and
  // the previous response have settled, and the next take is still ahead.
  MeshLoad load;
  load.wait_states = 30;
  load.masters = {0, 1, 2, 3, 5, 6, 7, 8};
  load.outstanding = 8;
  load.txns = 6;
  noc::RouterConfig locking;
  locking.message_locking = true;
  for (const noc::RouterConfig& rc : {noc::RouterConfig{}, locking}) {
    SCOPED_TRACE(testing::Message()
                 << "message_locking=" << rc.message_locking);
    // Deep-check first: a missing wake raises, naming the sleeper, on the
    // first edge it would have acted (a gated run would stall instead).
    MeshRun checked;
    ASSERT_NO_THROW(checked = runMesh(rc, true, true, load));
    // Mid-run nothing in the fabric is awake: a router or adapter holding
    // blocked work is parked (woken by a pop of the FIFO it waits on), one
    // with nothing to do is asleep.  No link is streaming, so every blocked
    // router waits on no cycle; the backlog reaches past the centre router.
    const MeshRun gated = runMesh(
        rc, true, false, load,
        [](noc::NocMesh& mesh, const sim::ClockDomain& clk) {
          std::size_t blocked_routers = 0;
          for (const sim::Component* c : clk.components()) {
            if (c->name().rfind("noc.", 0) != 0) continue;
            EXPECT_TRUE(c->asleep()) << c->name();
            if (c->idle()) continue;
            if (c->name().rfind("noc.r", 0) != 0) continue;
            EXPECT_EQ(c->wakeAt(), 0u) << c->name();
            ++blocked_routers;
          }
          EXPECT_FALSE(mesh.router(4).idle());
          EXPECT_GE(blocked_routers, 3u) << "the fabric did not back up";
        });
    const MeshRun ungated = runMesh(rc, false, false, load);
    EXPECT_EQ(gated.retired, 48u);
    EXPECT_EQ(gated.retired, ungated.retired);
    EXPECT_EQ(gated.exec_ps, ungated.exec_ps);
    EXPECT_EQ(gated.hops, ungated.hops);
    EXPECT_EQ(gated.state_digest, ungated.state_digest);

    EXPECT_EQ(checked.exec_ps, gated.exec_ps);
    EXPECT_EQ(checked.state_digest, gated.state_digest);
  }
}

TEST(NocMesh, DeterministicRuns) {
  NocRig a(3, 3, 4, {0, 2, 6, 8}, 60);
  NocRig b(3, 3, 4, {0, 2, 6, 8}, 60);
  EXPECT_EQ(a.run(), b.run());
}

}  // namespace
