// Regression and unit tests for the activity-driven edge loop: the run()
// time-bound fix, the runUntilIdle() stale-snapshot / last-active fixes, the
// coincident-edge scan over the clock domains, and the
// sleep()/sleepUntil()/wake() activity protocol (gating equivalence, wake
// hooks, timed wakes fired by the evaluate scan, runUntilIdle() polling
// sleepers that hold work, deep-check divergence on illegal sleeps).

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ahb/ahb_layer.hpp"
#include "axi/axi_bus.hpp"
#include "core/digest.hpp"
#include "core/experiment.hpp"
#include "core/rigs.hpp"
#include "iptg/iptg.hpp"
#include "mem/simple_memory.hpp"
#include "platform/config.hpp"
#include "platform/platform.hpp"
#include "sim/check.hpp"
#include "sim/component.hpp"
#include "sim/fifo.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "stbus/node.hpp"
#include "txn/master.hpp"
#include "txn/ports.hpp"

namespace {

using namespace mpsoc;

// Records the local cycle numbers at which it ran.
class Ticker : public sim::Component {
 public:
  using sim::Component::Component;
  void evaluate() override { seen.push_back(now()); }
  std::vector<sim::Cycle> seen;
};

// ---------------------------------------------------------------------------
// run() time bound
// ---------------------------------------------------------------------------

TEST(KernelRun, NoEdgePastBound) {
  // Non-integer-ratio domain pair: 300 MHz (3333 ps) against 100 MHz
  // (10000 ps).  run(45 ns) must stop at the last edge instant <= 45 ns —
  // 43'329 ps (= 13 * 3333) — not execute the 46'662 ps edge and overshoot,
  // which is exactly what the pre-fix loop (advance first, test after) did.
  sim::Simulator s;
  auto& fast = s.addClockDomain("fast", 300.0);
  auto& slow = s.addClockDomain("slow", 100.0);
  Ticker tf(fast, "tf");
  Ticker ts(slow, "ts");

  const sim::Picos bound = 45'000;
  const sim::Picos end = s.run(bound);

  const sim::Picos expect_end = (bound / fast.period()) * fast.period();
  EXPECT_EQ(end, expect_end);
  EXPECT_EQ(s.now(), end);
  EXPECT_LE(s.now(), bound);
  EXPECT_EQ(tf.seen.size(), bound / fast.period());  // 13 edges
  EXPECT_EQ(ts.seen.size(), bound / slow.period());  // 4 edges
}

TEST(KernelRun, EdgeExactlyOnBoundStillRuns) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);  // 10 ns
  Ticker t(clk, "t");
  EXPECT_EQ(s.run(50'000), 50'000u);
  EXPECT_EQ(t.seen.size(), 5u);
}

// ---------------------------------------------------------------------------
// runUntilIdle()
// ---------------------------------------------------------------------------

TEST(KernelRunUntilIdle, IdleAtEntryExecutesNoEdges) {
  // A platform that is quiescent before the first edge: runUntilIdle() must
  // report last_active = now() (here t=0) without burning its quiesce window.
  // The pre-fix loop executed kQuiesceEdges edges and reported the time of
  // the edge *before* the idle streak even when nothing ever ran.
  struct AlwaysIdle : sim::Component {
    using sim::Component::Component;
    void evaluate() override {}
  };
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  AlwaysIdle c(clk, "c");
  EXPECT_EQ(s.runUntilIdle(1'000'000), 0u);
  EXPECT_EQ(s.edgesExecuted(), 0u);
  EXPECT_EQ(s.now(), 0u);
}

TEST(KernelRunUntilIdle, MidRunRegisteredComponentIsPolled) {
  // A component constructed while the loop is already running (cycle 5) must
  // join the idle scan: the pre-fix implementation polled a snapshot taken on
  // entry, declared the platform idle while the child was still busy, and
  // stopped early.
  struct Child : sim::Component {
    using sim::Component::Component;
    unsigned remaining = 20;
    void evaluate() override {
      if (remaining > 0) --remaining;
    }
    bool idle() const override { return remaining == 0; }
  };
  struct Spawner : sim::Component {
    using sim::Component::Component;
    std::unique_ptr<Child> child;
    void evaluate() override {
      if (now() == 5 && !child) child = std::make_unique<Child>(clk_, "child");
    }
    bool idle() const override { return child != nullptr; }
  };

  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);  // 10 ns
  Spawner sp(clk, "spawner");
  const sim::Picos last_active = s.runUntilIdle(10'000'000);

  ASSERT_TRUE(sp.child);
  EXPECT_EQ(sp.child->remaining, 0u);
  // The child joins its spawn edge (cycle 5) and stays busy for 20
  // evaluations, so it still reports non-idle after the cycle-23 edge and
  // first polls idle after cycle 24 — last_active is 230 ns.
  EXPECT_EQ(last_active, 230'000u);
}

// ---------------------------------------------------------------------------
// Edge schedule
// ---------------------------------------------------------------------------

TEST(KernelSchedule, DomainAddedMidRunAlignsToGrid) {
  // A domain created at t=30 ns gets its first edge at the next multiple of
  // its period after now() — the grid it would occupy had it existed from
  // t=0 — and joins the edge scan from there.
  sim::Simulator s;
  auto& a = s.addClockDomain("a", 100.0);  // 10 ns
  Ticker ta(a, "ta");
  s.run(35'000);
  ASSERT_EQ(s.now(), 30'000u);

  auto& b = s.addClockDomain("b", 250.0);  // 4 ns
  EXPECT_EQ(b.nextEdge(), 32'000u);
  Ticker tb(b, "tb");
  s.run(48'000);

  // b: edges at 32, 36, 40, 44, 48 ns — its local cycle counter starts at 1.
  ASSERT_EQ(tb.seen.size(), 5u);
  EXPECT_EQ(tb.seen.front(), 1u);
  EXPECT_EQ(tb.seen.back(), 5u);
  // a keeps its own grid: one more edge at 40 ns (cycle 4).
  ASSERT_EQ(ta.seen.size(), 4u);
  EXPECT_EQ(ta.seen.back(), 4u);
  EXPECT_EQ(s.now(), 48'000u);
}

TEST(KernelSchedule, CoincidentNonIntegerRatioEdgesCountOnce) {
  // 400 MHz (2500 ps) against 250 MHz (4000 ps): periods in 5:8 ratio, first
  // coincidence at 20 ns.  The coincident instant is one edge that runs both
  // domains, so edgesExecuted() counts 8 + 5 - 1.
  sim::Simulator s;
  auto& fast = s.addClockDomain("fast", 400.0);
  auto& slow = s.addClockDomain("slow", 250.0);
  Ticker tf(fast, "tf");
  Ticker ts(slow, "ts");
  s.run(20'000);
  EXPECT_EQ(tf.seen.size(), 8u);
  EXPECT_EQ(ts.seen.size(), 5u);
  EXPECT_EQ(s.edgesExecuted(), 12u);
  EXPECT_EQ(s.now(), 20'000u);
}

// ---------------------------------------------------------------------------
// Activity protocol
// ---------------------------------------------------------------------------

TEST(KernelActivity, SleepWhileHoldingWorkIsPolled) {
  // A worker holds a job it can only finish once a reply arrives at cycle
  // 31, and sleeps with idle() false until the push wakes it.
  // runUntilIdle() polls the sleeping worker's idle() instead of counting it
  // idle and stopping with the job undone (the replier itself always reports
  // idle).
  struct Replier : sim::Component {
    sim::SyncFifo<int>& out;
    Replier(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
        : sim::Component(c, "replier"), out(fifo) {}
    void evaluate() override {
      if (now() == 30) out.push(1);
    }
  };
  struct Worker : sim::Component {
    sim::SyncFifo<int>& in;
    bool done = false;
    unsigned runs = 0;
    Worker(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
        : sim::Component(c, "worker"), in(fifo) {}
    void evaluate() override {
      ++runs;
      if (!in.empty()) {
        in.pop();
        done = true;
      }
      sleep();
    }
    bool idle() const override { return done; }
  };
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "reply", 4);
  Replier r(clk, f);
  Worker w(clk, f);
  f.wakeOnPush(&w);

  s.run(10 * clk.period());
  EXPECT_TRUE(w.asleep());
  EXPECT_FALSE(w.idle());
  const sim::Picos last_active = s.runUntilIdle(1'000'000'000);
  EXPECT_TRUE(w.done);
  EXPECT_EQ(w.runs, 2u);  // cycle 1, then woken by the push for cycle 31
  EXPECT_EQ(last_active, 30 * clk.period());
  EXPECT_TRUE(w.asleep());
  EXPECT_TRUE(w.idle());  // slept idle this time
}

TEST(KernelActivity, WakeOnPushResumesSleeper) {
  // A consumer that sleeps on an empty FIFO must be woken by the commit of
  // the edge that pushed, and evaluate again from the following edge.
  struct Producer : sim::Component {
    sim::SyncFifo<int>& f;
    Producer(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
        : sim::Component(c, "prod"), f(fifo) {}
    void evaluate() override {
      if (now() == 3) f.push(42);
    }
    bool idle() const override { return now() >= 3; }
  };
  struct Consumer : sim::Component {
    sim::SyncFifo<int>& f;
    std::vector<int> got;
    Consumer(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
        : sim::Component(c, "cons"), f(fifo) {}
    void evaluate() override {
      if (f.empty()) {
        sleep();
        return;
      }
      got.push_back(f.pop());
    }
    bool idle() const override { return f.empty(); }
  };

  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "f", 4);
  Producer p(clk, f);
  Consumer c(clk, f);
  f.wakeOnPush(&c);

  s.runUntilIdle(1'000'000);

  ASSERT_EQ(c.got.size(), 1u);
  EXPECT_EQ(c.got.front(), 42);
  EXPECT_TRUE(c.asleep());  // back asleep once drained
  EXPECT_EQ(s.asleepComponents(), 1u);
}

TEST(KernelActivity, GatingOnOffProducesIdenticalDigests) {
  // Gating is behaviour-neutral by contract: a platform run with the kernel
  // skipping asleep components (idle sleepers, parked components, timed
  // wakes) must produce the same canonical digest as one that evaluates
  // every component on every edge.  Cases: the four benchmarked platform
  // shapes at reduced scale — full STBus with the ST220 on on-chip memory,
  // collapsed AXI with LMI and DMA, full AHB with LMI, and the 4x3 NoC mesh
  // with LMI — plus the mesh with plain round-robin routers, full STBus
  // under each other node type and arbitration policy, full AXI and AHB, and
  // a many-to-many AXI layer.  Parked components re-derive the same wait when
  // an ungated run evaluates them, so the full state digest (activity flags
  // included) and the ST220's lazily settled stall counters agree too.
  platform::PlatformConfig stbus;
  stbus.protocol = platform::Protocol::Stbus;
  stbus.topology = platform::Topology::Full;
  stbus.memory = platform::MemoryKind::OnChip;
  stbus.onchip_wait_states = 1;
  stbus.include_cpu = true;
  stbus.workload_scale = 0.25;

  platform::PlatformConfig axi;
  axi.protocol = platform::Protocol::Axi;
  axi.topology = platform::Topology::Collapsed;
  axi.memory = platform::MemoryKind::Lmi;
  axi.use_case = platform::UseCase::Record;
  axi.include_dma = true;
  axi.include_cpu = true;
  axi.workload_scale = 0.1;

  platform::PlatformConfig ahb;
  ahb.protocol = platform::Protocol::Ahb;
  ahb.topology = platform::Topology::Full;
  ahb.memory = platform::MemoryKind::Lmi;
  ahb.workload_scale = 0.1;

  platform::PlatformConfig noc;
  noc.protocol = platform::Protocol::Stbus;
  noc.topology = platform::Topology::NocMesh;
  noc.memory = platform::MemoryKind::Lmi;
  noc.noc_width = 4;
  noc.noc_height = 3;
  noc.workload_scale = 0.1;
  platform::PlatformConfig noc_rr = noc;
  noc_rr.message_arbitration = false;

  // The STBus node sleeps through its beat streams; its other paths, at
  // small scale: Type 1 locked paths, packet-granular round-robin, and the
  // LRU, lottery and TDMA arbiters.  (Type 2 still hangs on bridged
  // topologies, so it has no case here.)
  platform::PlatformConfig st1 = stbus;
  st1.workload_scale = 0.05;
  st1.stbus_type = stbus::StbusType::T1;
  platform::PlatformConfig st_rr = st1;
  st_rr.stbus_type = stbus::StbusType::T3;
  st_rr.arbitration = txn::ArbPolicy::RoundRobin;
  st_rr.message_arbitration = false;
  platform::PlatformConfig st_lru = st_rr;
  st_lru.arbitration = txn::ArbPolicy::LeastRecentlyUsed;
  st_lru.message_arbitration = true;
  platform::PlatformConfig st_lottery = st_lru;
  st_lottery.arbitration = txn::ArbPolicy::Lottery;
  platform::PlatformConfig st_tdma = st_lru;
  st_tdma.arbitration = txn::ArbPolicy::Tdma;

  // The AXI and AHB engines sleep through their streams and waits: full AXI
  // and full AHB on the on-chip memory, and AHB on the LMI with the DMA
  // beside the CPU.
  platform::PlatformConfig axi_full = stbus;
  axi_full.protocol = platform::Protocol::Axi;
  axi_full.workload_scale = 0.1;
  platform::PlatformConfig ahb_onchip = axi_full;
  ahb_onchip.protocol = platform::Protocol::Ahb;
  platform::PlatformConfig ahb_dma = ahb;
  ahb_dma.include_dma = true;

  const std::pair<const char*, platform::PlatformConfig> cases[] = {
      {"stbus-cpu-onchip", stbus},   {"axi-collapsed-lmi-dma", axi},
      {"ahb-full-lmi", ahb},         {"noc-4x3-lmi", noc},
      {"noc-4x3-lmi-rr", noc_rr},    {"stbus-t1", st1},
      {"stbus-rr-packet", st_rr},    {"stbus-lru", st_lru},
      {"stbus-lottery", st_lottery}, {"stbus-tdma", st_tdma},
      {"axi-full-onchip", axi_full}, {"ahb-full-onchip", ahb_onchip},
      {"ahb-full-lmi-dma", ahb_dma}};
  for (auto [label, cfg] : cases) {
    SCOPED_TRACE(label);
    // Same label both times: the canonical digest covers it.
    cfg.activity_gating = true;
    const core::ScenarioResult gated = core::runScenario(cfg, label);
    cfg.activity_gating = false;
    const core::ScenarioResult ungated = core::runScenario(cfg, label);

    EXPECT_TRUE(gated.completed);
    EXPECT_EQ(core::digestValue(gated), core::digestValue(ungated));
    EXPECT_EQ(gated.exec_ps, ungated.exec_ps);
    EXPECT_EQ(gated.edges_executed, ungated.edges_executed);

    cfg.activity_gating = true;
    platform::Platform pg(cfg);
    pg.run();
    cfg.activity_gating = false;
    platform::Platform pu(cfg);
    pu.run();
    EXPECT_EQ(pg.simulator().stateDigest(), pu.simulator().stateDigest());
    ASSERT_EQ(pg.dsp() != nullptr, pu.dsp() != nullptr);
    if (pg.dsp() != nullptr) {
      EXPECT_EQ(pg.dsp()->stallCycles(), pu.dsp()->stallCycles());
      EXPECT_EQ(pg.dsp()->cpi(), pu.dsp()->cpi());
    }
  }

  // A single AXI layer, many-to-many: four masters spray bursts over three
  // memories, so each R link interleaves responses from several targets.
  core::SingleLayerConfig m2m;
  m2m.protocol = core::RigProtocol::Axi;
  m2m.masters = 4;
  m2m.memories = 3;
  m2m.wait_states = 2;
  m2m.read_fraction = 0.8;
  m2m.bursts = {{1, 1.0}, {4, 1.0}, {8, 1.0}};
  m2m.txns_per_master = 150;
  SCOPED_TRACE("axi-single-layer-m2m");
  core::SingleLayerRig rg(m2m);
  core::SingleLayerRig ru(m2m);
  ru.simulator().setActivityGating(false);
  EXPECT_EQ(rg.run(), ru.run());
  EXPECT_TRUE(rg.allDone());
  EXPECT_EQ(rg.simulator().stateDigest(), ru.simulator().stateDigest());
  EXPECT_EQ(rg.busUtilization(), ru.busUtilization());
  EXPECT_EQ(rg.responseEfficiency(), ru.responseEfficiency());
}

TEST(KernelActivity, St220StallCountersExactMidStall) {
  // The ST220 parks on a miss and settles its stall cycles when the fill
  // returns.  Read mid-stall — gated or not, and across a checkpoint and
  // restore taken mid-stall — the counters must read exactly what the core
  // has stalled so far.
  platform::PlatformConfig cfg;
  cfg.protocol = platform::Protocol::Stbus;
  cfg.topology = platform::Topology::Full;
  cfg.memory = platform::MemoryKind::OnChip;
  cfg.include_cpu = true;
  cfg.workload_scale = 0.1;
  cfg.activity_gating = true;
  platform::Platform pg(cfg);
  cfg.activity_gating = false;
  platform::Platform pu(cfg);
  sim::Simulator& sg = pg.simulator();
  sim::Simulator& su = pu.simulator();
  const cpu::St220& dsp = *pg.dsp();

  // Step both in lock-step to an edge a few cycles into a miss the core
  // sleeps through.
  unsigned stalled_edges = 0;
  while (stalled_edges < 5) {
    ASSERT_TRUE(sg.step());
    ASSERT_TRUE(su.step());
    ASSERT_FALSE(dsp.done());
    stalled_edges = dsp.asleep() && !dsp.idle() ? stalled_edges + 1 : 0;
  }
  ASSERT_GT(dsp.stallCycles(), 0u);
  EXPECT_EQ(dsp.stallCycles(), pu.dsp()->stallCycles());
  EXPECT_EQ(dsp.cpi(), pu.dsp()->cpi());
  EXPECT_EQ(sg.stateDigest(), su.stateDigest());

  const std::uint64_t stall_at_ckpt = dsp.stallCycles();
  const double cpi_at_ckpt = dsp.cpi();
  sg.checkpoint();
  for (int i = 0; i < 2000; ++i) ASSERT_TRUE(sg.step());
  const std::uint64_t stall_first = dsp.stallCycles();
  const double cpi_first = dsp.cpi();
  EXPECT_GT(stall_first, stall_at_ckpt);

  sg.restoreCheckpoint();
  EXPECT_EQ(dsp.stallCycles(), stall_at_ckpt);
  EXPECT_EQ(dsp.cpi(), cpi_at_ckpt);
  for (int i = 0; i < 2000; ++i) ASSERT_TRUE(sg.step());
  EXPECT_EQ(dsp.stallCycles(), stall_first);
  EXPECT_EQ(dsp.cpi(), cpi_first);
  for (int i = 0; i < 2000; ++i) ASSERT_TRUE(su.step());
  EXPECT_EQ(pu.dsp()->stallCycles(), stall_first);
  EXPECT_EQ(sg.stateDigest(), su.stateDigest());
}

// A master that takes its responses only on every sixteenth cycle, so the
// engine's last beats wait for room in its single-slot response FIFO.  It
// cycles through an 8-beat read of the fast memory, a 1-beat read and two
// posted 4-beat writes of the slow one (the second meets the first in the
// slow memory's single-slot request FIFO), and a 2-beat write of the fast
// one.
class LazyMaster : public txn::MasterBase {
 public:
  LazyMaster(sim::ClockDomain& clk, txn::InitiatorPort& port)
      : txn::MasterBase(clk, "lazy", port, 4) {}

  void evaluate() override {
    if (now() % 16 == 0) collectResponses();
    if (next_ == kTotal) return;
    const Kind& k = kKinds[next_ % 5];
    if (k.posted ? !canIssuePosted() : !canIssue()) return;
    auto req = std::make_shared<txn::Request>();
    req->id = clk_.simulator().nextTransactionId();
    req->root_id = req->id;
    req->op = k.op;
    req->addr = (k.slow ? 1ull << 24 : 0) + (next_ * 64) % (1 << 20);
    req->beats = k.beats;
    req->posted = k.posted;
    issue(req);
    ++next_;
  }
  bool idle() const override { return next_ == kTotal && outstanding() == 0; }

 private:
  struct Kind {
    txn::Opcode op;
    bool slow;  ///< the slow memory, else the fast one
    std::uint32_t beats;
    bool posted;
  };
  static constexpr Kind kKinds[5] = {{txn::Opcode::Read, false, 8, false},
                                     {txn::Opcode::Read, true, 1, false},
                                     {txn::Opcode::Write, true, 4, true},
                                     {txn::Opcode::Write, true, 4, true},
                                     {txn::Opcode::Write, false, 2, false}};
  static constexpr std::uint64_t kTotal = 80;
  std::uint64_t next_ = 0;

  SIM_STATE_MEMBERS_WITH_BASE(txn::MasterBase, next_);
};

// A small single-layer rig over an interconnect engine: three IPTG masters
// with mixed reads and writes of 1 to 8 beats on two memories (1 and 5 wait
// states), and single-slot response ports, so last beats meet back-pressure
// too.  Masters 0 and 2 use the fast memory and master 1 the slow one.
// With `stress`, master 0 reads and writes both, so its responses from the
// two memories share its response channel (AXI R interleaving), a
// LazyMaster joins, and the fast memory has no wait state: its beats fall
// due once per cycle, so a response that waited behind another has several
// due at once.
template <typename Bus>
struct LayerRig {
  sim::Simulator sim;
  sim::ClockDomain& clk;
  Bus node;
  txn::TargetPort fast_port;
  txn::TargetPort slow_port;
  mem::SimpleMemory fast;
  mem::SimpleMemory slow;
  std::vector<std::unique_ptr<txn::InitiatorPort>> ports;
  std::vector<std::unique_ptr<iptg::Iptg>> gens;
  std::unique_ptr<txn::InitiatorPort> lazy_port;
  std::unique_ptr<LazyMaster> lazy;

  LayerRig(bool gating, bool stress)
      : clk(sim.addClockDomain("bus", 200.0)), node(clk, "n", {}),
        fast_port(clk, "fast", 2, 4), slow_port(clk, "slow", 1, 2),
        fast(clk, "fastm", fast_port, {stress ? 0u : 1u}),
        slow(clk, "slowm", slow_port, {5}) {
    sim.setActivityGating(gating);
    node.addTarget(fast_port, 0, 1ull << 24);
    node.addTarget(slow_port, 1ull << 24, 1ull << 24);
    for (unsigned i = 0; i < 3; ++i) {
      const std::string name = "m" + std::to_string(i);
      ports.push_back(std::make_unique<txn::InitiatorPort>(clk, name, 2, 1));
      node.addInitiator(*ports.back());
      iptg::IptgConfig icfg;
      icfg.seed = 7 + i;
      iptg::AgentProfile prof;
      prof.name = "a";
      prof.read_fraction = i == 2 ? 0.3 : 0.7;
      prof.burst_beats = {{1, 1.0}, {4, 1.0}, {8, 1.0}};
      prof.base_addr = i == 1 ? 1ull << 24 : 0;
      prof.region_size = stress && i == 0 ? 2ull << 24 : 1 << 20;
      prof.pattern = iptg::AddressPattern::Random;
      prof.outstanding = 4;
      prof.message_len = 3;
      prof.total_transactions = 100;
      icfg.agents.push_back(prof);
      gens.push_back(std::make_unique<iptg::Iptg>(clk, "g" + name,
                                                  *ports.back(), icfg));
    }
    if (stress) {
      lazy_port = std::make_unique<txn::InitiatorPort>(clk, "lz", 2, 1);
      node.addInitiator(*lazy_port);
      lazy = std::make_unique<LazyMaster>(clk, *lazy_port);
    }
  }

  /// transfers() and held() of every channel the engine reports.
  std::vector<std::uint64_t> counters() const {
    std::vector<std::uint64_t> out;
    auto put = [&](const stats::ChannelUtilization& c) {
      out.push_back(c.transfers());
      out.push_back(c.held());
    };
    if constexpr (std::is_same_v<Bus, stbus::StbusNode>) {
      for (std::size_t t = 0; t < node.numTargets(); ++t) {
        put(node.reqChannel(t));
      }
      for (std::size_t i = 0; i < node.numInitiators(); ++i) {
        put(node.rspChannel(i));
      }
    } else if constexpr (std::is_same_v<Bus, ahb::AhbLayer>) {
      put(node.channel());
    } else {
      for (std::size_t t = 0; t < node.numTargets(); ++t) {
        put(node.arChannel(t));
        put(node.wChannel(t));
      }
      for (std::size_t i = 0; i < node.numInitiators(); ++i) {
        put(node.rChannel(i));
      }
    }
    return out;
  }
};

// The AXI R links as the per-cycle model the bus replaced: on every edge
// each link harvests the responses the targets show, picks a stream with a
// due beat (the one served last first, then round-robin) and moves one
// beat; a last beat facing a full response FIFO holds the link.  Fed what
// the bus sees at the start of each edge, it predicts every R counter.
struct RLinkModel {
  struct Stream {
    txn::ResponsePtr rsp;
    std::uint32_t next_beat = 0;
  };
  struct Link {
    std::vector<Stream> active;
    std::size_t last_pick = 0;
    stats::ChannelUtilization chan;
  };
  std::vector<Link> links;
  std::unordered_map<const txn::Request*, std::size_t> owner;
  std::vector<txn::ResponsePtr> shown;  ///< target responses, in order
  std::vector<bool> full;               ///< per initiator response FIFO

  /// Between edges: record what the next edge's evaluate sees.
  void observe(const std::vector<const txn::TargetPort*>& targets,
               const std::vector<const txn::InitiatorPort*>& initiators) {
    links.resize(initiators.size());
    full.assign(initiators.size(), false);
    for (std::size_t i = 0; i < initiators.size(); ++i) {
      const auto& req = initiators[i]->req;
      for (std::size_t k = 0; k < req.size(); ++k) owner[req.at(k).get()] = i;
      full[i] = !initiators[i]->rsp.canPush();
    }
    shown.clear();
    for (const auto* t : targets) {
      for (std::size_t k = 0; k < t->rsp.size(); ++k) {
        shown.push_back(t->rsp.at(k));
      }
    }
  }

  /// The edge at `now_ps` ran: move every link by one cycle.
  void step(sim::Picos now_ps) {
    for (const auto& rsp : shown) {
      Link& l = links[owner.at(rsp->req.get())];
      bool known = false;
      for (const auto& s : l.active) known = known || s.rsp == rsp;
      if (!known) l.active.push_back({rsp, 0});
    }
    for (std::size_t i = 0; i < links.size(); ++i) {
      Link& l = links[i];
      std::size_t pick = l.active.size();
      for (std::size_t off = 0; off < l.active.size(); ++off) {
        const std::size_t idx = (l.last_pick + off) % l.active.size();
        const Stream& s = l.active[idx];
        if (now_ps >= s.rsp->sched.beatTime(s.next_beat)) {
          pick = idx;
          break;
        }
      }
      if (pick == l.active.size()) continue;
      l.last_pick = pick;
      Stream& s = l.active[pick];
      if (s.next_beat + 1 < s.rsp->beats) {
        l.chan.markTransfer();
        ++s.next_beat;
      } else if (full[i]) {
        l.chan.markHeld();
      } else {
        l.chan.markTransfer();
        l.active.erase(l.active.begin() + static_cast<std::ptrdiff_t>(pick));
        l.last_pick = 0;
      }
    }
  }
};

// The engine sleeps through its streams and waits and settles its channel
// counters when one ends.  Read between any two edges — gated or not, and
// across a checkpoint and restore taken mid-stream — the counters must read
// what the channels have carried so far: each channel gains at most one
// cycle per edge, and the gated and ungated rigs agree.
template <typename Bus>
void checkCountersExactMidStream(bool stress) {
  LayerRig<Bus> g(true, stress);
  LayerRig<Bus> u(false, stress);
  std::vector<std::uint64_t> prev = g.counters();
  unsigned asleep_moves = 0;  // edges whose counters moved while asleep
  RLinkModel model;  // AXI: the exact R counters, edge by edge
  std::vector<const txn::InitiatorPort*> initiators;
  for (const auto& p : g.ports) initiators.push_back(p.get());
  if (g.lazy_port) initiators.push_back(g.lazy_port.get());
  auto stepBoth = [&] {
    model.observe({&g.fast_port, &g.slow_port}, initiators);
    ASSERT_TRUE(g.sim.step());
    ASSERT_TRUE(u.sim.step());
    if constexpr (std::is_same_v<Bus, axi::AxiBus>) {
      model.step(g.sim.now());
      for (std::size_t i = 0; i < initiators.size(); ++i) {
        const stats::ChannelUtilization r = g.node.rChannel(i);
        ASSERT_EQ(r.transfers(), model.links[i].chan.transfers())
            << "initiator " << i << ", cycle " << g.clk.now();
        ASSERT_EQ(r.held(), model.links[i].chan.held())
            << "initiator " << i << ", cycle " << g.clk.now();
      }
    }
    const std::vector<std::uint64_t> cur = g.counters();
    ASSERT_EQ(cur, u.counters()) << "cycle " << g.clk.now();
    for (std::size_t k = 0; k < cur.size(); k += 2) {
      const std::uint64_t before = prev[k] + prev[k + 1];
      const std::uint64_t after = cur[k] + cur[k + 1];
      ASSERT_LE(before, after) << "cycle " << g.clk.now();
      ASSERT_LE(after, before + 1) << "cycle " << g.clk.now();
    }
    if (g.node.asleep() && cur != prev) ++asleep_moves;
    prev = cur;
  };

  // Step in lock-step until the engine has slept through a few stream
  // cycles.
  while (asleep_moves < 5) {
    stepBoth();
    if (::testing::Test::HasFatalFailure()) return;
  }
  ASSERT_TRUE(g.node.asleep());
  EXPECT_EQ(g.sim.stateDigest(), u.sim.stateDigest());

  const std::vector<std::uint64_t> at_ckpt = g.counters();
  g.sim.checkpoint();
  std::vector<std::vector<std::uint64_t>> first;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(g.sim.step());
    first.push_back(g.counters());
  }
  g.sim.restoreCheckpoint();
  EXPECT_EQ(g.counters(), at_ckpt);
  prev = at_ckpt;
  for (int i = 0; i < 300; ++i) {
    stepBoth();
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(g.counters(), first[static_cast<std::size_t>(i)]) << "edge " << i;
  }
  EXPECT_EQ(g.sim.stateDigest(), u.sim.stateDigest());

  // Run both to the end: every master completes and the counters still agree.
  g.sim.runUntilIdle(1'000'000'000'000ull);
  u.sim.runUntilIdle(1'000'000'000'000ull);
  for (const auto& gen : g.gens) EXPECT_TRUE(gen->done());
  if (g.lazy) EXPECT_EQ(g.lazy->retired(), 80u);
  EXPECT_EQ(g.counters(), u.counters());
  EXPECT_EQ(g.sim.stateDigest(), u.sim.stateDigest());
  EXPECT_GT(asleep_moves, 5u);
}

TEST(KernelActivity, StbusChannelCountersExactMidStream) {
  checkCountersExactMidStream<stbus::StbusNode>(false);
}

TEST(KernelActivity, AxiAhbChannelCountersExactMidStream) {
  // The AXI R link walks a lone response and steps interleaved ones; master
  // 0's traffic over both memories makes it interleave, and the lazy master
  // holds last beats (AXI and AHB) and fills the slow memory's request FIFO
  // with posted writes (an idle AHB layer facing a full target).
  {
    SCOPED_TRACE("axi");
    checkCountersExactMidStream<axi::AxiBus>(true);
  }
  {
    SCOPED_TRACE("ahb");
    checkCountersExactMidStream<ahb::AhbLayer>(true);
  }
}

TEST(KernelActivity, DeepCheckCatchesIllegalSleep) {
  // A component that sleeps while its evaluate() would still stage work
  // (here with a lying idle()): the deep-check replay (which evaluates
  // sleeping components first, each against the activity contract) catches
  // it on the first edge where the gated forward pass skips work the replay
  // pass stages.
  struct Liar : sim::Component {
    sim::SyncFifo<int>& f;
    int next = 0;
    Liar(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
        : sim::Component(c, "liar"), f(fifo) {}
    void evaluate() override {
      f.push(next++);
      sleep();  // illegal in spirit: there is still work to stage
    }
    bool idle() const override { return true; }  // the lie
    SIM_STATE_MEMBERS(next);
  };

  sim::Simulator s;
  s.setDeepCheck(true);
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "f", 64);
  Liar c(clk, f);
  EXPECT_THROW(s.run(100'000), sim::InvariantViolation);
}

// ---------------------------------------------------------------------------
// Timed wakes and parked components
// ---------------------------------------------------------------------------

/// Holds work (never idle) and, on each evaluate, records the cycle and
/// sleeps for `nap` cycles.  Evaluated while asleep (ungated, or by
/// deep-check's replay) it only re-derives the same wait, and deep-check's
/// replay pass records nothing.
class Napper : public sim::Component {
 public:
  Napper(sim::ClockDomain& clk, std::string name, sim::Cycle nap)
      : sim::Component(clk, std::move(name)), nap_(nap) {}
  void evaluate() override {
    if (now() < next_) {
      sleepUntil(next_);
      return;
    }
    if (!clk().simulator().inReplay()) seen.push_back(now());
    ++runs_;
    next_ = now() + nap_;
    sleepUntil(next_);
  }
  bool idle() const override { return false; }
  std::vector<sim::Cycle> seen;

 private:
  sim::Cycle nap_;
  std::uint64_t runs_ = 0;
  sim::Cycle next_ = 0;
  SIM_STATE_MEMBERS(runs_, next_);
  SIM_STATE_EXEMPT(nap_, "immutable configuration");
  SIM_STATE_EXEMPT(seen, "test probe");
};

TEST(KernelTimedWake, FiresOnExactCycleAcrossNonIntegerRatio) {
  // 300 MHz (3333 ps) against 100 MHz (10000 ps): the edges of the two
  // domains coincide only at multiples of 9999 * 10000 ps, so each domain's
  // wake must be found through its own cycle counter, not through time.
  sim::Simulator s;
  auto& fast = s.addClockDomain("fast", 300.0);
  auto& slow = s.addClockDomain("slow", 100.0);
  Napper nf(fast, "nf", 7);
  Napper ns(slow, "ns", 3);
  s.run(100 * fast.period());
  const std::vector<sim::Cycle> expect_fast = {1,  8,  15, 22, 29, 36, 43,
                                               50, 57, 64, 71, 78, 85, 92,
                                               99};
  EXPECT_EQ(nf.seen, expect_fast);
  ASSERT_FALSE(ns.seen.empty());
  for (std::size_t i = 0; i < ns.seen.size(); ++i) {
    EXPECT_EQ(ns.seen[i], 1 + 3 * i);
  }
  EXPECT_TRUE(nf.asleep());
  EXPECT_EQ(nf.wakeAt(), 106u);
}

TEST(KernelTimedWake, EarlyPushWakeLeavesNoStaleFire) {
  // The consumer naps until cycle 20, a push at cycle 5 wakes it early, it
  // drains the FIFO and goes idle with sleep().  The early wake cleared the
  // cycle-20 wake, so it must not wake it again.
  struct Producer : sim::Component {
    sim::SyncFifo<int>& f;
    Producer(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
        : sim::Component(c, "prod"), f(fifo) {}
    void evaluate() override {
      if (now() == 5) f.push(7);
    }
  };
  struct Consumer : sim::Component {
    sim::SyncFifo<int>& f;
    std::vector<sim::Cycle> seen;
    Consumer(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
        : sim::Component(c, "cons"), f(fifo) {}
    void evaluate() override {
      seen.push_back(now());
      if (now() == 1) {
        sleepUntil(20);
        return;
      }
      while (!f.empty()) f.pop();
      sleep();
    }
    bool idle() const override { return f.empty(); }
  };
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "f", 4);
  Producer p(clk, f);
  Consumer c(clk, f);
  f.wakeOnPush(&c);
  s.run(30 * clk.period());
  EXPECT_EQ(c.seen, (std::vector<sim::Cycle>{1, 6}));
  EXPECT_TRUE(c.asleep());
  EXPECT_TRUE(c.idle());
  EXPECT_EQ(c.wakeAt(), 0u);
}

TEST(KernelTimedWake, ReplayCheckReplaysTimedWakes) {
  // The window starts with both nappers asleep and their wakes due inside
  // it.  The first pass fires those wakes and sets later ones; the restore
  // puts back the components' own wake cycles, and the replay must fire the
  // same wakes the first pass saw.
  sim::Simulator s;
  auto& a = s.addClockDomain("a", 400.0);
  auto& b = s.addClockDomain("b", 250.0);
  Napper na(a, "na", 5);
  Napper nb(b, "nb", 3);
  s.run(7 * a.period());
  ASSERT_NE(na.wakeAt(), 0u);
  ASSERT_NE(nb.wakeAt(), 0u);
  const std::optional<sim::ReplayDivergence> div = s.replayCheck(40);
  EXPECT_FALSE(div.has_value()) << div->holder;
}

TEST(KernelTimedWake, DeepCheckedWakesMatchPlainRun) {
  // Deep-check fires the due wakes of an edge before it saves the edge, so
  // its replay pass sees the waking nappers awake, not as sleepers that act.
  // On 300/100 MHz domains the wakes of the two domains rarely coincide; a
  // deep-checked run must see the same cycles and end in the same state as
  // a plain one.  The slow napper naps one cycle, so each of its wake edges
  // is the first edge of its sleep, where the replay checks a sleeper's
  // state: a wake fired only after the save raises there.
  struct Run {
    std::vector<sim::Cycle> fast, slow;
    std::uint64_t digest = 0;
  };
  const auto run = [](bool deep) {
    sim::Simulator s;
    s.setDeepCheck(deep);
    auto& fast = s.addClockDomain("fast", 300.0);
    auto& slow = s.addClockDomain("slow", 100.0);
    Napper nf(fast, "nf", 7);
    Napper ns(slow, "ns", 1);
    s.run(100 * fast.period());
    return Run{nf.seen, ns.seen, s.stateDigest()};
  };
  const Run plain = run(false);
  Run checked;
  ASSERT_NO_THROW(checked = run(true));
  ASSERT_GT(plain.fast.size(), 10u);
  ASSERT_GT(plain.slow.size(), 10u);
  EXPECT_EQ(checked.fast, plain.fast);
  EXPECT_EQ(checked.slow, plain.slow);
  EXPECT_EQ(checked.digest, plain.digest);
}

TEST(KernelTimedWake, RunUntilIdleWaitsForParkedWork) {
  // A sleeping component may hold work: runUntilIdle() polls its idle()
  // and keeps running through its nap instead of stopping after the quiesce
  // window.
  struct Worker : sim::Component {
    using sim::Component::Component;
    bool done = false;
    void evaluate() override {
      if (now() == 1) {
        sleepUntil(40);
        return;
      }
      done = true;
      sleep();
    }
    bool idle() const override { return done; }
  };
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  Worker w(clk, "w");
  const sim::Picos last_active = s.runUntilIdle(1'000'000'000);
  EXPECT_TRUE(w.done);
  // The last non-idle edge is cycle 39; the worker finishes at cycle 40.
  EXPECT_EQ(last_active, 39 * clk.period());
}

TEST(KernelActivity, DeepCheckNamesParkerWithQueuedRequest) {
  // A server that sleeps the first time it sees a request, instead of
  // serving it: deep-check replays it on the first edge the forward pass
  // skips it and names it.
  struct Client : sim::Component {
    sim::SyncFifo<int>& req;
    Client(sim::ClockDomain& c, sim::SyncFifo<int>& f)
        : sim::Component(c, "client"), req(f) {}
    void evaluate() override {
      if (now() == 1) req.push(1);
    }
    SIM_STATE_NONE();
  };
  struct LazyServer : sim::Component {
    sim::SyncFifo<int>& req;
    bool seen = false;
    LazyServer(sim::ClockDomain& c, sim::SyncFifo<int>& f)
        : sim::Component(c, "lazy"), req(f) {}
    void evaluate() override {
      if (req.empty()) {
        sleep();
        return;
      }
      if (!seen) {
        seen = true;
        sleep();  // the planted bug: a request is queued
        return;
      }
      req.pop();
    }
    bool idle() const override { return req.empty(); }
    SIM_STATE_MEMBERS(seen);
  };
  sim::Simulator s;
  s.setDeepCheck(true);
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "req", 4);
  Client client(clk, f);
  LazyServer lazy(clk, f);
  f.wakeOnPush(&lazy);
  try {
    s.run(20 * clk.period());
    FAIL() << "deep-check missed a component asleep with a queued request";
  } catch (const sim::InvariantViolation& e) {
    EXPECT_EQ(e.context().who, "lazy");
    EXPECT_EQ(s.now(), 3 * clk.period());  // the first edge it sleeps through
    EXPECT_NE(std::string(e.what()).find("asleep"), std::string::npos)
        << e.what();
  }
}

}  // namespace
