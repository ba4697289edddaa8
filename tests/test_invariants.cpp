// Tests for the phase-discipline checker: SIM_CHECK / InvariantViolation,
// the kernel's Outside/Evaluate/Commit phase guards on FIFOs, the
// compile-time pin that only the kernel commits, and the
// deep-check replay mode that defends the determinism guarantee.
//
// The malicious components here deliberately violate the two-phase protocol;
// every violation must surface as a named, cycle-stamped InvariantViolation —
// in release builds just as in debug builds — never as UB or silent timeline
// corruption.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/check.hpp"
#include "sim/component.hpp"
#include "sim/fifo.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "stats/probes.hpp"

namespace {

using namespace mpsoc;

// ---------------------------------------------------------------------------
// Phase guards

TEST(PhaseGuards, PopOutsideSimulationThrows) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "victim", 4);

  ASSERT_EQ(s.phase(), sim::Phase::Outside);
  try {
    f.pop();
    FAIL() << "pop() outside the evaluate phase must throw";
  } catch (const sim::InvariantViolation& e) {
    EXPECT_EQ(e.context().who, "victim");
    EXPECT_EQ(e.context().domain, "clk");
    EXPECT_NE(std::string(e.what()).find("outside the evaluate phase"),
              std::string::npos);
  }
}

TEST(PhaseGuards, PushOutsideSimulationThrows) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "victim", 4);
  EXPECT_THROW(f.push(1), sim::InvariantViolation);
}

// Only the kernel commits: commit() is private to ClockDomain, so component
// code that tries to commit a FIFO does not compile.
template <class U>
concept UserCanCommit = requires(U& u) { u.commit(); };
static_assert(!UserCanCommit<sim::SyncFifo<int>>);
static_assert(!UserCanCommit<sim::AsyncFifo<int>>);
static_assert(!UserCanCommit<sim::Updatable>);

/// Malicious Updatable whose commit() pushes into a FIFO — staging new state
/// during the commit phase would corrupt the registered-occupancy timeline.
struct CommitPusher : sim::Updatable {
  sim::ClockDomain& clk;
  sim::SyncFifo<int>& f;
  CommitPusher(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
      : clk(c), f(fifo) {
    clk.addUpdatable(this);
  }
  ~CommitPusher() override { clk.removeUpdatable(this); }
  void commit() override { f.push(99); }
  void saveCheckpoint() override {}  // holds no committed state
  void restoreCheckpoint() override {}
  std::uint64_t checkpointDigest() const override { return 0; }
};

/// Queues an updatable for commit on every edge, as a FIFO push or pop does.
struct CommitQueuer : sim::Component {
  sim::Updatable& u;
  CommitQueuer(sim::ClockDomain& c, sim::Updatable& target)
      : sim::Component(c, "queuer"), u(target) {}
  void evaluate() override { clk_.queueCommit(&u); }
};

TEST(PhaseGuards, PushDuringCommitThrows) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "victim", 4);
  CommitPusher evil(clk, f);
  CommitQueuer queuer(clk, evil);

  try {
    s.run(100'000);
    FAIL() << "push() during the commit phase must throw";
  } catch (const sim::InvariantViolation& e) {
    EXPECT_EQ(e.context().who, "victim");
    EXPECT_EQ(e.context().domain, "clk");
    EXPECT_EQ(e.context().cycle, 1u);          // first edge already corrupts
    EXPECT_EQ(e.context().time_ps, 10'000u);   // 100 MHz -> first edge @10 ns
    EXPECT_NE(std::string(e.what()).find("outside the evaluate phase"),
              std::string::npos);
  }
}

/// Malicious component that pops during evaluate of a *different* FIFO's
/// commit... rather: pushes without checking canPush(), overflowing a full
/// FIFO.  The overflow must be rejected at the push, not corrupt memory.
struct BlindPusher : sim::Component {
  sim::SyncFifo<int>& f;
  BlindPusher(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
      : sim::Component(c, "blind"), f(fifo) {}
  void evaluate() override {
    f.push(1);  // no canPush() check: third call overflows a depth-2 FIFO
    f.push(2);
    f.push(3);
  }
};

TEST(PhaseGuards, OverflowPushThrows) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "narrow", 2);
  BlindPusher evil(clk, f);
  try {
    s.run(100'000);
    FAIL() << "overflowing push() must throw";
  } catch (const sim::InvariantViolation& e) {
    EXPECT_EQ(e.context().who, "narrow");
    EXPECT_NE(std::string(e.what()).find("full FIFO"), std::string::npos);
  }
}

TEST(PhaseGuards, AsyncFifoAcrossSimulatorsRejected) {
  sim::Simulator s1;
  sim::Simulator s2;
  auto& a = s1.addClockDomain("a", 200.0);
  auto& b = s2.addClockDomain("b", 100.0);
  EXPECT_THROW(sim::AsyncFifo<int>(a, b, "cross", 4),
               sim::InvariantViolation);
}

TEST(PhaseGuards, ViolationIsOnInReleaseBuilds) {
  // SIM_CHECK must not compile out with NDEBUG: this test exists precisely
  // to fail if someone routes SIM_CHECK through assert().
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "always-on", 1);
  EXPECT_THROW(f.pop(), sim::InvariantViolation);
#ifdef NDEBUG
  SUCCEED() << "guard verified in a release (NDEBUG) build";
#endif
}

// ---------------------------------------------------------------------------
// Deep-check mode

/// Well-behaved producer with full replay support.
struct ReplayProducer : sim::Component {
  sim::SyncFifo<int>& f;
  int next = 0;
  ReplayProducer(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
      : sim::Component(c, "prod"), f(fifo) {}
  void evaluate() override {
    if (f.canPush()) f.push(next++);
  }
  SIM_STATE_MEMBERS(next);
};

struct ReplayConsumer : sim::Component {
  sim::SyncFifo<int>& f;
  std::vector<int> got;
  ReplayConsumer(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
      : sim::Component(c, "cons"), f(fifo) {}
  void evaluate() override {
    if (!f.empty()) got.push_back(f.pop());
  }
  SIM_STATE_MEMBERS(got);
};

TEST(DeepCheck, CleanPipelineStreamsIdentically) {
  // The same producer/consumer pair must deliver the same values with and
  // without deep-check (replay must be side-effect free).
  auto run = [](bool deep) {
    sim::Simulator s;
    s.setDeepCheck(deep);
    auto& clk = s.addClockDomain("clk", 100.0);
    sim::SyncFifo<int> f(clk, "pipe", 2);
    ReplayProducer p(clk, f);
    ReplayConsumer c(clk, f);
    s.run(500'000);
    return c.got;
  };
  const auto plain = run(false);
  const auto deep = run(true);
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(plain, deep);
  for (std::size_t i = 0; i < deep.size(); ++i) {
    EXPECT_EQ(deep[i], static_cast<int>(i));
  }
}

/// Pair of components with a staging bypass: the writer flips a shared flag
/// mid-evaluate, the reader pushes based on it.  The outcome depends on
/// registration order — exactly the bug class deep-check must catch.
struct SharedFlagWriter : sim::Component {
  int* shared;
  int saved = 0;
  SharedFlagWriter(sim::ClockDomain& c, int* flag)
      : sim::Component(c, "writer"), shared(flag) {}
  void evaluate() override { *shared = 1; }
  bool saveState() override {
    saved = *shared;
    return true;
  }
  void restoreState() override { *shared = saved; }
};

struct SharedFlagReader : sim::Component {
  sim::SyncFifo<int>& f;
  int* shared;
  SharedFlagReader(sim::ClockDomain& c, sim::SyncFifo<int>& fifo, int* flag)
      : sim::Component(c, "reader"), f(fifo), shared(flag) {}
  void evaluate() override {
    if (*shared == 1 && f.canPush()) f.push(*shared);
  }
  SIM_STATE_NONE();
};

TEST(DeepCheck, OrderDependentEvaluateCaught) {
  sim::Simulator s;
  s.setDeepCheck(true);
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "leak", 4);
  int shared = 0;
  SharedFlagWriter w(clk, &shared);   // registered first: forward pass sets
  SharedFlagReader r(clk, f, &shared);  // the flag before the reader runs
  try {
    s.run(100'000);
    FAIL() << "order-dependent evaluate must be caught by deep-check";
  } catch (const sim::InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("order-dependent"),
              std::string::npos);
    EXPECT_EQ(e.context().domain, "clk");
  }
}

TEST(DeepCheck, OrderIndependentPairPasses) {
  // Same wiring but the reader keys off *committed* FIFO state only: no
  // order dependence, so deep-check must stay silent.
  sim::Simulator s;
  s.setDeepCheck(true);
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "pipe", 2);
  ReplayProducer p(clk, f);
  ReplayConsumer c(clk, f);
  EXPECT_NO_THROW(s.run(300'000));
  EXPECT_FALSE(c.got.empty());
}

/// Out-of-order service under deep-check: the rewind after the replay pass
/// must restore the exact queue, popAt() gaps included, so the forward pass
/// sees identical state.
struct OooServer : sim::Component {
  sim::SyncFifo<int>& f;
  int phase = 0;
  std::vector<int> taken;
  OooServer(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
      : sim::Component(c, "ooo"), f(fifo) {}
  void evaluate() override {
    switch (phase++) {
      case 0:
        f.push(10);
        f.push(20);
        f.push(30);
        break;
      case 1:
        taken.push_back(f.popAt(1));  // 20, out of order
        taken.push_back(f.pop());     // 10, in order — mixed in one edge
        break;
      case 2:
        taken.push_back(f.pop());  // 30 survives with position intact
        break;
      default:
        break;
    }
  }
  SIM_STATE_MEMBERS(phase, taken);
};

TEST(DeepCheck, PopAtRewindsExactly) {
  sim::Simulator s;
  s.setDeepCheck(true);
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "lookahead", 4);
  OooServer d(clk, f);
  EXPECT_NO_THROW(s.run(100'000));
  ASSERT_EQ(d.taken.size(), 3u);
  EXPECT_EQ(d.taken[0], 20);
  EXPECT_EQ(d.taken[1], 10);
  EXPECT_EQ(d.taken[2], 30);
  EXPECT_TRUE(f.empty());
}

/// The writer raises a manifested flag in evaluate(); the reader, reading it
/// through a pointer, removes position 2 when it sees the flag and position 1
/// otherwise.  Both passes pop once, so only the removed position tells
/// them apart.
struct PositionFlagWriter : sim::Component {
  bool flag = false;
  explicit PositionFlagWriter(sim::ClockDomain& c)
      : sim::Component(c, "writer") {}
  void evaluate() override {
    if (now() == 5) flag = true;
  }
  SIM_STATE_MEMBERS(flag);
};

struct PositionPopper : sim::Component {
  sim::SyncFifo<int>& f;
  const bool* flag;
  int next = 0;
  PositionPopper(sim::ClockDomain& c, sim::SyncFifo<int>& fifo,
                 const bool* writer_flag)
      : sim::Component(c, "popper"), f(fifo), flag(writer_flag) {}
  void evaluate() override {
    if (now() < 5) {
      f.push(next++);  // fills four slots before the out-of-order pop
    } else if (now() == 5) {
      f.popAt(*flag ? 2 : 1);
    }
  }
  SIM_STATE_MEMBERS(next);
};

TEST(DeepCheck, OrderDependentPopAtPositionCaught) {
  sim::Simulator s;
  s.setDeepCheck(true);
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "lookahead", 4);
  PositionFlagWriter w(clk);            // registered first: the forward pass
  PositionPopper r(clk, f, &w.flag);    // pops position 2, the replay 1
  try {
    s.run(100'000);
    FAIL() << "an order-dependent popAt position must be caught";
  } catch (const sim::InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("order-dependent"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("lookahead"), std::string::npos);
    EXPECT_EQ(e.context().cycle, 5u);
  }
}

// ---------------------------------------------------------------------------
// SyncFifo observer accounting under mixed in-order / out-of-order pops
// (Fig. 6 full / storing / no-request classification).

struct MixedPopDriver : sim::Component {
  sim::SyncFifo<int>& f;
  int phase = 0;
  MixedPopDriver(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
      : sim::Component(c, "drv"), f(fifo) {}
  void evaluate() override {
    switch (phase++) {
      case 0:
        f.push(1);  // edge 1: storing (not full, >=1 push)
        f.push(2);
        break;
      case 1:
        // edge 2: FIFO is full at edge start; mixed OOO + in-order pops.
        EXPECT_EQ(f.popAt(1), 2);
        EXPECT_EQ(f.pop(), 1);
        break;
      default:
        break;  // edge 3+: no-request, empty
    }
  }
};

TEST(FifoAccounting, MixedOooAndInOrderPopsStayConsistent) {
  {
    sim::Simulator s;
    auto& clk = s.addClockDomain("clk", 100.0);
    sim::SyncFifo<int> f(clk, "lmi.req", 2);
    std::vector<sim::FifoEdgeInfo> infos;
    f.setObserver(
        [](void* ctx, const sim::FifoEdgeInfo& i) {
          static_cast<std::vector<sim::FifoEdgeInfo>*>(ctx)->push_back(i);
        },
        &infos);
    MixedPopDriver d(clk, f);
    s.run(40'000);  // 4 edges
    // Once per touched edge: edges 1 and 2; the quiet edges 3-4 are silent.
    ASSERT_EQ(infos.size(), 2u);

    // Edge 1: storing.
    EXPECT_EQ(infos[0].occupancy_before, 0u);
    EXPECT_EQ(infos[0].pushed, 2u);
    EXPECT_EQ(infos[0].popped, 0u);
    EXPECT_EQ(infos[0].occupancy_after, 2u);

    // Edge 2: the edge-start occupancy counts the item the OOO removal took
    // out of the committed queue mid-edge, and both pops are counted.
    EXPECT_EQ(infos[1].occupancy_before, 2u);
    EXPECT_EQ(infos[1].capacity, 2u);
    EXPECT_EQ(infos[1].popped, 2u);
    EXPECT_EQ(infos[1].pushed, 0u);
    EXPECT_EQ(infos[1].occupancy_after, 0u);

    // Every edge satisfies the conservation law (also SIM_CHECKed in
    // commit()).
    for (const auto& i : infos) {
      EXPECT_EQ(i.occupancy_after, i.occupancy_before + i.pushed - i.popped);
    }
  }

  // The same run through a FifoStateProbe, which classifies all four edges.
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "lmi.req", 2);
  stats::FifoStateProbe probe;
  probe.attach(f);
  MixedPopDriver d(clk, f);
  s.run(40'000);
  const stats::FifoStateProbe::Buckets b = probe.total();
  EXPECT_EQ(b.cycles, 4u);
  EXPECT_EQ(b.storing, 1u);  // edge 1
  // Edge 2 is full at edge start despite the popAt() within it.
  EXPECT_EQ(b.full, 1u);
  EXPECT_EQ(b.no_request, 2u);  // edges 3-4: quiet
  EXPECT_EQ(b.empty, 3u);       // edges 1, 3 and 4
}

// ---------------------------------------------------------------------------
// AsyncFifo CDC with non-integer frequency ratio.

struct CdcProducer : sim::Component {
  sim::AsyncFifo<int>& f;
  int next = 0;
  std::vector<sim::Picos> push_time;
  CdcProducer(sim::ClockDomain& c, sim::AsyncFifo<int>& fifo)
      : sim::Component(c, "p"), f(fifo) {}
  void evaluate() override {
    if (f.canPush()) {
      f.push(next++);
      push_time.push_back(clk_.simulator().now());
    }
  }
  SIM_STATE_MEMBERS(next, push_time);
};

struct CdcConsumer : sim::Component {
  sim::AsyncFifo<int>& f;
  std::vector<int> got;
  std::vector<sim::Picos> got_time;
  CdcConsumer(sim::ClockDomain& c, sim::AsyncFifo<int>& fifo)
      : sim::Component(c, "c"), f(fifo) {}
  void evaluate() override {
    while (f.canPop()) {
      got.push_back(f.pop());
      got_time.push_back(clk_.simulator().now());
    }
  }
  SIM_STATE_MEMBERS(got, got_time);
};

TEST(AsyncFifoCdc, NonIntegerRatioPreservesOrderAndSyncDelay) {
  // 333 MHz producer against a 140 MHz consumer: the period ratio is not an
  // integer multiple, so producer and consumer edges drift against each
  // other and every alignment of the synchroniser window gets exercised.
  // Deep-check must deliver the same stream: a pop staged at a consumer-only
  // edge commits at the producer's next edge, so the rewind after each
  // replay pass has to restore the pop count carried into the edge.
  struct Delivery {
    std::vector<int> got;
    std::vector<sim::Picos> got_time;
    std::vector<sim::Picos> push_time;
    std::size_t in_flight = 0;
    sim::Picos cons_period = 0;
  };
  auto run = [](bool deep) {
    sim::Simulator s;
    s.setDeepCheck(deep);
    auto& prod = s.addClockDomain("prod", 333.0);
    auto& cons = s.addClockDomain("cons", 140.0);
    sim::AsyncFifo<int> f(prod, cons, "cdc", 4, 2);
    CdcProducer p(prod, f);
    CdcConsumer c(cons, f);
    s.run(3'000'000);  // 3 us
    return Delivery{c.got, c.got_time, p.push_time, f.sizeIgnoringSync(),
                    cons.period()};
  };

  const Delivery plain = run(false);
  const Delivery deep = run(true);
  for (const Delivery* d : {&plain, &deep}) {
    SCOPED_TRACE(d == &deep ? "deep-check on" : "deep-check off");
    ASSERT_GT(d->got.size(), 50u);
    for (std::size_t i = 0; i < d->got.size(); ++i) {
      // In-order, loss-free delivery...
      EXPECT_EQ(d->got[i], static_cast<int>(i));
      // ...and never before the two-flop synchroniser delay has elapsed.
      EXPECT_GE(d->got_time[i], d->push_time[i] + 2 * d->cons_period)
          << "item " << i << " crossed the CDC faster than sync_stages allows";
    }
    // Conservation: everything pushed is delivered or still in flight.
    EXPECT_EQ(d->push_time.size(), d->got.size() + d->in_flight);
  }
  EXPECT_EQ(plain.got, deep.got);
  EXPECT_EQ(plain.got_time, deep.got_time);
  EXPECT_EQ(plain.push_time, deep.push_time);
}

}  // namespace
