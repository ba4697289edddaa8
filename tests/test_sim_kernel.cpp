// Unit tests for the simulation kernel: clock domains, two-phase scheduling,
// registered FIFO semantics, cross-domain FIFOs, RNG determinism.

#include <gtest/gtest.h>

#include <random>
#include <utility>
#include <vector>

#include "sim/component.hpp"
#include "sim/fifo.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace {

using namespace mpsoc;

TEST(Time, PeriodFromMhz) {
  EXPECT_EQ(sim::periodFromMhz(400.0), 2500u);
  EXPECT_EQ(sim::periodFromMhz(250.0), 4000u);
  EXPECT_EQ(sim::periodFromMhz(200.0), 5000u);
  EXPECT_EQ(sim::periodFromMhz(100.0), 10000u);
}

TEST(Time, RoundTrip) {
  EXPECT_NEAR(sim::mhzFromPeriod(sim::periodFromMhz(133.0)), 133.0, 0.2);
}

// A component that records the cycle numbers at which it ran.
class Ticker : public sim::Component {
 public:
  using sim::Component::Component;
  void evaluate() override { seen.push_back(now()); }
  std::vector<sim::Cycle> seen;
};

TEST(Scheduler, SingleDomainAdvancesOneCyclePerEdge) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);  // 10 ns
  Ticker t(clk, "t");
  s.run(50'000);  // 50 ns -> 5 edges (at 10,20,30,40,50 ns)
  ASSERT_EQ(t.seen.size(), 5u);
  EXPECT_EQ(t.seen.front(), 1u);
  EXPECT_EQ(t.seen.back(), 5u);
}

TEST(Scheduler, TwoDomainsInterleaveByFrequency) {
  sim::Simulator s;
  auto& fast = s.addClockDomain("fast", 400.0);  // 2.5 ns
  auto& slow = s.addClockDomain("slow", 100.0);  // 10 ns
  Ticker tf(fast, "tf");
  Ticker ts(slow, "ts");
  s.run(40'000);  // 40 ns
  EXPECT_EQ(tf.seen.size(), 16u);
  EXPECT_EQ(ts.seen.size(), 4u);
}

TEST(Scheduler, CoincidentEdgesEvaluateBeforeAnyCommit) {
  // Producer in domain A pushes at every edge; consumer in coincident domain
  // B must not see the value until the following edge.
  sim::Simulator s;
  auto& a = s.addClockDomain("a", 100.0);
  auto& b = s.addClockDomain("b", 100.0);

  struct Producer : sim::Component {
    sim::SyncFifo<int>* f;
    int next = 0;
    Producer(sim::ClockDomain& c, sim::SyncFifo<int>* fifo)
        : sim::Component(c, "prod"), f(fifo) {}
    void evaluate() override {
      if (f->canPush()) f->push(next++);
    }
  };
  struct Consumer : sim::Component {
    sim::SyncFifo<int>* f;
    std::vector<std::pair<sim::Cycle, int>> got;
    Consumer(sim::ClockDomain& c, sim::SyncFifo<int>* fifo)
        : sim::Component(c, "cons"), f(fifo) {}
    void evaluate() override {
      if (!f->empty()) got.emplace_back(now(), f->pop());
    }
  };

  sim::SyncFifo<int> fifo(a, "f", 4);
  Producer p(a, &fifo);
  Consumer c(b, &fifo);
  s.run(100'000);
  ASSERT_FALSE(c.got.empty());
  // First push happens at edge 1, so the earliest pop is edge 2.
  EXPECT_EQ(c.got.front().first, 2u);
  EXPECT_EQ(c.got.front().second, 0);
  // Values arrive in order with no loss.
  for (std::size_t i = 0; i < c.got.size(); ++i) {
    EXPECT_EQ(c.got[i].second, static_cast<int>(i));
  }
}

TEST(SyncFifo, RegisteredOccupancy) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "f", 2);

  struct Driver : sim::Component {
    sim::SyncFifo<int>& f;
    int phase = 0;
    Driver(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
        : sim::Component(c, "drv"), f(fifo) {}
    void evaluate() override {
      switch (phase++) {
        case 0:
          EXPECT_TRUE(f.empty());
          EXPECT_TRUE(f.canPush(2));
          f.push(1);
          f.push(2);
          EXPECT_FALSE(f.canPush());  // staged pushes count against capacity
          EXPECT_TRUE(f.empty());     // but are not yet visible
          break;
        case 1:
          EXPECT_EQ(f.size(), 2u);
          EXPECT_EQ(f.pop(), 1);
          // Popped slot frees only next cycle: still cannot push.
          EXPECT_FALSE(f.canPush());
          break;
        case 2:
          EXPECT_EQ(f.size(), 1u);
          EXPECT_TRUE(f.canPush());  // yesterday's pop freed a slot
          EXPECT_EQ(f.pop(), 2);
          break;
        default:
          break;
      }
    }
  };
  Driver d(clk, f);
  s.run(100'000);
  EXPECT_GE(d.phase, 3);
}

TEST(SyncFifo, DepthOneThrottlesToHalfRate) {
  // With a depth-1 FIFO, a push can occur at best every other cycle — the
  // "single-slot buffering makes every transaction blocking" effect.
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "f", 1);

  struct Pusher : sim::Component {
    sim::SyncFifo<int>& f;
    int pushed = 0;
    Pusher(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
        : sim::Component(c, "p"), f(fifo) {}
    void evaluate() override {
      if (f.canPush()) {
        f.push(1);
        ++pushed;
      }
    }
  };
  struct Popper : sim::Component {
    sim::SyncFifo<int>& f;
    int popped = 0;
    Popper(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
        : sim::Component(c, "c"), f(fifo) {}
    void evaluate() override {
      if (!f.empty()) {
        f.pop();
        ++popped;
      }
    }
  };
  Pusher p(clk, f);
  Popper c(clk, f);
  s.run(1'000'000);  // 100 cycles
  EXPECT_LE(p.pushed, 51);
  EXPECT_GE(p.pushed, 49);
}

TEST(SyncFifo, DepthTwoStreamsAtFullRate) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "f", 2);

  struct Pusher : sim::Component {
    sim::SyncFifo<int>& f;
    int pushed = 0;
    Pusher(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
        : sim::Component(c, "p"), f(fifo) {}
    void evaluate() override {
      if (f.canPush()) {
        f.push(1);
        ++pushed;
      }
    }
  };
  struct Popper : sim::Component {
    sim::SyncFifo<int>& f;
    int popped = 0;
    Popper(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
        : sim::Component(c, "c"), f(fifo) {}
    void evaluate() override {
      if (!f.empty()) {
        f.pop();
        ++popped;
      }
    }
  };
  Pusher p(clk, f);
  Popper c(clk, f);
  s.run(1'000'000);  // 100 cycles
  // After a 2-cycle ramp the pipeline sustains one item per cycle.
  EXPECT_GE(c.popped, 97);
}

TEST(SyncFifo, PopAtRemovesOutOfOrder) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "f", 4);

  struct Driver : sim::Component {
    sim::SyncFifo<int>& f;
    int phase = 0;
    Driver(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
        : sim::Component(c, "drv"), f(fifo) {}
    void evaluate() override {
      switch (phase++) {
        case 0:
          f.push(10);
          f.push(20);
          f.push(30);
          break;
        case 1:
          ASSERT_EQ(f.size(), 3u);
          EXPECT_EQ(f.at(1), 20);
          EXPECT_EQ(f.popAt(1), 20);  // lookahead-style OOO service
          EXPECT_EQ(f.size(), 2u);
          EXPECT_EQ(f.front(), 10);
          break;
        case 2:
          EXPECT_EQ(f.pop(), 10);
          EXPECT_EQ(f.pop(), 30);
          break;
        default:
          break;
      }
    }
  };
  Driver d(clk, f);
  s.run(100'000);
  EXPECT_GE(d.phase, 3);
}

TEST(SyncFifo, ObserverReportsEdgeInfo) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "f", 2);

  // Each observed edge with the cycle it fired on.
  struct Seen {
    sim::ClockDomain* clk;
    std::vector<std::pair<sim::Cycle, sim::FifoEdgeInfo>> edges;
  } seen{&clk, {}};
  f.setObserver(
      [](void* ctx, const sim::FifoEdgeInfo& i) {
        auto* sn = static_cast<Seen*>(ctx);
        sn->edges.emplace_back(sn->clk->now(), i);
      },
      &seen);

  struct Driver : sim::Component {
    sim::SyncFifo<int>& f;
    int phase = 0;
    Driver(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
        : sim::Component(c, "drv"), f(fifo) {}
    void evaluate() override {
      if (phase == 0) f.push(7);
      if (phase == 2 && !f.empty()) f.pop();
      ++phase;
    }
  };
  Driver d(clk, f);
  s.run(40'000);  // 4 edges
  // Once per touched edge (1: push, 3: pop); never on the quiet edges 2, 4.
  ASSERT_EQ(seen.edges.size(), 2u);
  EXPECT_EQ(seen.edges[0].first, 1u);
  EXPECT_EQ(seen.edges[1].first, 3u);
  const sim::FifoEdgeInfo& push = seen.edges[0].second;
  EXPECT_EQ(push.pushed, 1u);
  EXPECT_EQ(push.occupancy_before, 0u);
  EXPECT_EQ(push.occupancy_after, 1u);
  const sim::FifoEdgeInfo& pop = seen.edges[1].second;
  EXPECT_EQ(pop.popped, 1u);
  EXPECT_EQ(pop.occupancy_before, 1u);
  EXPECT_EQ(pop.occupancy_after, 0u);
}

TEST(AsyncFifo, SynchronizationDelay) {
  sim::Simulator s;
  auto& prod = s.addClockDomain("prod", 200.0);  // 5 ns
  auto& cons = s.addClockDomain("cons", 100.0);  // 10 ns

  sim::AsyncFifo<int> f(prod, cons, "x", 8, 2);

  struct Producer : sim::Component {
    sim::AsyncFifo<int>& f;
    bool sent = false;
    Producer(sim::ClockDomain& c, sim::AsyncFifo<int>& fifo)
        : sim::Component(c, "p"), f(fifo) {}
    void evaluate() override {
      if (!sent && f.canPush()) {
        f.push(42);
        sent = true;
      }
    }
  };
  struct Consumer : sim::Component {
    sim::AsyncFifo<int>& f;
    sim::Picos got_at = 0;
    Consumer(sim::ClockDomain& c, sim::AsyncFifo<int>& fifo)
        : sim::Component(c, "c"), f(fifo) {}
    void evaluate() override {
      if (!got_at && f.canPop()) {
        EXPECT_EQ(f.pop(), 42);
        got_at = clk_.simulator().now();
      }
    }
  };
  Producer p(prod, f);
  Consumer c(cons, f);
  s.run(200'000);
  // Pushed at 5 ns (committed), visible after 2 consumer periods (20 ns),
  // so the earliest consumer edge that can read it is 30 ns.
  ASSERT_NE(c.got_at, 0u);
  EXPECT_GE(c.got_at, 25'000u);
}

TEST(Rng, DeterministicByNameAndSeed) {
  sim::Rng a(7, "node.port0");
  sim::Rng b(7, "node.port0");
  sim::Rng c(7, "node.port1");
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    auto x = a.uniformInt(0, 1'000'000);
    EXPECT_EQ(x, b.uniformInt(0, 1'000'000));
    if (x != c.uniformInt(0, 1'000'000)) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, CachedDiscreteDistributionMatchesPerCallConstruction) {
  // IPTG agents build their burst-length distribution once.  A draw must
  // depend only on the weights and the engine, so the cached distribution
  // yields the same index sequence as one rebuilt for every draw.  A single
  // weight is its own case: such a draw consumes no engine output at all.
  const std::vector<double> weight_sets[] = {{0.5, 2.0, 0.0, 1.25, 3.0}, {1.0}};
  for (const std::vector<double>& w : weight_sets) {
    sim::Rng cached_rng(11, "w");
    sim::Rng fresh_rng(11, "w");
    std::discrete_distribution<std::size_t> cached(w.begin(), w.end());
    std::vector<unsigned> seen(w.size(), 0);
    for (int i = 0; i < 1000; ++i) {
      std::discrete_distribution<std::size_t> fresh(w.begin(), w.end());
      const std::size_t k = cached(cached_rng.engine());
      ASSERT_EQ(k, fresh(fresh_rng.engine())) << "draw " << i;
      ++seen[k];
      // Interleaved draws of another kind keep both engines in lockstep.
      ASSERT_EQ(cached_rng.uniformInt(0, 99), fresh_rng.uniformInt(0, 99));
    }
    for (std::size_t k = 0; k < w.size(); ++k) {
      // A zero weight is never drawn; every other weight is.
      EXPECT_EQ(seen[k] == 0, w[k] == 0.0) << "index " << k;
    }
  }
}

TEST(Scheduler, RunUntilIdleStopsWhenComponentsIdle) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);

  struct Finite : sim::Component {
    int remaining = 10;
    using sim::Component::Component;
    void evaluate() override {
      if (remaining > 0) --remaining;
    }
    bool idle() const override { return remaining == 0; }
  };
  Finite f(clk, "finite");
  sim::Picos t = s.runUntilIdle(10'000'000);
  EXPECT_EQ(f.remaining, 0);
  EXPECT_LE(t, 120'000u);  // ~10 active cycles, not the full 10 ms
}

}  // namespace
