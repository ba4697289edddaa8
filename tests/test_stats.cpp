// Unit tests for the statistics primitives, probes and report rendering.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "sim/component.hpp"
#include "sim/fifo.hpp"
#include "sim/simulator.hpp"
#include "stats/probes.hpp"
#include "stats/report.hpp"
#include "stats/stats.hpp"

namespace {

using namespace mpsoc;

TEST(Sampler, WelfordMoments) {
  stats::Sampler s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Sampler, EmptyIsSafe) {
  stats::Sampler s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Histogram, BinningAndOverflow) {
  stats::Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  h.add(-1.0);
  h.add(42.0);
  EXPECT_EQ(h.total(), 12u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  for (auto c : h.bins()) EXPECT_EQ(c, 1u);
  EXPECT_NEAR(h.quantile(0.5), 5.0, 1.01);
}

TEST(ChannelUtilization, CountsTransfersAndHeldCycles) {
  stats::ChannelUtilization ch;
  EXPECT_EQ(ch.transfers(), 0u);
  EXPECT_EQ(ch.held(), 0u);
  for (int i = 0; i < 50; ++i) ch.markTransfer();
  for (int i = 0; i < 30; ++i) ch.markHeld();
  EXPECT_EQ(ch.transfers(), 50u);
  EXPECT_EQ(ch.held(), 30u);
}

TEST(PhaseSchedule, LookupAndBounds) {
  stats::PhaseSchedule ps;
  ps.addPhase("a", 100, 200);
  ps.addPhase("b", 200, 400);
  EXPECT_EQ(ps.phaseAt(50), -1);
  EXPECT_EQ(ps.phaseAt(100), 0);
  EXPECT_EQ(ps.phaseAt(199), 0);
  EXPECT_EQ(ps.phaseAt(200), 1);
  EXPECT_EQ(ps.phaseAt(400), -1);
  EXPECT_EQ(ps.count(), 2u);
  EXPECT_EQ(ps.phase(1).name, "b");
}

// Scripted request FIFO (capacity 2) for the lazy-probe test: pushes on
// edges 1 and 2, pops on edges 3 and 9, nothing on any other edge.  It reads
// only the cycle counter, so it has no state of its own to checkpoint.
struct ScriptedFifoDriver : sim::Component {
  sim::SyncFifo<int>& f;
  ScriptedFifoDriver(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
      : sim::Component(c, "script"), f(fifo) {}
  void evaluate() override {
    const sim::Cycle c = clk_.now();
    if (c == 1 || c == 2) f.push(static_cast<int>(c));
    if (c == 3 || c == 9) f.pop();
  }
  SIM_STATE_NONE();
};

struct BucketCounts {
  std::uint64_t cycles, full, storing, no_request, empty;
};

void expectBuckets(const stats::FifoStateProbe::Buckets& b,
                   const BucketCounts& want) {
  EXPECT_EQ(b.cycles, want.cycles);
  EXPECT_EQ(b.full, want.full);
  EXPECT_EQ(b.storing, want.storing);
  EXPECT_EQ(b.no_request, want.no_request);
  EXPECT_EQ(b.empty, want.empty);
  EXPECT_EQ(b.occupancy.count(), want.cycles);
}

// The observer fires on the touched edges 1, 2, 3 and 9 only.  The probe
// settles the quiet runs in between itself: edges 4-8 at occupancy 1, which
// cross the phase boundary at 55 ns, and edges 10+ at occupancy 0.
TEST(FifoStateProbe, SettlesQuietCyclesAcrossPhasesAndRewinds) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);  // edge c at c * 10 ns
  sim::SyncFifo<int> f(clk, "req", 2);
  stats::PhaseSchedule phases;
  phases.addPhase("a", 0, 55'000);          // edges 1-5
  phases.addPhase("b", 55'000, 1'000'000);  // edges 6+
  stats::FifoStateProbe probe;
  probe.attach(f, &phases);
  s.addCheckpointable(&probe);
  ScriptedFifoDriver script(clk, f);

  // Edges 1-7, read in the middle of the quiet run 4-8.  Edges 1-2 store
  // (occupancy 0, 1), edge 3 is full (occupancy 2), edges 4-7 have no
  // request (occupancy 1).
  s.run(70'000);
  {
    SCOPED_TRACE("mid quiet run, edge 7");
    expectBuckets(probe.total(), {7, 1, 2, 4, 1});
    expectBuckets(probe.phase(0), {5, 1, 2, 2, 1});
    expectBuckets(probe.phase(1), {2, 0, 0, 2, 0});
    // A read settles a copy: reading again gives the same buckets.
    expectBuckets(probe.total(), {7, 1, 2, 4, 1});
    EXPECT_DOUBLE_EQ(probe.total().occupancy.mean(), 1.0);
  }

  // Rewind-and-replay edges 8-11: the window takes in the pop at edge 9 and
  // ends inside the quiet run after it.  Each pass settles edges 4-8 at the
  // pop, from the last observed edge (3) the checkpoint restored.
  const auto div = s.replayCheck(4);
  EXPECT_FALSE(div) << div->holder;
  {
    SCOPED_TRACE("after the quiet run, edge 11");
    // Edge 9 pops at occupancy 1: no request.  Edges 10-11 are empty.
    expectBuckets(probe.total(), {11, 1, 2, 8, 3});
    expectBuckets(probe.phase(0), {5, 1, 2, 2, 1});
    expectBuckets(probe.phase(1), {6, 0, 0, 6, 2});
  }

  s.run(150'000);  // edges 12-15, all quiet
  {
    SCOPED_TRACE("end of run, edge 15");
    const stats::FifoStateProbe::Buckets b = probe.total();
    expectBuckets(b, {15, 1, 2, 12, 7});
    // Occupancy per edge: 0, 1, 2, then 1 x 6 (edges 4-9), then 0 x 6.
    EXPECT_DOUBLE_EQ(b.occupancy.mean(), 9.0 / 15.0);
    EXPECT_EQ(b.occupancy.max(), 2.0);
    expectBuckets(probe.phase(0), {5, 1, 2, 2, 1});
    expectBuckets(probe.phase(1), {10, 0, 0, 10, 6});
  }
}

TEST(LatencyProbe, RecordsNanoseconds) {
  stats::LatencyProbe p;
  p.record(1'000, 3'000);   // 2 ns
  p.record(2'000, 8'000);   // 6 ns
  p.record(9'000, 1'000);   // negative: ignored
  EXPECT_EQ(p.latencyNs().count(), 2u);
  EXPECT_DOUBLE_EQ(p.latencyNs().mean(), 4.0);
}

TEST(TextTable, AlignedPrintAndCsv) {
  stats::TextTable t("demo");
  t.setHeader({"name", "value"});
  t.addRow({"alpha", "1"});
  t.addRow({"b", "23456"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);

  std::ostringstream csv;
  t.printCsv(csv);
  EXPECT_EQ(csv.str(), "name,value\nalpha,1\nb,23456\n");
}

TEST(Format, FixedAndPercent) {
  EXPECT_EQ(stats::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(stats::fmt(2.0, 0), "2");
  EXPECT_EQ(stats::fmtPct(0.4712), "47.1%");
}

}  // namespace
