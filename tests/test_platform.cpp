// Platform-level integration and property tests: every protocol x topology x
// memory combination must complete the reference workload, conserve
// transactions and bytes, and be deterministic.

#include <gtest/gtest.h>

#include <tuple>

#include "platform/platform.hpp"

namespace {

using namespace mpsoc;
using platform::MemoryKind;
using platform::Platform;
using platform::PlatformConfig;
using platform::Protocol;
using platform::Topology;

PlatformConfig smallConfig(Protocol p, Topology t, MemoryKind m) {
  PlatformConfig cfg;
  cfg.protocol = p;
  cfg.topology = t;
  cfg.memory = m;
  cfg.workload_scale = 0.1;  // keep unit tests fast
  // Every platform test runs fully monitored: protocol monitors on every
  // bus, mesh master port, bridge and memory (zero-false-positive property
  // across the whole matrix; a leak fails run()'s teardown audit).
  cfg.verify = true;
  return cfg;
}

using Combo = std::tuple<Protocol, Topology, MemoryKind>;

class PlatformMatrix : public ::testing::TestWithParam<Combo> {};

TEST_P(PlatformMatrix, CompletesAndConserves) {
  auto [proto, topo, memk] = GetParam();
  Platform p(smallConfig(proto, topo, memk));
  const sim::Picos t = p.run();
  EXPECT_TRUE(p.allDone()) << "workload did not finish";
  EXPECT_GT(t, 0u);

  const auto totals = p.totals();
  EXPECT_EQ(totals.issued, totals.retired);
  EXPECT_GT(totals.bytes_read, 0u);
  EXPECT_GT(totals.bytes_written, 0u);

  // Every byte of the workload reached the memory model.
  if (p.lmi()) {
    EXPECT_GT(p.lmi()->requestsServed(), 0u);
  } else {
    ASSERT_NE(p.onchipMemory(), nullptr);
    EXPECT_GT(p.onchipMemory()->accessesServed(), 0u);
  }

  // The FIFO probe partitions time exactly.
  const auto& b = p.memFifo().total();
  EXPECT_EQ(b.full + b.storing + b.no_request, b.cycles);
}

std::string comboName(const ::testing::TestParamInfo<Combo>& info) {
  const Protocol p = std::get<0>(info.param);
  const Topology t = std::get<1>(info.param);
  const MemoryKind m = std::get<2>(info.param);
  std::string s = platform::toString(p);
  s += "_";
  s += platform::toString(t);
  s += m == MemoryKind::OnChip ? "_onchip" : "_lmi";
  for (auto& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, PlatformMatrix,
    ::testing::Combine(::testing::Values(Protocol::Stbus, Protocol::Ahb,
                                         Protocol::Axi),
                       ::testing::Values(Topology::Full, Topology::Collapsed,
                                         Topology::SingleLayer,
                                         Topology::NocMesh),
                       ::testing::Values(MemoryKind::OnChip,
                                         MemoryKind::Lmi)),
    comboName);

TEST(Platform, ByteTotalsInvariantAcrossProtocols) {
  // The workload is defined in bytes; protocol and topology must not change
  // how much data moves (only how fast).
  std::uint64_t ref = 0;
  for (Protocol p : {Protocol::Stbus, Protocol::Ahb, Protocol::Axi}) {
    Platform plat(smallConfig(p, Topology::Full, MemoryKind::OnChip));
    plat.run();
    const auto t = plat.totals();
    const std::uint64_t bytes = t.bytes_read + t.bytes_written;
    if (ref == 0) ref = bytes;
    EXPECT_EQ(bytes, ref) << platform::toString(p);
  }
}

TEST(Platform, DeterministicRuns) {
  PlatformConfig cfg =
      smallConfig(Protocol::Stbus, Topology::Full, MemoryKind::Lmi);
  Platform a(cfg);
  Platform b(cfg);
  EXPECT_EQ(a.run(), b.run());
  EXPECT_EQ(a.totals().retired, b.totals().retired);
}

TEST(Platform, SeedChangesOutcome) {
  PlatformConfig cfg =
      smallConfig(Protocol::Stbus, Topology::Full, MemoryKind::Lmi);
  Platform a(cfg);
  cfg.seed = 999;
  Platform b(cfg);
  EXPECT_NE(a.run(), b.run());
}

TEST(Platform, CollapsedFoldsTheHotCluster) {
  Platform full(smallConfig(Protocol::Stbus, Topology::Full,
                            MemoryKind::OnChip));
  Platform coll(smallConfig(Protocol::Stbus, Topology::Collapsed,
                            MemoryKind::OnChip));
  // Full platform: N1, N5, N2 uplinks + cpu converter = 4 bridges.
  EXPECT_EQ(full.bridges().size(), 4u);
  // Collapsed: N5's uplink is gone.
  EXPECT_EQ(coll.bridges().size(), 3u);
}

TEST(Platform, SingleLayerHasNoBridges) {
  Platform p(smallConfig(Protocol::Stbus, Topology::SingleLayer,
                         MemoryKind::OnChip));
  EXPECT_TRUE(p.bridges().empty());
  p.run();
  EXPECT_TRUE(p.allDone());
}

TEST(Platform, LmiOnAxiSitsBehindConverter) {
  Platform p(smallConfig(Protocol::Axi, Topology::SingleLayer,
                         MemoryKind::Lmi));
  // Exactly one bridge: the memory protocol converter.
  EXPECT_EQ(p.bridges().size(), 1u);
  p.run();
  EXPECT_TRUE(p.allDone());
}

TEST(Platform, WorkloadScaleScalesBytes) {
  PlatformConfig small =
      smallConfig(Protocol::Stbus, Topology::Full, MemoryKind::OnChip);
  PlatformConfig big = small;
  big.workload_scale = 0.2;
  Platform a(small);
  Platform b(big);
  a.run();
  b.run();
  const auto ta = a.totals();
  const auto tb = b.totals();
  EXPECT_GT(tb.bytes_read + tb.bytes_written,
            static_cast<std::uint64_t>(
                1.5 * static_cast<double>(ta.bytes_read + ta.bytes_written)));
}

TEST(Platform, OverridesApplyToEveryAgent) {
  // The burst override reshapes the whole workload: forcing 4-beat bursts
  // multiplies the transaction count needed for the same byte total.
  PlatformConfig base =
      smallConfig(Protocol::Stbus, Topology::Full, MemoryKind::OnChip);
  PlatformConfig shortb = base;
  shortb.agent_burst_override_beats = 2;
  Platform a(base);
  Platform b(shortb);
  a.run();
  b.run();
  // Same transaction quotas, shorter bursts -> fewer bytes moved.
  EXPECT_LT(b.totals().bytes_read + b.totals().bytes_written,
            a.totals().bytes_read + a.totals().bytes_written);
  EXPECT_EQ(a.totals().retired, b.totals().retired);
}

TEST(Platform, OptionalDmaEngineCopiesTimeshiftBuffer) {
  PlatformConfig cfg =
      smallConfig(Protocol::Stbus, Topology::Full, MemoryKind::Lmi);
  cfg.include_dma = true;
  Platform p(cfg);
  p.run();
  EXPECT_TRUE(p.allDone());
  ASSERT_NE(p.dmaEngine(), nullptr);
  EXPECT_TRUE(p.dmaEngine()->done());
  EXPECT_GT(p.dmaEngine()->bytesCopied(), 0u);
  // DMA traffic shows up in the platform totals (reads + writes).
  Platform base(smallConfig(Protocol::Stbus, Topology::Full, MemoryKind::Lmi));
  base.run();
  EXPECT_GT(p.totals().bytes_read + p.totals().bytes_written,
            base.totals().bytes_read + base.totals().bytes_written);
}

TEST(Platform, RecordUseCaseShiftsTheMixTowardWrites) {
  PlatformConfig play =
      smallConfig(Protocol::Stbus, Topology::Full, MemoryKind::Lmi);
  PlatformConfig rec = play;
  rec.use_case = platform::UseCase::Record;
  Platform a(play);
  Platform b(rec);
  a.run();
  b.run();
  EXPECT_TRUE(a.allDone());
  EXPECT_TRUE(b.allDone());
  const auto ta = a.totals();
  const auto tb = b.totals();
  const double wr_share_play = static_cast<double>(ta.bytes_written) /
                               static_cast<double>(ta.bytes_read +
                                                   ta.bytes_written);
  const double wr_share_rec = static_cast<double>(tb.bytes_written) /
                              static_cast<double>(tb.bytes_read +
                                                  tb.bytes_written);
  EXPECT_GT(wr_share_rec, wr_share_play + 0.1);
}

TEST(Platform, ScratchpadAbsorbsCpuTrafficAndHelps) {
  PlatformConfig base =
      smallConfig(Protocol::Stbus, Topology::Full, MemoryKind::Lmi);
  base.workload_scale = 0.2;
  PlatformConfig with = base;
  with.include_scratchpad = true;

  Platform a(base);
  Platform b(with);
  const sim::Picos ta = a.run();
  const sim::Picos tb = b.run();
  EXPECT_TRUE(a.allDone());
  EXPECT_TRUE(b.allDone());
  ASSERT_NE(b.scratchpad(), nullptr);
  EXPECT_EQ(a.scratchpad(), nullptr);
  // The DSP's fills land on the scratchpad instead of the DDR.
  EXPECT_GT(b.scratchpad()->accessesServed(), 100u);
  EXPECT_LT(b.lmi()->requestsServed(), a.lmi()->requestsServed());
  // On-chip service makes the DSP (and usually the platform) faster.
  EXPECT_LT(b.dsp()->cpi(), a.dsp()->cpi());
  EXPECT_LE(tb, ta);
}

TEST(Platform, TwoPhaseRunProducesPhaseBuckets) {
  PlatformConfig cfg =
      smallConfig(Protocol::Stbus, Topology::Full, MemoryKind::Lmi);
  cfg.two_phase_workload = true;
  cfg.phase1_end_ps = 50'000'000;
  cfg.phase2_end_ps = 100'000'000;
  Platform p(cfg);
  p.runFor(100'000'000);
  ASSERT_EQ(p.memFifo().phaseCount(), 2u);
  EXPECT_GT(p.memFifo().phase(0).cycles, 0u);
  EXPECT_GT(p.memFifo().phase(1).cycles, 0u);
  EXPECT_GT(p.totals().issued, 0u);
}

}  // namespace
