// Unit tests for the cache model and the ST220 core model.

#include <gtest/gtest.h>

#include "cpu/cache.hpp"
#include "cpu/st220.hpp"
#include "mem/simple_memory.hpp"
#include "sim/simulator.hpp"
#include "stbus/node.hpp"
#include "txn/ports.hpp"

namespace {

using namespace mpsoc;

cpu::CacheConfig smallCache() {
  cpu::CacheConfig c;
  c.size_bytes = 256;  // 2 sets x 4 ways x 32 B
  c.line_bytes = 32;
  c.ways = 4;
  return c;
}

TEST(Cache, HitAfterMiss) {
  cpu::Cache c(smallCache());
  auto r1 = c.access(0x100, false);
  EXPECT_FALSE(r1.hit);
  ASSERT_TRUE(r1.fill_addr.has_value());
  EXPECT_EQ(*r1.fill_addr, 0x100u);
  auto r2 = c.access(0x104, false);  // same line
  EXPECT_TRUE(r2.hit);
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEviction) {
  cpu::Cache c(smallCache());  // 2 sets, 4 ways
  // Fill all 4 ways of set 0 (addresses with the same set index).
  for (int w = 0; w < 4; ++w) {
    c.access(0x000 + static_cast<std::uint64_t>(w) * 64, false);
  }
  // Touch the first line again so it is MRU.
  EXPECT_TRUE(c.access(0x000, false).hit);
  // A 5th line evicts the LRU (the second line, 0x40).
  c.access(0x000 + 4 * 64, false);
  EXPECT_TRUE(c.access(0x000, false).hit);   // survived
  EXPECT_FALSE(c.access(0x040, false).hit);  // evicted
}

TEST(Cache, WriteBackMarksDirtyAndEmitsVictim) {
  cpu::Cache c(smallCache());
  c.access(0x000, true);  // allocate + dirty
  // Evict it by filling the set.
  cpu::CacheAccessResult victim_res;
  for (int w = 1; w <= 4; ++w) {
    victim_res = c.access(0x000 + static_cast<std::uint64_t>(w) * 64, false);
  }
  ASSERT_TRUE(victim_res.writeback_addr.has_value());
  EXPECT_EQ(*victim_res.writeback_addr, 0x000u);
}

TEST(Cache, InvalidateAll) {
  cpu::Cache c(smallCache());
  c.access(0x000, false);
  c.invalidateAll();
  EXPECT_FALSE(c.access(0x000, false).hit);
}

// ---------------------------------------------------------------------------

struct CpuRig {
  sim::Simulator sim;
  sim::ClockDomain& clk;
  stbus::StbusNode node;
  txn::TargetPort mport;
  mem::SimpleMemory memory;
  txn::InitiatorPort iport;
  cpu::St220 core;

  explicit CpuRig(cpu::St220Config cfg)
      : clk(sim.addClockDomain("cpu", 400.0)),
        node(clk, "n", stbus::StbusNodeConfig{}),
        mport(clk, "mem", 4, 8),
        memory(clk, "mem",
               (node.addTarget(mport, 0, 1ull << 30), mport),
               mem::SimpleMemoryConfig{1}),
        iport(clk, "cpu", 2, 8),
        core(clk, "st220",
             (node.addInitiator(iport), iport), cfg) {}
};

cpu::St220Config missyConfig() {
  cpu::St220Config cfg;
  cfg.total_bundles = 4000;
  cfg.code_footprint = 64 * 1024;   // >> 16 KiB icache
  cfg.data_footprint = 256 * 1024;  // >> 32 KiB dcache
  cfg.data_random_fraction = 0.5;
  return cfg;
}

TEST(St220, RunsToCompletionAndGeneratesMisses) {
  CpuRig rig(missyConfig());
  rig.sim.runUntilIdle(1'000'000'000'000ull);
  EXPECT_TRUE(rig.core.done());
  EXPECT_EQ(rig.core.bundlesExecuted(), 4000u);
  EXPECT_GT(rig.core.dcache().misses(), 50u);
  EXPECT_GT(rig.core.issued(), 50u);  // fills + writebacks on the bus
  EXPECT_EQ(rig.core.outstanding(), 0u);
  EXPECT_GT(rig.core.cpi(), 1.2);  // misses stall a blocking core
  EXPECT_GT(rig.core.stallCycles(), 0u);
}

TEST(St220, SmallFootprintMeansFewMissesAndLowCpi) {
  cpu::St220Config cfg;
  cfg.total_bundles = 40'000;      // long enough to amortise cold misses
  cfg.code_footprint = 8 * 1024;   // fits the icache
  cfg.data_footprint = 16 * 1024;  // fits the dcache
  cfg.data_random_fraction = 0.0;
  CpuRig rig(cfg);
  rig.sim.runUntilIdle(1'000'000'000'000ull);
  EXPECT_TRUE(rig.core.done());
  EXPECT_LT(rig.core.cpi(), 1.5);
  EXPECT_LT(rig.core.dcache().missRate(), 0.1);

  // Sanity: the same core over a thrashing footprint has a much worse CPI.
  CpuRig missy(missyConfig());
  missy.sim.runUntilIdle(1'000'000'000'000ull);
  EXPECT_GT(missy.core.cpi(), rig.core.cpi());
}

TEST(St220, DeterministicAcrossRuns) {
  CpuRig a(missyConfig());
  CpuRig b(missyConfig());
  const sim::Picos ta = a.sim.runUntilIdle(1'000'000'000'000ull);
  const sim::Picos tb = b.sim.runUntilIdle(1'000'000'000'000ull);
  EXPECT_EQ(ta, tb);
  EXPECT_EQ(a.core.issued(), b.core.issued());
  EXPECT_EQ(a.core.dcache().misses(), b.core.dcache().misses());
}

TEST(St220, WritebacksArePostedAndDoNotStall) {
  cpu::St220Config cfg = missyConfig();
  cfg.store_fraction = 0.4;  // plenty of dirty lines
  CpuRig rig(cfg);
  rig.sim.runUntilIdle(1'000'000'000'000ull);
  EXPECT_TRUE(rig.core.done());
  EXPECT_GT(rig.core.bytesWritten(), 0u);
}

}  // namespace
