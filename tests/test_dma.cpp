// DMA engine tests: descriptor chains, read-then-write data movement,
// posted and acknowledged write modes.

#include <gtest/gtest.h>

#include <memory>

#include "dma/dma.hpp"
#include "noc/mesh.hpp"
#include "mem/simple_memory.hpp"
#include "sim/simulator.hpp"
#include "stbus/node.hpp"
#include "txn/ports.hpp"

namespace {

using namespace mpsoc;

struct DmaRig {
  sim::Simulator sim;
  sim::ClockDomain& clk;
  stbus::StbusNode node;
  txn::TargetPort mport;
  mem::SimpleMemory memory;
  txn::InitiatorPort iport;
  dma::DmaEngine engine;

  explicit DmaRig(dma::DmaConfig cfg)
      : clk(sim.addClockDomain("bus", 200.0)),
        node(clk, "n", stbus::StbusNodeConfig{}),
        mport(clk, "mem", 4, 8),
        memory(clk, "mem", (node.addTarget(mport, 0, 1ull << 32), mport),
               mem::SimpleMemoryConfig{1}),
        iport(clk, "dma", 2, 8),
        engine(clk, "dma", (node.addInitiator(iport), iport), cfg) {}

  sim::Picos run() { return sim.runUntilIdle(1'000'000'000'000ull); }
};

TEST(DmaEngine, CopiesSingleDescriptor) {
  dma::DmaConfig cfg;
  DmaRig rig(cfg);
  rig.engine.program({0x1000, 0x8000, 4096});
  rig.run();
  EXPECT_TRUE(rig.engine.done());
  EXPECT_EQ(rig.engine.bytesCopied(), 4096u);
  EXPECT_EQ(rig.engine.descriptorsCompleted(), 1u);
  // Every byte crosses the bus twice: 4096/8 beats read + the same written.
  EXPECT_EQ(rig.memory.beatsServed(), 2u * 4096u / 8u);
}

TEST(DmaEngine, HandlesUnalignedTail) {
  dma::DmaConfig cfg;
  cfg.burst_beats = 16;  // 128 B granule
  DmaRig rig(cfg);
  rig.engine.program({0x0, 0x9000, 300});  // 2 full slices + 44 B tail
  rig.run();
  EXPECT_TRUE(rig.engine.done());
  EXPECT_EQ(rig.engine.bytesCopied(), 304u);  // rounded up to whole beats
}

TEST(DmaEngine, ScatterGatherChainCompletesInOrder) {
  dma::DmaConfig cfg;
  DmaRig rig(cfg);
  std::vector<std::uint64_t> completed;
  rig.engine.setCompletionCallback([&](const dma::DmaDescriptor& d) {
    completed.push_back(d.src);
  });
  rig.engine.program({{0x0000, 0x10000, 512},
                      {0x2000, 0x20000, 1024},
                      {0x4000, 0x30000, 256}});
  rig.run();
  EXPECT_TRUE(rig.engine.done());
  EXPECT_EQ(rig.engine.descriptorsCompleted(), 3u);
  ASSERT_EQ(completed.size(), 3u);
  EXPECT_EQ(completed[0], 0x0000u);
  EXPECT_EQ(completed[1], 0x2000u);
  EXPECT_EQ(completed[2], 0x4000u);
}

TEST(DmaEngine, NonPostedWritesAlsoComplete) {
  dma::DmaConfig cfg;
  cfg.posted_writes = false;
  DmaRig rig(cfg);
  rig.engine.program({0x1000, 0x8000, 2048});
  rig.run();
  EXPECT_TRUE(rig.engine.done());
  EXPECT_EQ(rig.engine.bytesCopied(), 2048u);
}

TEST(DmaEngine, CopiesAcrossANocMesh) {
  // Cross-substrate composition: the DMA engine's port attaches to a NoC
  // adapter instead of a bus, and moves a buffer between two memories on
  // opposite mesh corners.
  sim::Simulator sim;
  auto& clk = sim.addClockDomain("noc", 400.0);
  noc::NocMesh mesh(clk, "noc", {3, 3, {}, 4});

  txn::TargetPort src_p(clk, "src", 4, 8);
  txn::TargetPort dst_p(clk, "dst", 4, 8);
  mem::SimpleMemory src_mem(clk, "srcm", src_p, {1});
  mem::SimpleMemory dst_mem(clk, "dstm", dst_p, {1});
  mesh.attachSlave(src_p, mesh.node(0, 0), 0x0000'0000, 1 << 24);
  mesh.attachSlave(dst_p, mesh.node(2, 2), 0x1000'0000, 1 << 24);

  txn::InitiatorPort ip(clk, "dma", 2, 8);
  mesh.attachMaster(ip, mesh.node(1, 1));
  dma::DmaConfig cfg;
  dma::DmaEngine engine(clk, "dma", ip, cfg);
  engine.program({0x0000'0000, 0x1000'0000, 8192});

  sim.runUntilIdle(1'000'000'000'000ull);
  EXPECT_TRUE(engine.done());
  EXPECT_EQ(engine.bytesCopied(), 8192u);
  EXPECT_EQ(src_mem.beatsServed(), 8192u / 8u);  // reads
  EXPECT_EQ(dst_mem.beatsServed(), 8192u / 8u);  // writes
}

TEST(DmaEngine, NoWorkMeansImmediatelyDone) {
  dma::DmaConfig cfg;
  DmaRig rig(cfg);
  rig.run();
  EXPECT_TRUE(rig.engine.done());
  EXPECT_EQ(rig.engine.bytesCopied(), 0u);
}

}  // namespace
