// Tests for the scenario-file parser and the windowed FIFO-state timeline.

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "iptg/iptg.hpp"
#include "mem/simple_memory.hpp"
#include "platform/scenario_parser.hpp"
#include "sim/simulator.hpp"
#include "stats/probes.hpp"
#include "stbus/node.hpp"
#include "txn/ports.hpp"

#ifndef MPSOC_SCENARIO_DIR
#error "MPSOC_SCENARIO_DIR must point at tools/scenarios"
#endif

namespace {

using namespace mpsoc;

TEST(ScenarioParser, ParsesEveryKnob) {
  const auto sc = platform::parseScenario(R"(
name = my-scenario
protocol = axi
topology = collapsed
memory = lmi
wait_states = 4
stbus_type = 2
arbitration = lru
message_arbitration = false
lightweight_bridges = true
mem_bridge_split = false
lmi_lookahead = 7
lmi_merging = false
lmi_divider = 3
mem_fifo_depth = 12
workload_scale = 0.25
outstanding_override = 2
burst_override = 4
include_cpu = false
two_phase = true
duration_ps = 500000000
noc_width = 4
noc_height = 2
master_limit = 3
cpu_mhz = 312.5
seed = 77
)");
  EXPECT_EQ(sc.name, "my-scenario");
  const auto& c = sc.config;
  EXPECT_EQ(c.protocol, platform::Protocol::Axi);
  EXPECT_EQ(c.topology, platform::Topology::Collapsed);
  EXPECT_EQ(c.memory, platform::MemoryKind::Lmi);
  EXPECT_EQ(c.onchip_wait_states, 4u);
  EXPECT_EQ(c.stbus_type, stbus::StbusType::T2);
  EXPECT_EQ(c.arbitration, txn::ArbPolicy::LeastRecentlyUsed);
  EXPECT_FALSE(c.message_arbitration);
  EXPECT_TRUE(c.force_lightweight_bridges);
  EXPECT_FALSE(c.mem_bridge_split);
  EXPECT_EQ(c.lmi.lookahead, 7u);
  EXPECT_FALSE(c.lmi.opcode_merging);
  EXPECT_EQ(c.lmi.clock_divider, 3u);
  EXPECT_EQ(c.mem_fifo_depth, 12u);
  EXPECT_DOUBLE_EQ(c.workload_scale, 0.25);
  EXPECT_EQ(c.agent_outstanding_override, 2u);
  EXPECT_EQ(c.agent_burst_override_beats, 4u);
  EXPECT_FALSE(c.include_cpu);
  EXPECT_TRUE(c.two_phase_workload);
  EXPECT_EQ(sc.duration_ps, 500'000'000u);
  EXPECT_EQ(c.noc_width, 4u);
  EXPECT_EQ(c.noc_height, 2u);
  EXPECT_EQ(c.master_limit, 3u);
  EXPECT_DOUBLE_EQ(c.cpu_mhz, 312.5);
  EXPECT_EQ(c.seed, 77u);
}

TEST(ScenarioParser, DefaultsAreUntouched) {
  const auto sc = platform::parseScenario("protocol = ahb\n");
  EXPECT_EQ(sc.config.protocol, platform::Protocol::Ahb);
  EXPECT_EQ(sc.config.topology, platform::Topology::Full);
  EXPECT_EQ(sc.config.memory, platform::MemoryKind::OnChip);
  EXPECT_TRUE(sc.config.message_arbitration);
}

TEST(ScenarioParser, ErrorsCarryLineNumbers) {
  EXPECT_THROW(
      {
        try {
          platform::parseScenario("protocol = stbus\nbogus = 1\n");
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
  EXPECT_THROW(platform::parseScenario("protocol = pci\n"),
               std::runtime_error);
  EXPECT_THROW(platform::parseScenario("stbus_type = 4\n"),
               std::runtime_error);
  EXPECT_THROW(platform::parseScenario("topology\n"), std::runtime_error);
}

TEST(ScenarioParser, ShippedScenariosLoad) {
  // Every scenario file under tools/scenarios must stay parseable.
  std::vector<std::filesystem::path> files;
  for (const auto& e :
       std::filesystem::directory_iterator(MPSOC_SCENARIO_DIR)) {
    if (e.path().extension() == ".scn") files.push_back(e.path());
  }
  EXPECT_GE(files.size(), 5u) << "scenarios missing from " MPSOC_SCENARIO_DIR;
  for (const auto& path : files) {
    EXPECT_NO_THROW(platform::loadScenario(path.string())) << path;
  }
}

// ---------------------------------------------------------------------------

TEST(Timeline, TracksFifoRegimes) {
  // A generator with a saturating phase then silence: the memory FIFO's
  // windowed classes must tell the two regimes apart.
  sim::Simulator sim;
  auto& clk = sim.addClockDomain("bus", 200.0);
  stbus::StbusNode node(clk, "n", {});
  txn::TargetPort mp(clk, "mem", 4, 8);
  node.addTarget(mp, 0, 1ull << 30);
  mem::SimpleMemory memory(clk, "mem", mp, {3});
  txn::InitiatorPort ip(clk, "m", 2, 8);
  node.addInitiator(ip);
  iptg::IptgConfig cfg;
  cfg.bytes_per_beat = 8;
  iptg::AgentProfile p;
  p.name = "a";
  p.burst_beats = {{8, 1.0}};
  p.outstanding = 4;
  p.total_transactions = 200;
  cfg.agents.push_back(p);
  iptg::Iptg gen(clk, "g", ip, cfg);

  // Fig. 6 classes per 500-cycle window (2.5 us at 200 MHz).
  constexpr sim::Picos kWindowPs = 2'500'000;
  stats::PhaseSchedule windows;
  for (sim::Picos t = 0; t < 50'000'000; t += kWindowPs) {
    windows.addPhase("w", t, t + kWindowPs);
  }
  stats::FifoStateProbe probe;
  probe.attach(mp.req, &windows);

  sim.run(50'000'000);  // 10k cycles; traffic ends long before
  ASSERT_EQ(probe.phaseCount(), 20u);
  const auto& first = probe.phase(0);
  const auto& last = probe.phase(probe.phaseCount() - 1);
  // Early windows store requests; the last window sees none at all.
  EXPECT_GT(first.storing, 0u);
  EXPECT_DOUBLE_EQ(last.fracNoRequest(), 1.0);
  EXPECT_GT(first.occupancy.mean(), last.occupancy.mean());
}

}  // namespace
