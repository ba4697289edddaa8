// Property sweep over the bridge configuration space: every combination of
// read policy, width conversion and clock ratio must move every transaction
// exactly once, preserve byte counts, and terminate.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "bridge/bridge.hpp"
#include "iptg/iptg.hpp"
#include "mem/simple_memory.hpp"
#include "sim/simulator.hpp"
#include "stbus/node.hpp"
#include "txn/ports.hpp"

namespace {

using namespace mpsoc;

// (split_reads, width_a, width_b, mhz_a, mhz_b)
using BridgeParam =
    std::tuple<bool, std::uint32_t, std::uint32_t, double, double>;

class BridgeMatrix : public ::testing::TestWithParam<BridgeParam> {};

TEST_P(BridgeMatrix, ConservesTransactionsAndBytes) {
  const auto [split, wa, wb, mhz_a, mhz_b] = GetParam();

  sim::Simulator sim;
  auto& clk_a = sim.addClockDomain("a", mhz_a);
  auto& clk_b = sim.addClockDomain("b", mhz_b);

  stbus::StbusNode na(clk_a, "na", {});
  stbus::StbusNode nb(clk_b, "nb", {});

  bridge::BridgeConfig bc;
  bc.split_reads = split;
  bc.max_outstanding_reads = 4;
  bc.width_a_bytes = wa;
  bc.width_b_bytes = wb;
  bc.latency_a_cycles = 2;
  bc.latency_b_cycles = 2;
  bridge::Bridge br(clk_a, clk_b, "br", bc);
  na.addTarget(br.slavePort(), 0, 1ull << 30);
  nb.addInitiator(br.masterPort());

  txn::TargetPort mp(clk_b, "mem", 4, 8);
  nb.addTarget(mp, 0, 1ull << 30);
  mem::SimpleMemory memory(clk_b, "mem", mp, {1});

  constexpr std::uint64_t kTxns = 60;
  std::vector<std::unique_ptr<txn::InitiatorPort>> ports;
  std::vector<std::unique_ptr<iptg::Iptg>> gens;
  for (int i = 0; i < 2; ++i) {
    ports.push_back(std::make_unique<txn::InitiatorPort>(
        clk_a, "m" + std::to_string(i), 2, 8));
    na.addInitiator(*ports.back());
    iptg::IptgConfig cfg;
    cfg.seed = 2 + i;
    cfg.bytes_per_beat = wa;
    iptg::AgentProfile p;
    p.name = "a";
    p.read_fraction = 0.6;
    p.burst_beats = {{8, 0.5}, {4, 0.5}};
    p.pattern = iptg::AddressPattern::Random;
    p.base_addr = (1ull << 22) * i;
    p.region_size = 1 << 20;
    p.outstanding = 3;
    p.total_transactions = kTxns;
    cfg.agents.push_back(p);
    gens.push_back(std::make_unique<iptg::Iptg>(
        clk_a, "g" + std::to_string(i), *ports.back(), cfg));
  }

  sim.runUntilIdle(1'000'000'000'000ull);

  std::uint64_t issued_bytes = 0;
  for (const auto& g : gens) {
    EXPECT_TRUE(g->done());
    EXPECT_EQ(g->retired(), kTxns);
    EXPECT_EQ(g->outstanding(), 0u);
    issued_bytes += g->bytesRead() + g->bytesWritten();
  }
  EXPECT_EQ(br.readsForwarded() + br.writesForwarded(), 2 * kTxns);
  // Width conversion rounds bursts up to whole beats; the memory must see at
  // least the issued bytes and at most one extra beat per transaction.
  const std::uint64_t mem_bytes = memory.beatsServed() * wb;
  EXPECT_GE(mem_bytes, issued_bytes);
  EXPECT_LE(mem_bytes, issued_bytes + 2 * kTxns * wb);
  EXPECT_TRUE(br.idle());
}

std::string bridgeParamName(const ::testing::TestParamInfo<BridgeParam>& info) {
  const bool split = std::get<0>(info.param);
  const std::uint32_t wa = std::get<1>(info.param);
  const std::uint32_t wb = std::get<2>(info.param);
  const double ma = std::get<3>(info.param);
  const double mb = std::get<4>(info.param);
  // Every bridge acknowledges side-A writes on absorption ("earlyack").
  std::string s = split ? "split_earlyack" : "blocking_earlyack";
  s += "_w" + std::to_string(wa) + "to" + std::to_string(wb);
  s += "_f" + std::to_string(static_cast<int>(ma)) + "to" +
       std::to_string(static_cast<int>(mb));
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BridgeMatrix,
    ::testing::Combine(::testing::Bool(),               // split reads
                       ::testing::Values(4u, 8u),       // width A
                       ::testing::Values(4u, 8u),       // width B
                       ::testing::Values(200.0),        // MHz A
                       ::testing::Values(100.0, 250.0)  // MHz B
                       ),
    bridgeParamName);

}  // namespace
