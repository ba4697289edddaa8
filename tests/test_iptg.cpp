// IPTG behaviour tests: statistical profiles, sequence mode, inter-agent
// synchronisation, message grouping, phase overrides, determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "iptg/iptg.hpp"
#include "sim/simulator.hpp"
#include "txn/ports.hpp"

namespace {

using namespace mpsoc;

// Sink that records everything and answers immediately.
class RecordingSink : public sim::Component {
 public:
  RecordingSink(sim::ClockDomain& clk, txn::InitiatorPort& port)
      : sim::Component(clk, "sink"), port_(port) {}
  void evaluate() override {
    while (!port_.req.empty() && port_.rsp.canPush()) {
      auto r = port_.req.pop();
      seen.push_back(r);
      if (r->posted && r->op == txn::Opcode::Write) continue;
      auto rsp = std::make_shared<txn::Response>();
      rsp->req = r;
      rsp->beats = 1;
      rsp->sched.first_beat = clk_.simulator().now() + clk_.period();
      rsp->sched.beat_period = clk_.period();
      port_.rsp.push(rsp);
    }
  }
  txn::InitiatorPort& port_;
  std::vector<txn::RequestPtr> seen;
};

struct IptgRig {
  sim::Simulator sim;
  sim::ClockDomain& clk;
  txn::InitiatorPort port;
  RecordingSink sink;
  iptg::Iptg gen;

  explicit IptgRig(iptg::IptgConfig cfg, const std::string& name = "g")
      : clk(sim.addClockDomain("clk", 200.0)), port(clk, "p", 4, 8),
        sink(clk, port), gen(clk, name, port, std::move(cfg)) {}

  void run() { sim.runUntilIdle(1'000'000'000'000ull); }
};

TEST(Iptg, BurstMixFollowsWeights) {
  iptg::IptgConfig cfg;
  iptg::AgentProfile a;
  a.name = "a";
  a.burst_beats = {{4, 0.25}, {8, 0.75}};
  a.total_transactions = 800;
  a.outstanding = 4;
  cfg.agents.push_back(a);
  IptgRig rig(cfg);
  rig.run();
  ASSERT_EQ(rig.sink.seen.size(), 800u);
  std::map<std::uint32_t, int> counts;
  for (const auto& r : rig.sink.seen) counts[r->beats]++;
  EXPECT_NEAR(counts[4] / 800.0, 0.25, 0.06);
  EXPECT_NEAR(counts[8] / 800.0, 0.75, 0.06);
}

TEST(Iptg, SequentialAddressesWrapInRegion) {
  iptg::IptgConfig cfg;
  cfg.bytes_per_beat = 4;
  iptg::AgentProfile a;
  a.name = "a";
  a.burst_beats = {{8, 1.0}};  // 32 B per burst
  a.pattern = iptg::AddressPattern::Sequential;
  a.base_addr = 0x1000;
  a.region_size = 0x100;  // 8 bursts per lap
  a.total_transactions = 20;
  cfg.agents.push_back(a);
  IptgRig rig(cfg);
  rig.run();
  ASSERT_EQ(rig.sink.seen.size(), 20u);
  EXPECT_EQ(rig.sink.seen[0]->addr, 0x1000u);
  EXPECT_EQ(rig.sink.seen[1]->addr, 0x1020u);
  EXPECT_EQ(rig.sink.seen[8]->addr, 0x1000u);  // wrapped
  for (const auto& r : rig.sink.seen) {
    EXPECT_GE(r->addr, 0x1000u);
    EXPECT_LE(r->endAddr(), 0x1100u);
  }
}

TEST(Iptg, RandomAddressesStayInRegion) {
  iptg::IptgConfig cfg;
  cfg.bytes_per_beat = 8;
  iptg::AgentProfile a;
  a.name = "a";
  a.burst_beats = {{8, 1.0}};
  a.pattern = iptg::AddressPattern::Random;
  a.base_addr = 0x4000;
  a.region_size = 0x1000;
  a.total_transactions = 200;
  cfg.agents.push_back(a);
  IptgRig rig(cfg);
  rig.run();
  for (const auto& r : rig.sink.seen) {
    EXPECT_GE(r->addr, 0x4000u);
    EXPECT_LE(r->endAddr(), 0x5000u);
  }
}

TEST(Iptg, SequenceModeReplaysExactly) {
  iptg::IptgConfig cfg;
  iptg::AgentProfile a;
  a.name = "trace";
  a.sequence = {
      {txn::Opcode::Read, 0x100, 4, 0},
      {txn::Opcode::Write, 0x200, 8, 2},
      {txn::Opcode::Read, 0x300, 1, 0},
  };
  cfg.agents.push_back(a);
  IptgRig rig(cfg);
  rig.run();
  ASSERT_EQ(rig.sink.seen.size(), 3u);
  EXPECT_EQ(rig.sink.seen[0]->addr, 0x100u);
  EXPECT_EQ(rig.sink.seen[0]->beats, 4u);
  EXPECT_EQ(rig.sink.seen[1]->op, txn::Opcode::Write);
  EXPECT_EQ(rig.sink.seen[2]->addr, 0x300u);
  EXPECT_TRUE(rig.gen.done());
}

TEST(Iptg, SyncPointDelaysDependentAgent) {
  // A producer quota below after_count (a scaled-down workload) releases the
  // consumer once the producer has retired all of it.
  for (const std::uint64_t quota : {20u, 6u}) {
    iptg::IptgConfig cfg;
    iptg::AgentProfile producer;
    producer.name = "prod";
    producer.burst_beats = {{4, 1.0}};
    producer.total_transactions = quota;
    producer.gap_min = 4;
    producer.gap_max = 4;
    iptg::AgentProfile consumer;
    consumer.name = "cons";
    consumer.burst_beats = {{4, 1.0}};
    consumer.total_transactions = 10;
    consumer.after_agent = 0;
    consumer.after_count = 10;
    consumer.base_addr = 0x10000;
    cfg.agents = {producer, consumer};
    IptgRig rig(cfg);
    rig.run();
    EXPECT_TRUE(rig.gen.done()) << "producer quota " << quota;
    // The consumer's first request must come after the producer's 10th (or
    // its last).
    const std::uint64_t needed = std::min<std::uint64_t>(quota, 10);
    std::uint64_t prod_seen = 0;
    bool consumer_started_early = false;
    for (const auto& r : rig.sink.seen) {
      if (r->addr >= 0x10000) {
        if (prod_seen < needed) consumer_started_early = true;
      } else {
        ++prod_seen;
      }
    }
    EXPECT_FALSE(consumer_started_early) << "producer quota " << quota;
  }
}

TEST(Iptg, MessageGroupingTagsRuns) {
  iptg::IptgConfig cfg;
  iptg::AgentProfile a;
  a.name = "a";
  a.burst_beats = {{4, 1.0}};
  a.message_len = 4;
  a.total_transactions = 16;
  cfg.agents.push_back(a);
  IptgRig rig(cfg);
  rig.run();
  ASSERT_EQ(rig.sink.seen.size(), 16u);
  std::map<std::uint64_t, int> msg_sizes;
  for (const auto& r : rig.sink.seen) {
    EXPECT_NE(r->msg_id, 0u);
    msg_sizes[r->msg_id]++;
  }
  EXPECT_EQ(msg_sizes.size(), 4u);
  for (const auto& [id, n] : msg_sizes) EXPECT_EQ(n, 4);
}

TEST(Iptg, PhaseOverrideChangesPacing) {
  // Phase 1 saturating, phase 2 heavily gapped: the issue rate in equal
  // windows must drop by a large factor.
  iptg::IptgConfig cfg;
  iptg::AgentProfile a;
  a.name = "a";
  a.burst_beats = {{4, 1.0}};
  a.total_transactions = 0;  // unbounded
  a.outstanding = 4;
  iptg::PhaseOverride p1{0, 500'000, 1.0, 0, 0};
  iptg::PhaseOverride p2{500'000, 1'000'000, 1.0, 100, 100};
  a.phases = {p1, p2};
  cfg.agents.push_back(a);
  IptgRig rig(cfg);
  rig.sim.run(500'000);
  const std::size_t phase1_count = rig.sink.seen.size();
  rig.sim.run(1'000'000);
  const std::size_t phase2_count = rig.sink.seen.size() - phase1_count;
  EXPECT_GT(phase1_count, 10u);
  EXPECT_LT(static_cast<double>(phase2_count),
            0.3 * static_cast<double>(phase1_count));
}

TEST(Iptg, DeterministicWithSeedVariationAcrossSeeds) {
  iptg::IptgConfig cfg;
  cfg.seed = 7;
  iptg::AgentProfile a;
  a.name = "a";
  a.burst_beats = {{4, 0.5}, {8, 0.5}};
  a.pattern = iptg::AddressPattern::Random;
  a.total_transactions = 100;
  cfg.agents.push_back(a);

  IptgRig r1(cfg), r2(cfg);
  r1.run();
  r2.run();
  ASSERT_EQ(r1.sink.seen.size(), r2.sink.seen.size());
  for (std::size_t i = 0; i < r1.sink.seen.size(); ++i) {
    EXPECT_EQ(r1.sink.seen[i]->addr, r2.sink.seen[i]->addr);
    EXPECT_EQ(r1.sink.seen[i]->beats, r2.sink.seen[i]->beats);
  }

  iptg::IptgConfig other = cfg;
  other.seed = 8;
  IptgRig r3(other);
  r3.run();
  bool any_diff = false;
  for (std::size_t i = 0; i < r1.sink.seen.size(); ++i) {
    if (r1.sink.seen[i]->addr != r3.sink.seen[i]->addr) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
