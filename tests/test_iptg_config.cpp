// Tests for the IPTG configuration-file parser and trace capture/replay.

#include <gtest/gtest.h>

#include <sstream>
#include <utility>

#include "iptg/config_parser.hpp"
#include "iptg/iptg.hpp"
#include "iptg/trace.hpp"
#include "mem/simple_memory.hpp"
#include "sim/simulator.hpp"
#include "stbus/node.hpp"
#include "txn/ports.hpp"

namespace {

using namespace mpsoc;

TEST(IptgConfigParser, ParsesFullConfig) {
  const std::string text = R"(
# video capture IP
bytes_per_beat = 8
seed = 42

[agent capture]
read_fraction = 0.0
bursts = 16:0.5, 8:0.5
pattern = sequential
base_addr = 0x80000000
region_size = 0x100000
outstanding = 8
posted_writes = true
priority = 3
message_len = 4
total_transactions = 1000
gap = 10..20

[agent display]
read_fraction = 1.0
bursts = 16
pattern = strided
stride = 256
after = capture:16
total_transactions = 500
)";
  const auto cfg = iptg::parseIptgConfig(text);
  EXPECT_EQ(cfg.bytes_per_beat, 8u);
  EXPECT_EQ(cfg.seed, 42u);
  ASSERT_EQ(cfg.agents.size(), 2u);

  const auto& cap = cfg.agents[0];
  EXPECT_EQ(cap.name, "capture");
  EXPECT_DOUBLE_EQ(cap.read_fraction, 0.0);
  ASSERT_EQ(cap.burst_beats.size(), 2u);
  EXPECT_EQ(cap.burst_beats[0].beats, 16u);
  EXPECT_DOUBLE_EQ(cap.burst_beats[1].weight, 0.5);
  EXPECT_EQ(cap.base_addr, 0x8000'0000u);
  EXPECT_EQ(cap.region_size, 0x10'0000u);
  EXPECT_EQ(cap.outstanding, 8u);
  EXPECT_TRUE(cap.posted_writes);
  EXPECT_EQ(cap.priority, 3);
  EXPECT_EQ(cap.message_len, 4u);
  EXPECT_EQ(cap.total_transactions, 1000u);
  EXPECT_EQ(cap.gap_min, 10u);
  EXPECT_EQ(cap.gap_max, 20u);

  const auto& disp = cfg.agents[1];
  EXPECT_EQ(disp.pattern, iptg::AddressPattern::Strided);
  EXPECT_EQ(disp.stride, 256u);
  EXPECT_EQ(disp.after_agent, 0);
  EXPECT_EQ(disp.after_count, 16u);
  ASSERT_EQ(disp.burst_beats.size(), 1u);
  EXPECT_DOUBLE_EQ(disp.burst_beats[0].weight, 1.0);
}

TEST(IptgConfigParser, ParsesSequenceMode) {
  const auto cfg = iptg::parseIptgConfig(R"(
[agent trace]
sequence = R:0x1000:8, W:0x2000:4:2, r:16:1
)");
  ASSERT_EQ(cfg.agents.size(), 1u);
  const auto& seq = cfg.agents[0].sequence;
  ASSERT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq[0].op, txn::Opcode::Read);
  EXPECT_EQ(seq[0].addr, 0x1000u);
  EXPECT_EQ(seq[0].beats, 8u);
  EXPECT_EQ(seq[1].op, txn::Opcode::Write);
  EXPECT_EQ(seq[1].gap_cycles, 2u);
  EXPECT_EQ(seq[2].addr, 16u);
}

TEST(IptgConfigParser, ErrorsCarryLineNumbers) {
  EXPECT_THROW(
      {
        try {
          iptg::parseIptgConfig("bytes_per_beat = 8\nbogus_key = 1\n");
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
  EXPECT_THROW(iptg::parseIptgConfig("[agent a]\nbursts = 0:1.0\n"),
               std::runtime_error);
  EXPECT_THROW(iptg::parseIptgConfig("[agent a]\npattern = diagonal\n"),
               std::runtime_error);
  EXPECT_THROW(iptg::parseIptgConfig("[agent a]\nafter = ghost:4\n"),
               std::runtime_error);
  EXPECT_THROW(iptg::parseIptgConfig("[agent a]\nafter = a:4\n"),
               std::runtime_error);
  EXPECT_THROW(iptg::parseIptgConfig("[agent a]\ngap = 20..10\n"),
               std::runtime_error);
  EXPECT_THROW(iptg::parseIptgConfig("[bus x]\n"), std::runtime_error);
  // Probabilities, burst weights and sequence beats out of range are named,
  // with the line.
  for (const char* text :
       {"[agent a]\nread_fraction = 7\n", "[agent a]\nthrottle = nan\n",
        "[agent a]\nbursts = 8:-1.0\n", "[agent a]\nbursts = 4:0, 8:0\n",
        "[agent a]\nsequence = W:0x0:0, R:0x40:4\n"}) {
    try {
      iptg::parseIptgConfig(text);
      ADD_FAILURE() << "accepted " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("iptg config, line 2: ", 0), 0u)
          << e.what();
    }
  }
  // priority is 8 bits wide: 300 is out of range, not 44.
  try {
    iptg::parseIptgConfig("[agent a]\npriority = 300\n");
    ADD_FAILURE() << "accepted priority = 300";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2: number out of range"), std::string::npos)
        << what;
  }
}

// A number with a junk suffix is reported as such, not as "not a number",
// and the message keeps the IPTG grammar's own prefix.
TEST(IptgConfigParser, TrailingCharactersAreNamed) {
  for (const char* text : {"[agent a]\nread_fraction = 0.5x\n",
                           "[agent a]\noutstanding = 4k\n"}) {
    try {
      iptg::parseIptgConfig(text);
      FAIL() << "accepted " << text;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("iptg config, line 2: ", 0), 0u) << what;
      EXPECT_NE(what.find("trailing characters"), std::string::npos) << what;
    }
  }
}

TEST(IptgConfigParser, ParsedConfigDrivesAGenerator) {
  const auto cfg = iptg::parseIptgConfig(R"(
bytes_per_beat = 8
[agent a]
bursts = 8
total_transactions = 40
outstanding = 4
)");
  sim::Simulator sim;
  auto& clk = sim.addClockDomain("bus", 200.0);
  stbus::StbusNode node(clk, "n", {});
  txn::TargetPort mp(clk, "mem", 4, 8);
  node.addTarget(mp, 0, 1ull << 30);
  mem::SimpleMemory memory(clk, "mem", mp, {1});
  txn::InitiatorPort ip(clk, "m", 2, 8);
  node.addInitiator(ip);
  iptg::Iptg gen(clk, "g", ip, cfg);
  sim.runUntilIdle(1'000'000'000'000ull);
  EXPECT_TRUE(gen.done());
  EXPECT_EQ(gen.retired(), 40u);
}

// ---------------------------------------------------------------------------

TEST(Trace, RoundTripThroughText) {
  iptg::TraceRecorder rec;
  auto mkreq = [](txn::Opcode op, std::uint64_t addr, std::uint32_t beats) {
    auto r = std::make_shared<txn::Request>();
    r->op = op;
    r->addr = addr;
    r->beats = beats;
    r->bytes_per_beat = 8;
    r->source = "unit";
    return r;
  };
  rec.record(1000, mkreq(txn::Opcode::Read, 0x100, 8));
  rec.record(9000, mkreq(txn::Opcode::Write, 0x200, 4));

  std::ostringstream os;
  rec.write(os);
  std::istringstream is(os.str());
  const auto parsed = iptg::parseTrace(is);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].time_ps, 1000u);
  EXPECT_EQ(parsed[0].op, txn::Opcode::Read);
  EXPECT_EQ(parsed[0].addr, 0x100u);
  EXPECT_EQ(parsed[1].beats, 4u);
  EXPECT_EQ(parsed[1].source, "unit");
}

TEST(Trace, RejectsMalformedLines) {
  std::istringstream is("123 X 0x10 4 8 src\n");
  EXPECT_THROW(iptg::parseTrace(is), std::runtime_error);
  std::istringstream is2("not-a-number R 0x10 4 8\n");
  EXPECT_THROW(iptg::parseTrace(is2), std::runtime_error);
  // Junk after an address and a negative beat count are named with their
  // line instead of reading as 0x10 and 4294967295; a record of no beat is
  // named too.
  const std::pair<const char*, const char*> cases[] = {
      {"0 R 0x0 4 8 src\n123 R 0x10zz 4 8 src\n",
       "line 2: trailing characters in '0x10zz'"},
      {"123 R 0x10 -1 8 src\n", "line 1: number out of range: '-1'"},
      {"0 R 0x0 4 8 src\n123 W 0x10 0 8 src\n",
       "line 2: beats must be positive"}};
  for (const auto& [text, want] : cases) {
    std::istringstream is_bad(text);
    try {
      iptg::parseTrace(is_bad);
      ADD_FAILURE() << "accepted " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
  }
}

TEST(Trace, SequenceFromTraceReconstructsGaps) {
  std::vector<iptg::TraceRecord> tr(3);
  tr[0] = {0, txn::Opcode::Read, 0x0, 8, 8, "a"};
  tr[1] = {50'000, txn::Opcode::Read, 0x40, 8, 8, "a"};  // 10 cycles @ 5 ns
  tr[2] = {55'000, txn::Opcode::Write, 0x80, 4, 8, "a"};
  const auto prof = iptg::sequenceFromTrace(tr, 5'000);
  ASSERT_EQ(prof.sequence.size(), 3u);
  EXPECT_EQ(prof.sequence[0].gap_cycles, 10u);
  EXPECT_EQ(prof.sequence[1].gap_cycles, 1u);
  EXPECT_EQ(prof.sequence[2].gap_cycles, 0u);
}

TEST(Trace, CaptureAndReplayMoveTheSameBytes) {
  // Capture at the memory of a statistical run, replay the trace through a
  // fresh rig, and check the memory sees the same transaction stream.
  auto runOnce = [](const iptg::IptgConfig& cfg, iptg::TraceRecorder* rec) {
    sim::Simulator sim;
    auto& clk = sim.addClockDomain("bus", 200.0);
    stbus::StbusNode node(clk, "n", {});
    txn::TargetPort mp(clk, "mem", 4, 8);
    node.addTarget(mp, 0, 1ull << 30);
    mem::SimpleMemory memory(clk, "mem", mp, {1});
    if (rec) rec->attach(mp);
    txn::InitiatorPort ip(clk, "m", 2, 8);
    node.addInitiator(ip);
    iptg::Iptg gen(clk, "g", ip, cfg);
    sim.runUntilIdle(1'000'000'000'000ull);
    return memory.beatsServed();
  };

  iptg::IptgConfig stat_cfg;
  stat_cfg.bytes_per_beat = 8;
  iptg::AgentProfile a;
  a.name = "a";
  a.burst_beats = {{8, 0.5}, {4, 0.5}};
  a.read_fraction = 0.7;
  a.pattern = iptg::AddressPattern::Random;
  a.region_size = 1 << 16;
  a.total_transactions = 100;
  a.outstanding = 2;
  stat_cfg.agents.push_back(a);

  iptg::TraceRecorder rec;
  const std::uint64_t beats_original = runOnce(stat_cfg, &rec);
  ASSERT_EQ(rec.records().size(), 100u);

  iptg::IptgConfig replay_cfg;
  replay_cfg.bytes_per_beat = 8;
  replay_cfg.agents.push_back(
      iptg::sequenceFromTrace(rec.records(), sim::periodFromMhz(200.0)));
  const std::uint64_t beats_replayed = runOnce(replay_cfg, nullptr);
  EXPECT_EQ(beats_replayed, beats_original);
}

}  // namespace
