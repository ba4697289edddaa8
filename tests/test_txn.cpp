// Unit tests for the transaction model, address decoding, arbitration
// policies and the MasterBase machinery.

#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "txn/arbiter.hpp"
#include "txn/master.hpp"
#include "txn/ports.hpp"
#include "txn/transaction.hpp"

namespace {

using namespace mpsoc;

TEST(Transaction, IdsAreUnique) {
  sim::Simulator s;
  auto a = s.nextTransactionId();
  auto b = s.nextTransactionId();
  EXPECT_NE(a, b);
  EXPECT_GT(b, a);
  // Each simulation owns its counter: another simulator's draws neither
  // perturb nor depend on this one's.
  sim::Simulator other;
  EXPECT_EQ(other.nextTransactionId(), a);
}

TEST(Transaction, RepackBeatsPreservesBytes) {
  // 8 beats x 4 B = 32 B -> 4 beats x 8 B
  EXPECT_EQ(txn::repackBeats(8, 4, 8), 4u);
  // upsize with remainder rounds up: 3 x 4 B = 12 B -> 2 x 8 B
  EXPECT_EQ(txn::repackBeats(3, 4, 8), 2u);
  // downsize: 4 x 8 B -> 8 x 4 B
  EXPECT_EQ(txn::repackBeats(4, 8, 4), 8u);
  // same width: identity
  EXPECT_EQ(txn::repackBeats(7, 4, 4), 7u);
}

TEST(Transaction, BeatScheduleArithmetic) {
  txn::BeatSchedule s{1000, 250};
  EXPECT_EQ(s.beatTime(0), 1000u);
  EXPECT_EQ(s.beatTime(4), 2000u);
  EXPECT_EQ(s.lastBeat(1), 1000u);
  EXPECT_EQ(s.lastBeat(8), 2750u);
}

TEST(AddressMap, FirstMatchWins) {
  txn::AddressMap m;
  m.add(0x0000, 0x1000, 0);
  m.add(0x1000, 0x1000, 1);
  m.add(0x0800, 0x1000, 2);  // overlapping; earlier region wins
  EXPECT_EQ(m.lookup(0x0000).value(), 0u);
  EXPECT_EQ(m.lookup(0x0FFF).value(), 0u);
  EXPECT_EQ(m.lookup(0x1000).value(), 1u);
  EXPECT_EQ(m.lookup(0x1800).value(), 1u);
  EXPECT_FALSE(m.lookup(0x5000).has_value());
}

TEST(Arbiter, FixedPriorityHighestWinsTiesToLowestIndex) {
  txn::Arbiter arb(txn::ArbPolicy::FixedPriority);
  EXPECT_EQ(arb.pick({{2, 1}, {0, 3}, {1, 3}}, 4).value(), 0u);
  EXPECT_EQ(arb.pick({{3, 0}, {2, 0}}, 4).value(), 2u);
  EXPECT_FALSE(arb.pick({}, 4).has_value());
}

TEST(Arbiter, LeastRecentlyUsedEqualises) {
  txn::Arbiter arb(txn::ArbPolicy::LeastRecentlyUsed);
  std::vector<txn::Arbiter::Candidate> all{{0, 0}, {1, 0}, {2, 0}};
  std::vector<int> grants(3, 0);
  for (sim::Cycle t = 1; t <= 30; ++t) {
    auto w = arb.pick(all, 3, t);
    grants[*w]++;
  }
  EXPECT_EQ(grants[0], 10);
  EXPECT_EQ(grants[1], 10);
  EXPECT_EQ(grants[2], 10);
}

TEST(Arbiter, LruPrefersLongestWaiting) {
  txn::Arbiter arb(txn::ArbPolicy::LeastRecentlyUsed);
  // Grant 0 and 1, then offer all three: 2 (never granted) must win.
  (void)arb.pick({{0, 0}}, 3, 1);
  (void)arb.pick({{1, 0}}, 3, 2);
  auto w = arb.pick({{0, 0}, {1, 0}, {2, 0}}, 3, 3);
  EXPECT_EQ(*w, 2u);
}

TEST(Arbiter, TdmaOwnerWinsItsSlot) {
  txn::Arbiter arb(txn::ArbPolicy::Tdma);
  arb.setTdmaSlot(10);
  std::vector<txn::Arbiter::Candidate> all{{0, 0}, {1, 0}, {2, 0}};
  // Cycles 0..9 belong to 0, 10..19 to 1, 20..29 to 2.
  EXPECT_EQ(*arb.pick(all, 3, 5), 0u);
  EXPECT_EQ(*arb.pick(all, 3, 15), 1u);
  EXPECT_EQ(*arb.pick(all, 3, 25), 2u);
  EXPECT_EQ(*arb.pick(all, 3, 35), 0u);  // wraps
}

TEST(Arbiter, TdmaReclaimsUnusedSlots) {
  txn::Arbiter arb(txn::ArbPolicy::Tdma);
  arb.setTdmaSlot(10);
  // Owner (index 0) is not requesting: somebody else must still be granted
  // (work-conserving behaviour).
  auto w = arb.pick({{1, 0}, {2, 0}}, 3, 5);
  ASSERT_TRUE(w.has_value());
  EXPECT_NE(*w, 0u);
}

TEST(Arbiter, LotteryFollowsTicketWeights) {
  txn::Arbiter arb(txn::ArbPolicy::Lottery, /*seed=*/99);
  // Index 1 holds 8 tickets vs 1 ticket for index 0: it must win the vast
  // majority of draws.
  std::vector<txn::Arbiter::Candidate> all{{0, 0}, {1, 7}};
  int wins1 = 0;
  for (int i = 0; i < 400; ++i) {
    if (*arb.pick(all, 2, static_cast<sim::Cycle>(i)) == 1u) ++wins1;
  }
  EXPECT_GT(wins1, 320);  // expectation 8/9 ~ 355
  EXPECT_LT(wins1, 400);  // but not deterministic starvation
}

TEST(Arbiter, RoundRobinRotates) {
  txn::Arbiter arb(txn::ArbPolicy::RoundRobin);
  std::vector<txn::Arbiter::Candidate> all{{0, 0}, {1, 0}, {2, 0}};
  EXPECT_EQ(arb.pick(all, 3).value(), 1u);  // after initial last=0
  EXPECT_EQ(arb.pick(all, 3).value(), 2u);
  EXPECT_EQ(arb.pick(all, 3).value(), 0u);
  EXPECT_EQ(arb.pick(all, 3).value(), 1u);
  // Skips absent requesters.
  EXPECT_EQ(arb.pick({{0, 0}}, 3).value(), 0u);
}

// A master that issues a fixed list of requests as fast as allowed.
class ScriptedMaster : public txn::MasterBase {
 public:
  ScriptedMaster(sim::ClockDomain& clk, txn::InitiatorPort& port,
                 unsigned max_outstanding, int reads, int posted_writes)
      : txn::MasterBase(clk, "m", port, max_outstanding), reads_(reads),
        posted_(posted_writes) {}

  void evaluate() override {
    collectResponses();
    if (reads_ > 0 && canIssue()) {
      auto r = std::make_shared<txn::Request>();
      r->id = clk_.simulator().nextTransactionId();
      r->op = txn::Opcode::Read;
      r->beats = 4;
      issue(r);
      --reads_;
      return;
    }
    if (posted_ > 0 && canIssuePosted()) {
      auto r = std::make_shared<txn::Request>();
      r->id = clk_.simulator().nextTransactionId();
      r->op = txn::Opcode::Write;
      r->posted = true;
      r->beats = 4;
      issue(r);
      --posted_;
    }
  }
  int reads_;
  int posted_;
};

// Immediately answers everything pushed into the request FIFO.
class Echo : public sim::Component {
 public:
  Echo(sim::ClockDomain& clk, txn::InitiatorPort& port)
      : sim::Component(clk, "echo"), port_(port) {}
  void evaluate() override {
    while (!port_.req.empty() && port_.rsp.canPush()) {
      auto r = port_.req.pop();
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
};

TEST(MasterBase, OutstandingLimitAndPostedBypass) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  txn::InitiatorPort port(clk, "p", 8, 8);
  ScriptedMaster m(clk, port, /*max_outstanding=*/2, /*reads=*/6,
                   /*posted=*/5);
  Echo e(clk, port);
  s.run(10'000'000);
  EXPECT_EQ(m.issued(), 11u);
  EXPECT_EQ(m.retired(), 11u);  // posted writes retire at issue
  EXPECT_EQ(m.outstanding(), 0u);
  EXPECT_GT(m.bytesRead(), 0u);
  EXPECT_GT(m.bytesWritten(), 0u);
  EXPECT_EQ(m.latency().latencyNs().count(), 6u);  // only awaited reads
}

}  // namespace
