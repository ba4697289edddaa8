// Tests for state manifests, kernel checkpointing and the MPSOC_STATECHECK
// checkpoint-equivalence oracle (sim/state.hpp, platform/platform.cpp).
//
// The contract: Simulator::checkpoint() snapshots every component (via its
// generated SIM_STATE saveState()), every registered Updatable (the FIFO
// rings) and every out-of-graph Checkpointable; restoreCheckpoint() rewinds
// the simulation so that re-running the same window of edges reproduces
// bit-identical state digests.  A member missing from its manifest breaks
// exactly that equivalence — the planted rig below proves the divergence is
// caught and attributed to the guilty component, deterministically.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/digest.hpp"
#include "core/experiment.hpp"
#include "platform/config.hpp"
#include "platform/platform.hpp"
#include "sim/component.hpp"
#include "sim/fifo.hpp"
#include "sim/simulator.hpp"
#include "sim/state.hpp"

namespace {

using namespace mpsoc;

using DigestItems = std::vector<std::pair<std::string, std::uint64_t>>;

platform::PlatformConfig fig3Small() {
  platform::PlatformConfig cfg;
  cfg.protocol = platform::Protocol::Stbus;
  cfg.topology = platform::Topology::Full;
  cfg.memory = platform::MemoryKind::OnChip;
  cfg.onchip_wait_states = 1;
  cfg.workload_scale = 0.25;
  return cfg;
}

// Enabling the oracle must not perturb results: digests match the unchecked
// run bit-for-bit.  (When the
// build has MPSOC_STATECHECK=OFF the flag is a no-op and this still holds.)
TEST(StateCheck, OracleFlagDoesNotPerturbResults) {
  platform::PlatformConfig cfg = fig3Small();
  const std::uint64_t plain =
      core::digestValue(core::runScenario(cfg, "fig3-small"));
  cfg.statecheck = true;
  cfg.statecheck_at_ps = 200'000;
  cfg.statecheck_edges = 500;
  EXPECT_EQ(plain, core::digestValue(core::runScenario(cfg, "fig3-small")));
}

// ---------------------------------------------------------------------------
// Kernel checkpoint primitives (always compiled; the MPSOC_STATECHECK option
// only gates the platform-level oracle).
// ---------------------------------------------------------------------------

// A SyncFifo's ring, occupancy registration and in-flight staged ops are part
// of the checkpoint: rewinding mid-stream must replay the identical drain
// sequence the first pass observed.
TEST(StateCheck, FifoCheckpointRoundTripReplaysIdenticalStream) {
  struct Producer : sim::Component {
    sim::SyncFifo<int>& f;
    int next_ = 0;
    Producer(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
        : sim::Component(c, "prod"), f(fifo) {}
    void evaluate() override {
      if (f.canPush()) f.push(next_++);
    }
    SIM_STATE_MEMBERS(next_);
  };
  struct Consumer : sim::Component {
    sim::SyncFifo<int>& f;
    std::vector<int> got_;
    Consumer(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
        : sim::Component(c, "cons"), f(fifo) {}
    void evaluate() override {
      if (!f.empty()) got_.push_back(f.pop());
    }
    SIM_STATE_MEMBERS(got_);
  };
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "pipe", 4);
  Producer p(clk, f);
  Consumer c(clk, f);

  s.run(200'000);  // stream mid-flight: the ring is partially full
  s.checkpoint();
  const std::vector<int> at_ckpt = c.got_;

  for (int i = 0; i < 50 && s.step(); ++i) {
  }
  const std::vector<int> first_pass = c.got_;
  ASSERT_GT(first_pass.size(), at_ckpt.size());

  s.restoreCheckpoint();
  EXPECT_EQ(c.got_, at_ckpt);
  for (int i = 0; i < 50 && s.step(); ++i) {
  }
  EXPECT_EQ(c.got_, first_pass);
}

// Checkpoint equivalence holds for a well-manifested component: the window
// digests are bit-identical between the first pass and the replay.
TEST(StateCheck, ManifestedComponentReplaysBitIdentically) {
  struct Counter : sim::Component {
    std::uint64_t acc_ = 0;
    std::uint64_t step_ = 1;
    using sim::Component::Component;
    void evaluate() override {
      acc_ += step_;
      step_ = (step_ * 5 + 1) % 97;
    }
    SIM_STATE_MEMBERS(acc_, step_);
  };
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  Counter cnt(clk, "counter");
  s.run(100'000);
  s.checkpoint();
  for (int i = 0; i < 200 && s.step(); ++i) {
  }
  DigestItems first;
  s.stateDigestItems(first);
  s.restoreCheckpoint();
  for (int i = 0; i < 200 && s.step(); ++i) {
  }
  DigestItems second;
  s.stateDigestItems(second);
  EXPECT_EQ(first, second);
}

// ---------------------------------------------------------------------------
// Planted incompleteness: the exact defect class the unmanifested-state lint
// rule and the statecheck oracle exist to catch.
// ---------------------------------------------------------------------------

// A component whose evaluate() depends on a member its manifest omits.
// restoreCheckpoint() rewinds acc_ but not hidden_, so the replayed window
// accumulates different values and the component's own digest item diverges.
struct LeakyRun {
  DigestItems first;
  DigestItems second;
  std::string divergent;  // label of the first diverging digest item
};

LeakyRun runLeakyRig() {
  struct Leaky : sim::Component {
    std::uint64_t acc_ = 0;
    std::uint64_t hidden_ = 0;  // deliberately missing from the manifest
    using sim::Component::Component;
    void evaluate() override { acc_ += ++hidden_; }
    SIM_STATE_MEMBERS(acc_);
  };
  LeakyRun out;
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  Leaky bad(clk, "leaky");
  s.run(100'000);
  s.checkpoint();
  for (int i = 0; i < 100 && s.step(); ++i) {
  }
  s.stateDigestItems(out.first);
  s.restoreCheckpoint();
  for (int i = 0; i < 100 && s.step(); ++i) {
  }
  s.stateDigestItems(out.second);
  for (std::size_t i = 0; i < out.first.size(); ++i) {
    if (out.first[i].second != out.second[i].second) {
      out.divergent = out.first[i].first;
      break;
    }
  }
  return out;
}

TEST(StateCheck, PlantedUnmanifestedMemberDivergesAndIsAttributed) {
  const LeakyRun run = runLeakyRig();
  ASSERT_EQ(run.first.size(), run.second.size());
  ASSERT_FALSE(run.divergent.empty())
      << "replayed window matched despite the unmanifested member";
  // The first diverging item names the guilty component, not some innocent
  // downstream holder: that attribution is what makes the oracle's report
  // actionable.
  EXPECT_EQ(run.divergent, "clk:leaky");
}

TEST(StateCheck, PlantedDivergenceReportIsDeterministic) {
  const LeakyRun a = runLeakyRig();
  const LeakyRun b = runLeakyRig();
  EXPECT_EQ(a.divergent, b.divergent);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// ---------------------------------------------------------------------------
// Deep-check replay coverage (the other consumer of the SIM_STATE
// manifests): with every component manifested and every FIFO payload
// snapshot-capable, no edge of the full reference platform may be skipped.
// ---------------------------------------------------------------------------

TEST(StateCheck, DeepCheckReplaysEveryEdgeOnFullPlatform) {
  platform::PlatformConfig cfg = fig3Small();
  cfg.workload_scale = 0.1;
  // Monitors stay off: deep-check commits the *replay* pass's staged work,
  // whose re-issued requests draw fresh ids from the simulator's counter,
  // while tap-based monitors only observe the forward pass — their id books
  // would go stale by construction.  Deep-check pairs with the id-free
  // digest oracle; the statecheck oracle is the one that composes with
  // monitors (it rewinds their books via saveCheckpoint/restoreCheckpoint).
  platform::Platform p(cfg);
  p.simulator().setDeepCheck(true);
  p.run();
  const sim::Simulator::DeepCheckStats& st = p.simulator().deepCheckStats();
  EXPECT_GT(st.replayed_edges, 0u);
  EXPECT_EQ(st.skipped_edges, 0u)
      << st.skipped_edges << " of " << st.replayed_edges + st.skipped_edges
      << " edges not replayable: some component or FIFO payload lost its "
         "snapshot support";
}

#if MPSOC_STATECHECK

// ---------------------------------------------------------------------------
// The platform-level oracle: checkpoint mid-run, execute a window, rewind,
// re-execute, compare every labeled digest.  Green across the full reference
// platform, fully monitored.
// ---------------------------------------------------------------------------

TEST(StateCheck, FullPlatformOracleGreen) {
  platform::PlatformConfig cfg = fig3Small();
  cfg.verify = true;
  cfg.statecheck = true;
  cfg.statecheck_at_ps = 200'000;
  cfg.statecheck_edges = 500;
  platform::Platform p(cfg);
  EXPECT_NO_THROW(p.run());
}

// The oracle window must also hold on the LMI/DDR platform, whose controller
// carries the deepest state (reorder queues, bank timing, refresh).
TEST(StateCheck, LmiPlatformOracleGreen) {
  platform::PlatformConfig cfg = fig3Small();
  cfg.memory = platform::MemoryKind::Lmi;
  cfg.verify = true;
  cfg.statecheck = true;
  cfg.statecheck_at_ps = 200'000;
  cfg.statecheck_edges = 500;
  platform::Platform p(cfg);
  EXPECT_NO_THROW(p.run());
}

#endif  // MPSOC_STATECHECK

}  // namespace
