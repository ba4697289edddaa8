// Tests for state manifests, kernel checkpointing and the
// checkpoint-equivalence oracle Simulator::replayCheck (sim/state.hpp,
// sim/simulator.cpp) with its platform caller, the statecheck oracle
// (platform/platform.cpp), plus the statecheck config rules.
//
// The contract: Simulator::checkpoint() snapshots every component (via its
// generated SIM_STATE saveState()), every registered Updatable (the FIFO
// rings), every out-of-graph Checkpointable (through the same manifests) and
// the kernel's own state, transaction-id counter included;
// restoreCheckpoint() rewinds the simulation so that re-running the same
// window of edges reproduces bit-identical state digests.  A member missing
// from its manifest breaks exactly that equivalence — the planted rigs below
// prove the divergence is caught and attributed to the guilty holder,
// deterministically.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/digest.hpp"
#include "core/experiment.hpp"
#include "platform/config.hpp"
#include "platform/platform.hpp"
#include "platform/scenario_parser.hpp"
#include "platform/validate.hpp"
#include "sim/check.hpp"
#include "sim/component.hpp"
#include "sim/fifo.hpp"
#include "sim/simulator.hpp"
#include "sim/state.hpp"

namespace {

using namespace mpsoc;

platform::PlatformConfig fig3Small() {
  platform::PlatformConfig cfg;
  cfg.protocol = platform::Protocol::Stbus;
  cfg.topology = platform::Topology::Full;
  cfg.memory = platform::MemoryKind::OnChip;
  cfg.onchip_wait_states = 1;
  cfg.workload_scale = 0.25;
  return cfg;
}

// Enabling the oracle must not perturb results: the replayed window ends in
// the state the first pass reached, so digests match the unchecked run
// bit-for-bit.
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
// Kernel checkpoint primitives.
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
  const sim::Picos start = s.now();
  const std::optional<sim::ReplayDivergence> div = s.replayCheck(200);
  EXPECT_FALSE(div) << div->holder << " diverged";
  EXPECT_GT(s.now(), start);  // the run continues from the window's end
}

// Transaction ids are kernel state: a component that draws one id per edge
// re-draws the very same ids after a rewind, and the replayed window digests
// identically with the ids in the canon.
struct IdIssuer : sim::Component {
  std::vector<std::uint64_t> ids_;
  using sim::Component::Component;
  void evaluate() override {
    ids_.push_back(clk().simulator().nextTransactionId());
  }
  SIM_STATE_MEMBERS(ids_);
};

TEST(StateCheck, RewoundWindowReissuesTheSameTransactionIds) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  IdIssuer issuer(clk, "issuer");
  s.run(100'000);
  s.checkpoint();
  const std::vector<std::uint64_t> before = issuer.ids_;
  for (int i = 0; i < 20 && s.step(); ++i) {
  }
  const std::vector<std::uint64_t> first = issuer.ids_;
  ASSERT_EQ(first.size(), before.size() + 20);

  s.restoreCheckpoint();
  EXPECT_EQ(issuer.ids_, before);
  // The counter is back at its pre-window value: the next draw repeats the
  // window's first id, and the whole window replays the same sequence.
  for (int i = 0; i < 20 && s.step(); ++i) {
  }
  EXPECT_EQ(issuer.ids_, first);

  const std::optional<sim::ReplayDivergence> div = s.replayCheck(50);
  EXPECT_FALSE(div) << div->holder << " diverged";
}

// ---------------------------------------------------------------------------
// Planted incompleteness: the exact defect class the unmanifested-state lint
// rule and the statecheck oracle exist to catch.
// ---------------------------------------------------------------------------

// A component whose evaluate() depends on a member its manifest omits.
// restoreCheckpoint() rewinds acc_ but not hidden_, so the replayed window
// accumulates different values and the component's own digest item diverges.
struct Leaky : sim::Component {
  std::uint64_t acc_ = 0;
  std::uint64_t hidden_ = 0;  // deliberately missing from the manifest
  using sim::Component::Component;
  void evaluate() override { acc_ += ++hidden_; }
  SIM_STATE_MEMBERS(acc_);
};

std::optional<sim::ReplayDivergence> runLeakyRig() {
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  Leaky bad(clk, "leaky");
  s.run(100'000);
  return s.replayCheck(100);
}

TEST(StateCheck, PlantedUnmanifestedMemberDivergesAndIsAttributed) {
  const std::optional<sim::ReplayDivergence> div = runLeakyRig();
  ASSERT_TRUE(div)
      << "replayed window matched despite the unmanifested member";
  // The first diverging item names the guilty component, not some innocent
  // downstream holder: that attribution is what makes the oracle's report
  // actionable.
  EXPECT_EQ(div->holder, "clk:leaky");
  EXPECT_NE(div->first, div->replay);
}

TEST(StateCheck, PlantedDivergenceReportIsDeterministic) {
  const std::optional<sim::ReplayDivergence> a = runLeakyRig();
  const std::optional<sim::ReplayDivergence> b = runLeakyRig();
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->holder, b->holder);
  EXPECT_EQ(a->first, b->first);
  EXPECT_EQ(a->replay, b->replay);
}

// The same defect in an out-of-graph observer: a Checkpointable rewinds
// through its own SIM_STATE manifest, so a member left out of it diverges and
// is attributed to the observer's aux#<index>:<name> digest item.
struct LeakyObserver final : sim::Checkpointable {
  std::uint64_t seen_ = 0;
  std::uint64_t hidden_ = 0;  // deliberately missing from the manifest
  void observe() { seen_ += ++hidden_; }
  std::string checkpointName() const override { return "leaky-observer"; }
  SIM_STATE_MEMBERS(seen_);
};

struct Observed : sim::Component {
  LeakyObserver& obs;
  Observed(sim::ClockDomain& c, LeakyObserver& o)
      : sim::Component(c, "observed"), obs(o) {}
  void evaluate() override { obs.observe(); }
  SIM_STATE_NONE();
};

TEST(StateCheck, PlantedCheckpointableLeakIsAttributedToItsAuxItem) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  LeakyObserver obs;
  s.addCheckpointable(&obs);
  Observed driver(clk, obs);
  s.run(100'000);
  const std::optional<sim::ReplayDivergence> div = s.replayCheck(100);
  ASSERT_TRUE(div) << "replayed window matched despite the unmanifested "
                      "observer member";
  EXPECT_EQ(div->holder, "aux#0:leaky-observer");
}

// With verify on, every protocol monitor is a digest item of its own, after
// the FIFO probe (aux#0).
TEST(StateCheck, VerifyObserversAreNamedDigestItems) {
  platform::PlatformConfig cfg = fig3Small();
  cfg.verify = true;
  platform::Platform p(cfg);
  std::vector<std::pair<std::string, std::uint64_t>> items;
  p.simulator().stateDigestItems(items);
  std::vector<std::string> aux;
  for (const auto& item : items) {
    if (item.first.rfind("aux#", 0) == 0) aux.push_back(item.first);
  }
  ASSERT_EQ(aux.size(), 1 + p.verifyContext()->monitorCount());
  EXPECT_EQ(aux[0], "aux#0:fifo-state-probe");
  for (const auto& label : aux) {
    EXPECT_EQ(label.find("txn-audit"), std::string::npos) << label;
  }
}

// ---------------------------------------------------------------------------
// Deep-check replay (the other consumer of the SIM_STATE manifests) replays
// every edge and raises on a component without a manifest, so a clean run of
// the reference platforms proves every component snapshots.  The edge then
// commits the forward pass, so a deep-checked run ends in the plain run's
// state.
// ---------------------------------------------------------------------------

/// Final state digest of `cfg` run to completion, with or without deep-check.
std::uint64_t finalDigest(const platform::PlatformConfig& cfg, bool deep) {
  platform::Platform p(cfg);
  p.simulator().setDeepCheck(deep);
  p.run();
  return p.simulator().stateDigest();
}

TEST(StateCheck, DeepCheckReplaysEveryEdgeOnFullPlatform) {
  platform::PlatformConfig cfg = fig3Small();
  cfg.workload_scale = 0.1;
  cfg.verify = true;
  std::uint64_t deep = 0;
  ASSERT_NO_THROW(deep = finalDigest(cfg, true));
  EXPECT_EQ(deep, finalDigest(cfg, false));
}

// Full AHB on the LMI, monitored: the SDRAM legality monitor sees only the
// forward pass's device commands (the replay pass re-schedules the same
// accesses on the rewound device), and the AHB layers' waits (write data,
// response, back-pressure) keep the activity contract under replay.
TEST(StateCheck, DeepCheckReplaysEveryEdgeOnFullAhbLmi) {
  platform::PlatformConfig cfg;
  cfg.protocol = platform::Protocol::Ahb;
  cfg.topology = platform::Topology::Full;
  cfg.memory = platform::MemoryKind::Lmi;
  cfg.workload_scale = 0.02;
  cfg.verify = true;
  std::uint64_t deep = 0;
  ASSERT_NO_THROW(deep = finalDigest(cfg, true));
  EXPECT_EQ(deep, finalDigest(cfg, false));
}

// Deep-check rewinds the id counter after its reversed replay pass, so the
// forward pass (whose staged work the edge commits) re-draws the replay
// pass's ids: a deep-checked run carries the same id stream as a plain one.
TEST(StateCheck, DeepCheckReplayReissuesTheForwardPassIds) {
  auto run = [](bool deep) {
    sim::Simulator s;
    s.setDeepCheck(deep);
    IdIssuer issuer(s.addClockDomain("clk", 100.0), "issuer");
    s.run(100'000);
    return issuer.ids_;
  };
  EXPECT_EQ(run(true), run(false));
}

// Deep-check, like checkpoint(), needs every component to snapshot: an
// unmanifested one raises instead of silently skipping the replay.
TEST(StateCheck, DeepCheckRaisesOnUnmanifestedComponent) {
  struct Bare : sim::Component {
    using sim::Component::Component;
    void evaluate() override {}
  };
  sim::Simulator s;
  s.setDeepCheck(true);
  auto& clk = s.addClockDomain("clk", 100.0);
  Bare bare(clk, "bare");
  try {
    s.run(100'000);
    FAIL() << "deep-check replayed past an unmanifested component";
  } catch (const sim::InvariantViolation& e) {
    EXPECT_EQ(e.context().who, "bare");
    EXPECT_NE(std::string(e.what()).find("no state manifest"),
              std::string::npos)
        << e.what();
  }
}

TEST(StateCheck, DeepCheckReplaysEveryEdgeOnNocMesh) {
  // Gating stays on, so the forward pass skips sleeping routers and master
  // adapters while the replay pass evaluates them: one that sleeps through
  // work it should have staged (a missing wake) shows up as a staged-digest
  // divergence (InvariantViolation).  Default (on-chip) memory: with the LMI
  // the replay diverges on 'lmi.req' for a reason outside the fabric —
  // SyncFifo::popAt frees space within the edge, so a pusher evaluated after
  // the LMI sees a slot one evaluated before it does not (an open item in
  // ROADMAP.md).
  platform::PlatformConfig cfg;
  cfg.topology = platform::Topology::NocMesh;
  cfg.noc_width = 4;
  cfg.noc_height = 3;
  cfg.workload_scale = 0.05;
  ASSERT_TRUE(cfg.activity_gating);
  std::uint64_t deep = 0;
  ASSERT_NO_THROW(deep = finalDigest(cfg, true));
  EXPECT_EQ(deep, finalDigest(cfg, false));
}

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

// The red path of the platform caller of replayCheck: plant the leaky
// component on the reference platform and the oracle must abort the run
// naming it.
TEST(StateCheck, LeakyComponentAbortsThePlatformRun) {
  platform::PlatformConfig cfg = fig3Small();
  cfg.statecheck = true;
  cfg.statecheck_at_ps = 200'000;
  cfg.statecheck_edges = 200;
  platform::Platform p(cfg);
  Leaky bad(*p.simulator().domains().front(), "leaky");
  try {
    p.run();
    FAIL() << "the oracle let an unmanifested member through";
  } catch (const sim::InvariantViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("statecheck divergence"), std::string::npos) << what;
    EXPECT_NE(what.find(":leaky digests"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// validateConfig / scenario grammar: a statecheck that would silently never
// run, or a contradictory pair of overrides, is a configuration error.
// ---------------------------------------------------------------------------

void expectParseError(const std::string& text, const std::string& substr) {
  try {
    platform::parseScenario(text);
    FAIL() << "expected parse failure containing '" << substr << "'";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find(substr), std::string::npos)
        << "actual error: " << e.what();
  }
}

TEST(StatecheckValidation, InstantZeroOrPastDurationIsRejected) {
  expectParseError("name = x\nstatecheck = true\nstatecheck_at_ps = 0\n",
                   "statecheck_at_ps must be >= 1");
  expectParseError(
      "name = x\nduration_ps = 500000\nstatecheck = true\n"
      "statecheck_at_ps = 500000\n",
      "at or past the run duration");
}

// The two bridge overrides force opposite bridge classes; a file setting
// both is contradictory, whichever way the builder would resolve it.
TEST(ScenarioValidation, ContradictoryBridgeOverridesAreRejected) {
  expectParseError(
      "name = x\nlightweight_bridges = true\nsplit_bridges = true\n",
      "lightweight_bridges and split_bridges are mutually exclusive");
  platform::PlatformConfig cfg;
  cfg.force_lightweight_bridges = true;
  EXPECT_TRUE(platform::validateConfig(cfg).empty());
  cfg.force_split_bridges = true;
  EXPECT_FALSE(platform::validateConfig(cfg).empty());
}

// The oracle replays a statecheck_edges window, so an empty one is rejected
// — but only when the oracle is on.
TEST(StatecheckValidation, EmptyReplayWindowIsRejected) {
  platform::PlatformConfig cfg;
  cfg.statecheck_edges = 0;
  EXPECT_TRUE(platform::validateConfig(cfg).empty());
  cfg.statecheck = true;
  EXPECT_NE(platform::validateConfig(cfg).find("statecheck_edges must be >= 1"),
            std::string::npos);
}

}  // namespace
