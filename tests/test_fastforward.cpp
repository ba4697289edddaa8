// Multi-abstraction fast-forward suite (sim/fastforward.hpp, the
// Platform::fastForward handoff, and the restore-path bugfix sweep that
// rides along with it):
//
//  * FfHandoffOracle digest gate — every shipped scenario fast-forwards its
//    warm-up region under the loosely-timed quantum engine, hands off to the
//    cycle-accurate model through a checkpoint/restore boundary, and the
//    accurate region's digest is pinned to a golden (regenerate with
//    MPSOC_UPDATE_GOLDEN=1 after review).
//    The in-run ff_check oracle additionally proves the post-handoff region
//    is a pure function of the restored state (digest-compared against a
//    rewind-and-replay of the same window).
//  * fuzz-corpus replay — every stored reproducer also runs through
//    --fast-forward-until, so the adversarial configs exercise the LT paths.
//  * Simulator::fastForwardTo grid placement — after a time jump, every
//    clock domain's next edges land on the original coincident-edge grid,
//    including non-integer clock ratios (the alignFirstEdge audit).
//  * Watchdog across restore/fast-forward — a stall spanning the boundary
//    still fires (the re-baseline bugfix), and a healthy run's statecheck
//    digests stay bit-identical (last_progress_ is out of the digest canon).
//  * validateConfig / scenario-grammar negative tests for the silently
//    no-oping instants (ff_until_ps, statecheck_at_ps).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/digest.hpp"
#include "core/experiment.hpp"
#include "platform/config.hpp"
#include "platform/platform.hpp"
#include "platform/scenario_parser.hpp"
#include "platform/validate.hpp"
#include "sim/check.hpp"
#include "sim/component.hpp"
#include "sim/simulator.hpp"
#include "sim/watchdog.hpp"

#ifndef MPSOC_GOLDEN_DIR
#error "MPSOC_GOLDEN_DIR must point at tests/golden"
#endif
#ifndef MPSOC_SCENARIO_DIR
#error "MPSOC_SCENARIO_DIR must point at tools/scenarios"
#endif
#ifndef MPSOC_FUZZ_CORPUS_DIR
#error "MPSOC_FUZZ_CORPUS_DIR must point at tests/fuzz_corpus"
#endif

namespace {

using namespace mpsoc;

core::ScenarioResult runWithFf(platform::NamedScenario sc,
                               sim::Picos ff_until) {
  sc.config.ff_until_ps = ff_until;
  sc.config.ff_check = true;  // rewind-and-replay the post-handoff window
  return sc.duration_ps > 0
             ? core::runScenarioFor(sc.config, sc.name, sc.duration_ps)
             : core::runScenario(sc.config, sc.name);
}

bool updateMode() {
  const char* v = std::getenv("MPSOC_UPDATE_GOLDEN");
  return v != nullptr && std::string(v) == "1";
}

// ---------------------------------------------------------------------------
// Shipped scenarios: FF handoff digest gate + restore-equivalence goldens.
// ---------------------------------------------------------------------------

struct FfCase {
  const char* stem;       ///< scenario file stem and golden/gtest name
  sim::Picos ff_until;    ///< warm-up region to fast-forward (ps)
};

const std::vector<FfCase>& ffCases() {
  // ff_until sits well inside every scenario's accurate execution time, so a
  // real cycle-accurate region always remains after the handoff.
  static const std::vector<FfCase> cases = {
      {"fig3_full_stbus", 100'000'000}, {"fig3_full_ahb", 100'000'000},
      {"fig5_collapsed_axi", 100'000'000}, {"noc_mesh", 100'000'000},
      {"record_use_case", 100'000'000},
  };
  return cases;
}

class FfHandoffOracle : public ::testing::TestWithParam<FfCase> {};

TEST_P(FfHandoffOracle, DigestBitIdenticalAcrossThreadsAndPinned) {
  const FfCase& fc = GetParam();
  const auto sc = platform::loadScenario(std::string(MPSOC_SCENARIO_DIR) +
                                         "/" + fc.stem + ".scn");

  // The ff_check oracle inside each run digest-compares the accurate region
  // after the handoff against a rewind-and-replay from the same checkpoint;
  // any restore-path incompleteness aborts the run here.
  const core::ScenarioResult r = runWithFf(sc, fc.ff_until);
  const std::string digest = core::digestHex(r);
  EXPECT_GT(r.ff_quanta, 0u) << fc.stem << ": fast-forward never ran";

  const std::string path =
      std::string(MPSOC_GOLDEN_DIR) + "/ff_" + fc.stem + ".digest";
  if (updateMode()) {
    std::ofstream ofs(path);
    ASSERT_TRUE(ofs) << "cannot write " << path;
    ofs << digest << "\n";
    return;
  }
  std::ifstream ifs(path);
  ASSERT_TRUE(ifs) << "missing golden " << path
                   << "\nGenerate it with:  MPSOC_UPDATE_GOLDEN=1 ctest -L "
                      "fastforward";
  std::string golden;
  ifs >> golden;
  EXPECT_EQ(digest, golden)
      << fc.stem << ": fast-forwarded run diverged from the pinned golden "
      << "(MPSOC_UPDATE_GOLDEN=1 regenerates after review)";
}

INSTANTIATE_TEST_SUITE_P(All, FfHandoffOracle, ::testing::ValuesIn(ffCases()),
                         [](const ::testing::TestParamInfo<FfCase>& info) {
                           return info.param.stem;
                         });

// ---------------------------------------------------------------------------
// Fuzz-corpus replay: every stored reproducer through --fast-forward-until.
// ---------------------------------------------------------------------------

class FfFuzzCorpus : public ::testing::TestWithParam<const char*> {};

TEST_P(FfFuzzCorpus, ReplaysThroughFastForward) {
  const auto sc = platform::loadScenario(std::string(MPSOC_FUZZ_CORPUS_DIR) +
                                         "/" + GetParam() + ".scn");
  // 10 us sits inside every corpus case's execution window (the shortest
  // runs ~46 us).  The non_integer_cdc case is the satellite-b audit: its
  // off-grid CPU clock exercises fastForwardTo's coincident-grid placement.
  EXPECT_GT(runWithFf(sc, 10'000'000).ff_quanta, 0u);
}

INSTANTIATE_TEST_SUITE_P(All, FfFuzzCorpus,
                         ::testing::Values("noc_shared_node", "noc_tiny_mesh",
                                           "non_integer_cdc", "tight_timings",
                                           "two_phase_min"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return i.param;
                         });

// ---------------------------------------------------------------------------
// Simulator::fastForwardTo grid placement (the alignFirstEdge audit).
// ---------------------------------------------------------------------------

// A component that never idles, so step() always has a next edge.
struct KeepAlive final : sim::Component {
  std::uint64_t edges_ = 0;
  KeepAlive(sim::ClockDomain& c, std::string n)
      : sim::Component(c, std::move(n)) {}
  void evaluate() override { ++edges_; }
  bool idle() const override { return false; }
  SIM_STATE_MEMBERS(edges_);
};

// After fastForwardTo(t), every domain's subsequent edges must land on the
// instants the accurate run would have visited — the original coincident-edge
// grid — including non-integer clock ratios (250:313 never re-synchronises
// inside the test window).
TEST(FastForwardGrid, NonIntegerRatioEdgesLandOnAccurateGrid) {
  auto edgeInstantsAfter = [](sim::Picos skip_to, bool use_ff) {
    sim::Simulator s;
    auto& a = s.addClockDomain("a", 250.0);
    auto& b = s.addClockDomain("b", 313.0);  // off-grid period
    KeepAlive ka(a, "ka");
    KeepAlive kb(b, "kb");
    if (use_ff) {
      s.run(skip_to / 3);  // jump from a mid-run instant, not from t=0
      s.fastForwardTo(skip_to);
    }
    std::vector<sim::Picos> instants;
    while (instants.size() < 64 && s.step()) {
      if (s.now() > skip_to) instants.push_back(s.now());
    }
    return instants;
  };
  const auto accurate = edgeInstantsAfter(1'000'000, false);
  const auto jumped = edgeInstantsAfter(1'000'000, true);
  ASSERT_EQ(accurate.size(), jumped.size());
  EXPECT_EQ(accurate, jumped)
      << "fastForwardTo left a clock domain off its original edge grid";
}

// Fast-forwarding to an instant the simulator already reached is a no-op;
// rewinding is checked.
TEST(FastForwardGrid, RejectsRewindAcceptsNoop) {
  sim::Simulator s;
  auto& a = s.addClockDomain("a", 100.0);
  KeepAlive ka(a, "ka");
  s.run(100'000);
  const sim::Picos now = s.now();
  s.fastForwardTo(now);  // no-op
  EXPECT_EQ(now, s.now());
  EXPECT_THROW(s.fastForwardTo(now - 1), sim::InvariantViolation);
}

// ---------------------------------------------------------------------------
// Watchdog across restore / fast-forward (the satellite-a bugfix).
// ---------------------------------------------------------------------------

// A worker whose progress counter freezes on command while it stays busy —
// the shape of a genuine livelock.
struct Stallable final : sim::Component {
  std::uint64_t work_ = 0;
  bool stalled_ = false;
  Stallable(sim::ClockDomain& c) : sim::Component(c, "worker") {}
  void evaluate() override {
    if (!stalled_) ++work_;
  }
  bool idle() const override { return false; }
  SIM_STATE_MEMBERS(work_, stalled_);
};

TEST(WatchdogRestore, StallSpanningRestoreBoundaryStillFires) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  Stallable w(clk);
  sim::Watchdog wd(clk, "wd", [&] { return w.work_; }, /*interval=*/100);
  s.run(5'000'000);  // healthy: progress advances, no alarm
  ASSERT_FALSE(wd.fired());

  w.stalled_ = true;
  s.run(s.now() + 500'000);  // stall begins, but < one full check interval
  s.checkpoint();
  s.restoreCheckpoint();  // the boundary the stall must survive
  ASSERT_FALSE(wd.fired());

  // Two intervals after the restore the frozen counter must be attributed.
  s.run(s.now() + 2'000'000 * 2);
  EXPECT_TRUE(wd.fired())
      << "a stall spanning the restore boundary was swallowed (the baseline "
         "was not re-anchored on restore)";
}

TEST(WatchdogRestore, StallSpanningFastForwardStillFires) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  Stallable w(clk);
  sim::Watchdog wd(clk, "wd", [&] { return w.work_; }, /*interval=*/100);
  s.run(5'000'000);
  w.stalled_ = true;
  s.fastForwardTo(20'000'000);  // time jump across the frozen region
  ASSERT_FALSE(wd.fired());
  s.run(s.now() + 2'000'000 * 2);
  EXPECT_TRUE(wd.fired());
}

// Healthy runs must replay bit-identically across a rewind even when no
// check lands inside the window: last_progress_ is restored but excluded
// from the digest canon (it is legally different between the two passes).
TEST(WatchdogRestore, HealthyRewindReplaysIdenticalDigests) {
  using DigestItems = std::vector<std::pair<std::string, std::uint64_t>>;
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  Stallable w(clk);
  sim::Watchdog wd(clk, "wd", [&] { return w.work_; }, /*interval=*/100);
  s.run(1'000'000);
  s.checkpoint();
  for (int i = 0; i < 150 && s.step(); ++i) {
  }
  DigestItems first;
  s.stateDigestItems(first);
  s.restoreCheckpoint();
  for (int i = 0; i < 150 && s.step(); ++i) {
  }
  DigestItems second;
  s.stateDigestItems(second);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].second, second[i].second) << first[i].first;
  }
  EXPECT_FALSE(wd.fired());
}

// ---------------------------------------------------------------------------
// LT statistics stay out of the canonical digest.
// ---------------------------------------------------------------------------

TEST(FastForwardStats, LtCountersAreReportedButNeverDigested) {
  platform::PlatformConfig cfg;
  cfg.protocol = platform::Protocol::Stbus;
  cfg.topology = platform::Topology::Full;
  cfg.memory = platform::MemoryKind::OnChip;
  cfg.workload_scale = 0.25;
  cfg.ff_until_ps = 50'000'000;
  cfg.ff_check = true;
  const core::ScenarioResult r = core::runScenario(cfg, "ff-small");
  EXPECT_GT(r.ff_quanta, 0u);
  EXPECT_GT(r.ff_lt_transactions, 0u);
  EXPECT_GT(r.ff_lt_bytes, 0u);
  EXPECT_EQ(r.ff_until_ps, cfg.ff_until_ps);
  // The canonical digest must not see any approximate LT-derived value.
  EXPECT_EQ(core::digestText(r).find("ff_"), std::string::npos);
}

// ---------------------------------------------------------------------------
// validateConfig / scenario grammar: the silently no-oping instants.
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

TEST(FfValidation, FastForwardAtOrPastDurationIsRejected) {
  expectParseError(
      "name = x\nduration_ps = 1000000\nff_until_ps = 1000000\n",
      "at or past the run duration");
  expectParseError(
      "name = x\nduration_ps = 1000000\nff_until_ps = 2000000\n",
      "at or past the run duration");
}

TEST(FfValidation, FfCheckWithoutFastForwardIsRejected) {
  expectParseError("name = x\nff_check = true\n",
                   "ff_check requires fast-forward");
}

TEST(FfValidation, ZeroQuantumIsRejected) {
  expectParseError("name = x\nff_until_ps = 1000\nff_quantum_ps = 0\n",
                   "ff_quantum_ps must be >= 1");
}

TEST(FfValidation, StatecheckInstantZeroOrPastDurationIsRejected) {
  expectParseError("name = x\nstatecheck = true\nstatecheck_at_ps = 0\n",
                   "statecheck_at_ps must be >= 1");
  expectParseError(
      "name = x\nduration_ps = 500000\nstatecheck = true\n"
      "statecheck_at_ps = 500000\n",
      "at or past the run duration");
}

TEST(FfValidation, ValidateConfigDirectly) {
  platform::PlatformConfig cfg;
  cfg.ff_until_ps = 1'000'000;
  EXPECT_TRUE(platform::validateConfig(cfg).empty());  // no duration: legal
  EXPECT_NE(platform::validateConfig(cfg, 1'000'000).find(
                "at or past the run duration"),
            std::string::npos);
  EXPECT_TRUE(platform::validateConfig(cfg, 2'000'000).empty());
}

// The scenario grammar round-trips the ff keys (emit -> parse -> emit is a
// fixpoint, the same invariant the fuzz suite asserts for every other key).
TEST(FfValidation, ScenarioRoundTripPreservesFfKeys) {
  const std::string text =
      "name = rt\nduration_ps = 9000000\nff_until_ps = 4000000\n"
      "ff_quantum_ps = 250000\nff_check = true\nff_check_edges = 123\n";
  const auto sc = platform::parseScenario(text);
  EXPECT_EQ(sc.config.ff_until_ps, 4'000'000u);
  EXPECT_EQ(sc.config.ff_quantum_ps, 250'000u);
  EXPECT_TRUE(sc.config.ff_check);
  EXPECT_EQ(sc.config.ff_check_edges, 123u);
  const std::string emitted = platform::emitScenario(sc);
  EXPECT_EQ(emitted, platform::emitScenario(platform::parseScenario(emitted)));
}

}  // namespace
