// Tests for the scenario fuzzer (core/fuzz.hpp): generator determinism and
// validity, the emit/parse round-trip fixpoint, scenario-parser diagnostics
// (pinned message substrings), the monitored gated/ungated check, and the
// delta-debug shrinker against a planted bug.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "core/digest.hpp"
#include "core/experiment.hpp"
#include "core/fuzz.hpp"
#include "platform/scenario_parser.hpp"
#include "platform/validate.hpp"

namespace {

using namespace mpsoc;

// --- generator properties -------------------------------------------------

TEST(FuzzGenerator, SameSeedSameScenarioText) {
  // Generation is a pure function of (seed, index): the same seed must
  // regenerate the identical scenario set, byte for byte.
  for (std::uint64_t i = 0; i < 16; ++i) {
    const auto a = core::generateScenario(42, i);
    const auto b = core::generateScenario(42, i);
    EXPECT_EQ(platform::emitScenario(a), platform::emitScenario(b))
        << "index " << i;
  }
}

TEST(FuzzGenerator, DifferentIndicesSampleDifferentConfigs) {
  const std::string base = platform::emitScenario(core::generateScenario(9, 0));
  bool any_different = false;
  for (std::uint64_t i = 1; i < 8; ++i) {
    if (platform::emitScenario(core::generateScenario(9, i)) != base) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different) << "the stream collapsed to one config";
}

TEST(FuzzGenerator, EveryGeneratedConfigIsValid) {
  // generateScenario throws std::logic_error if constructive sampling ever
  // produces a config validateConfig() rejects; sweep a wide index range.
  for (std::uint64_t i = 0; i < 300; ++i) {
    const auto sc = core::generateScenario(1234, i);
    EXPECT_TRUE(platform::validateConfig(sc.config).empty()) << sc.name;
    if (sc.config.two_phase_workload) {
      EXPECT_GT(sc.duration_ps, 0u) << sc.name;
    }
  }
}

TEST(FuzzGenerator, RoundTripIsFixpoint) {
  // emit -> parse -> emit must reproduce the text exactly (the canonical
  // form is a fixpoint), including %.17g doubles like non-integer cpu_mhz.
  for (std::uint64_t i = 0; i < 24; ++i) {
    const auto sc = core::generateScenario(7, i);
    const std::string text = platform::emitScenario(sc);
    const auto parsed = platform::parseScenario(text);
    EXPECT_EQ(parsed.name, sc.name);
    EXPECT_EQ(platform::emitScenario(parsed), text) << "index " << i;
  }
}

TEST(FuzzGenerator, SameSeedSameRunDigest) {
  // End to end: the same (seed, index) must not just print the same config,
  // it must *simulate* to the same canonical digest.
  const auto sc = core::generateScenario(3, 0);
  auto digestOf = [&]() {
    return sc.duration_ps != 0
               ? core::digestValue(
                     core::runScenarioFor(sc.config, sc.name, sc.duration_ps))
               : core::digestValue(core::runScenario(sc.config, sc.name));
  };
  EXPECT_EQ(digestOf(), digestOf());
}

// --- parser diagnostics (pinned substrings) -------------------------------

std::string parseError(const std::string& text) {
  try {
    platform::parseScenario(text);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(ScenarioParserDiagnostics, UnknownKeyNamesItWithLineNumber) {
  const std::string msg = parseError("name = x\nbogus_key = 1\n");
  EXPECT_NE(msg.find("unknown scenario option"), std::string::npos) << msg;
  EXPECT_NE(msg.find("bogus_key"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
}

TEST(ScenarioParserDiagnostics, OutOfRangeValueIsRejected) {
  EXPECT_NE(parseError("stbus_type = 7\n").find("stbus_type must be 1..3"),
            std::string::npos);
  EXPECT_NE(
      parseError("workload_scale = 0\n").find("workload_scale must be in"),
      std::string::npos);
  EXPECT_NE(parseError("mem_fifo_depth = 0\n").find("mem_fifo_depth"),
            std::string::npos);
}

TEST(ScenarioParserDiagnostics, TruncatedLineIsRejected) {
  // A file cut off mid-key has no '=' on its last line.
  const std::string msg = parseError("protocol = stbus\nworkload_sc");
  EXPECT_NE(msg.find("expected 'key = value'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
}

TEST(ScenarioParserDiagnostics, MalformedValuesAreRejected) {
  EXPECT_NE(parseError("seed = twelve\n").find("expected a number"),
            std::string::npos);
  EXPECT_NE(parseError("verify = maybe\n").find("expected a boolean"),
            std::string::npos);
  EXPECT_NE(parseError("workload_scale = 1.0x\n").find("trailing characters"),
            std::string::npos);
  EXPECT_NE(parseError("protocol = pci\n").find("unknown protocol"),
            std::string::npos);
}

TEST(ScenarioParserDiagnostics, SemanticValidationRunsAfterParse) {
  EXPECT_NE(parseError("sdram_tras = 9\nsdram_trc = 5\n")
                .find("t_rc (5) must be >= t_ras (9)"),
            std::string::npos);
  EXPECT_NE(parseError("two_phase = true\n")
                .find("two_phase workloads are unbounded"),
            std::string::npos);
  EXPECT_NE(parseError("topology = noc-mesh\ninclude_scratchpad = true\n")
                .find("not supported on the noc-mesh topology"),
            std::string::npos);
}

// --- the monitored gated/ungated check ----------------------------------

TEST(FuzzCheck, GeneratedCaseAgreesGatedAndUngated) {
  // One real monitored run of a generated scenario with activity gating on
  // and off: any throw or digest divergence fails.  This is the fuzz
  // campaign's oracle, pinned into tier-1 at a single-case scale.
  core::FuzzOptions opts;
  opts.corpus_dir.clear();
  core::Fuzzer fuzzer(opts);
  const auto sc = core::generateScenario(11, 2);
  const core::FuzzVerdict v = fuzzer.check(sc);
  EXPECT_FALSE(v.failed) << v.error;
  EXPECT_EQ(fuzzer.simulations(), 2u);
}

// --- the shrinker, against a planted bug ----------------------------------

// The planted "bug": any AHB platform on the LMI memory fails.  The shrinker
// must preserve exactly those two dimensions (resetting either makes the
// candidate pass, so the pass is rejected) while collapsing everything else.
core::FuzzRunner plantedAhbLmiBug() {
  return [](const platform::NamedScenario& sc) {
    core::FuzzVerdict v;
    if (sc.config.protocol == platform::Protocol::Ahb &&
        sc.config.memory == platform::MemoryKind::Lmi) {
      v.failed = true;
      v.error = "planted: AHB+LMI interaction bug";
    }
    return v;
  };
}

TEST(FuzzShrink, PlantedBugIsFoundAndShrunkToMinimal) {
  core::FuzzOptions opts;
  opts.seed = 5;
  opts.count = 40;  // P(miss AHB+LMI in 40 cases) ~ (5/6)^40 < 0.1%
  opts.corpus_dir.clear();
  opts.runner = plantedAhbLmiBug();
  core::Fuzzer fuzzer(opts);
  const core::FuzzReport report = fuzzer.run();

  ASSERT_EQ(report.failures.size(), 1u);
  const core::FuzzFailure& f = report.failures.front();
  EXPECT_NE(f.error.find("planted"), std::string::npos);
  EXPECT_GT(f.shrink_probes, 0u);
  EXPECT_FALSE(f.repro_command.empty());

  // The culprit dimensions survive...
  EXPECT_EQ(f.minimal.config.protocol, platform::Protocol::Ahb);
  EXPECT_EQ(f.minimal.config.memory, platform::MemoryKind::Lmi);
  // ...and everything else collapsed: one interconnect layer, at most two
  // masters, no CPU/DMA, no two-phase regime, default timings.
  EXPECT_EQ(f.minimal.config.topology, platform::Topology::SingleLayer);
  ASSERT_NE(f.minimal.config.master_limit, 0u);
  EXPECT_LE(f.minimal.config.master_limit, 2u);
  EXPECT_FALSE(f.minimal.config.include_cpu);
  EXPECT_FALSE(f.minimal.config.include_dma);
  EXPECT_FALSE(f.minimal.config.two_phase_workload);
  EXPECT_EQ(f.minimal.config.lmi.lookahead, mem::LmiConfig{}.lookahead);
  // The minimal scenario is still a valid, parseable reproducer.
  EXPECT_TRUE(platform::validateConfig(f.minimal.config).empty());
  const auto reparsed =
      platform::parseScenario(platform::emitScenario(f.minimal));
  EXPECT_EQ(reparsed.config.protocol, platform::Protocol::Ahb);
}

TEST(FuzzShrink, ReproducerFileIsWrittenAndReplayable) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "fuzz_corpus").string();
  std::filesystem::remove_all(dir);

  core::FuzzOptions opts;
  opts.seed = 5;
  opts.count = 40;
  opts.corpus_dir = dir;
  opts.runner = plantedAhbLmiBug();
  const core::FuzzReport report = core::Fuzzer(opts).run();

  ASSERT_EQ(report.failures.size(), 1u);
  const core::FuzzFailure& f = report.failures.front();
  ASSERT_FALSE(f.repro_path.empty());
  EXPECT_NE(f.repro_command.find("--repro"), std::string::npos);

  std::ifstream ifs(f.repro_path);
  ASSERT_TRUE(ifs.good()) << f.repro_path;
  std::string first_line;
  std::getline(ifs, first_line);
  EXPECT_NE(first_line.find("minimal reproducer"), std::string::npos);
  // The stored file replays through the normal scenario loader.
  const auto loaded = platform::loadScenario(f.repro_path);
  EXPECT_EQ(loaded.config.protocol, platform::Protocol::Ahb);
  EXPECT_EQ(loaded.config.memory, platform::MemoryKind::Lmi);
}

TEST(FuzzShrink, CleanScenarioShrinksToItself) {
  // With a never-failing runner the campaign reports clean and the shrinker
  // is never consulted.
  core::FuzzOptions opts;
  opts.count = 5;
  opts.corpus_dir.clear();
  opts.runner = [](const platform::NamedScenario&) {
    return core::FuzzVerdict{};
  };
  const core::FuzzReport report = core::Fuzzer(opts).run();
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.cases, 5u);
}

}  // namespace
