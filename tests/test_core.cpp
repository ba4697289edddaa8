// Tests for the experiment façade, the bottleneck analyzer and the
// single-layer rig.

#include <gtest/gtest.h>

#include "core/analysis.hpp"
#include "core/experiment.hpp"
#include "core/rigs.hpp"

namespace {

using namespace mpsoc;

core::FifoBuckets buckets(double full, double storing, double noreq,
                          double empty) {
  core::FifoBuckets b;
  b.frac_full = full;
  b.frac_storing = storing;
  b.frac_no_request = noreq;
  b.frac_empty = empty;
  return b;
}

TEST(Analysis, MemoryControllerBound) {
  auto v = core::classifyBottleneck(buckets(0.47, 0.24, 0.29, 0.01));
  EXPECT_EQ(v.kind, core::Bottleneck::MemoryController);
  EXPECT_NE(v.rationale.find("memory controller"), std::string::npos);
}

TEST(Analysis, InterconnectBound) {
  auto v = core::classifyBottleneck(buckets(0.0, 0.02, 0.98, 0.9));
  EXPECT_EQ(v.kind, core::Bottleneck::Interconnect);
  EXPECT_NE(v.rationale.find("interconnect"), std::string::npos);
}

TEST(Analysis, LightLoad) {
  auto v = core::classifyBottleneck(buckets(0.0, 0.1, 0.8, 0.85));
  EXPECT_EQ(v.kind, core::Bottleneck::LightLoad);
}

TEST(Analysis, Balanced) {
  auto v = core::classifyBottleneck(buckets(0.1, 0.3, 0.6, 0.1));
  EXPECT_EQ(v.kind, core::Bottleneck::Balanced);
}

TEST(Analysis, RegimeComparisonDetectsBurstyLowMean) {
  const std::string s = core::compareRegimes(
      buckets(0.4, 0.2, 0.4, 0.01), buckets(0.3, 0.1, 0.6, 0.25));
  EXPECT_NE(s.find("lower average"), std::string::npos);
}

TEST(Experiment, ScenarioResultIsPopulated) {
  platform::PlatformConfig cfg;
  cfg.workload_scale = 0.05;
  cfg.memory = platform::MemoryKind::Lmi;
  auto r = core::runScenario(cfg, "smoke");
  EXPECT_EQ(r.label, "smoke");
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.exec_ps, 0u);
  EXPECT_GT(r.retired, 0u);
  EXPECT_GT(r.bytes_total, 0u);
  EXPECT_GT(r.bandwidth_mb_s, 0.0);
  EXPECT_GT(r.lmi_row_hit_rate, 0.0);
  EXPECT_GE(r.lmi_merge_ratio, 1.0);
  EXPECT_GT(r.cpu_cpi, 0.9);
  EXPECT_NEAR(r.mem_fifo_total.frac_full + r.mem_fifo_total.frac_storing +
                  r.mem_fifo_total.frac_no_request,
              1.0, 1e-9);
}

TEST(SingleLayerRig, RunsAllProtocols) {
  for (auto proto : {core::RigProtocol::Stbus, core::RigProtocol::Ahb,
                     core::RigProtocol::Axi}) {
    core::SingleLayerConfig c;
    c.protocol = proto;
    c.masters = 3;
    c.memories = 2;
    c.txns_per_master = 50;
    core::SingleLayerRig rig(c);
    rig.run();
    EXPECT_TRUE(rig.allDone());
    EXPECT_GT(rig.totalBytes(), 0u);
    EXPECT_GT(rig.bandwidthMbS(), 0.0);
    EXPECT_GT(rig.busUtilization(), 0.0);
    EXPECT_LE(rig.busUtilization(), 1.0);
  }
}

TEST(SingleLayerRig, OutstandingHidesLatency) {
  // One master, one 4-wait-state memory, short bursts: with a single
  // outstanding slot the master is latency-bound; with four it pipelines
  // into the memory and becomes service-bound (guideline 3(i)).
  core::SingleLayerConfig base;
  base.masters = 1;
  base.memories = 1;
  base.wait_states = 4;
  base.bursts = {{4, 1.0}};
  base.txns_per_master = 300;
  base.outstanding = 4;
  core::SingleLayerConfig limited = base;
  limited.outstanding = 1;
  core::SingleLayerRig a(base), b(limited);
  const double ta = static_cast<double>(a.run());
  const double tb = static_cast<double>(b.run());
  EXPECT_GT(tb, 1.1 * ta);
}

TEST(SingleLayerRig, GapPacingLowersUtilization) {
  core::SingleLayerConfig sat;
  sat.txns_per_master = 150;
  core::SingleLayerConfig paced = sat;
  paced.gap_min = 1500;
  paced.gap_max = 2500;
  core::SingleLayerRig a(sat), b(paced);
  a.run();
  b.run();
  EXPECT_GT(a.busUtilization(), 2.0 * b.busUtilization());
}

}  // namespace
