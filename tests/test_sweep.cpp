// Sweep-engine tests: deterministic ordering and byte-identical digests at
// every -j, failure cancellation, progress reporting, and the parallelFor
// primitive's exception semantics.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/digest.hpp"
#include "core/export.hpp"
#include "core/sweep.hpp"

namespace {

using namespace mpsoc;

platform::PlatformConfig tinyConfig(unsigned wait_states) {
  platform::PlatformConfig cfg;
  cfg.protocol = platform::Protocol::Stbus;
  cfg.topology = platform::Topology::SingleLayer;
  cfg.memory = platform::MemoryKind::OnChip;
  cfg.onchip_wait_states = wait_states;
  cfg.workload_scale = 0.05;
  cfg.include_cpu = false;
  return cfg;
}

std::vector<core::SweepPoint> tinyGrid() {
  std::vector<core::SweepPoint> points;
  for (unsigned ws : {0u, 1u, 2u, 4u}) {
    points.push_back({"ws" + std::to_string(ws), tinyConfig(ws), 0});
  }
  return points;
}

TEST(Sweep, ResultsArriveInPointOrderAtEveryJobCount) {
  const auto points = tinyGrid();
  for (unsigned jobs : {1u, 3u}) {
    core::SweepOptions opts;
    opts.jobs = jobs;
    const auto out = core::SweepRunner(opts).run(points);
    ASSERT_EQ(out.points.size(), points.size()) << "jobs=" << jobs;
    EXPECT_TRUE(out.ok);
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(out.points[i].label, points[i].label) << "jobs=" << jobs;
      EXPECT_EQ(out.points[i].status, core::PointStatus::Ok);
      EXPECT_GT(out.points[i].result.retired, 0u);
      EXPECT_GT(out.points[i].sim_edges_per_s, 0.0);
    }
  }
}

TEST(Sweep, DigestsAreByteIdenticalAcrossJobCounts) {
  const auto points = tinyGrid();
  core::SweepOptions j1;
  j1.jobs = 1;
  core::SweepOptions j4;
  j4.jobs = 4;
  const auto a = core::SweepRunner(j1).run(points);
  const auto b = core::SweepRunner(j4).run(points);
  const auto c = core::SweepRunner(j4).run(points);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const std::string da = core::digestText(a.points[i].result);
    EXPECT_EQ(da, core::digestText(b.points[i].result)) << points[i].label;
    EXPECT_EQ(da, core::digestText(c.points[i].result)) << points[i].label;
  }
}

TEST(Sweep, JsonReportsEvaluationsOutsideTheDigest) {
  // The per-run evaluate() count is host work: gating lowers it while every
  // digest holds, so it is reported in the JSON but never digested.
  platform::PlatformConfig ungated_cfg = tinyConfig(1);
  ungated_cfg.activity_gating = false;
  const auto out = core::SweepRunner(core::SweepOptions{})
                       .run({{"gated", tinyConfig(1), 0},
                             {"ungated", ungated_cfg, 0}});
  ASSERT_TRUE(out.ok);
  const core::ScenarioResult& gated = out.points[0].result;
  core::ScenarioResult ungated = out.points[1].result;
  EXPECT_GT(gated.evaluations, 0u);
  EXPECT_LT(gated.evaluations, ungated.evaluations);
  ungated.label = gated.label;
  EXPECT_EQ(core::digestText(gated), core::digestText(ungated));

  const std::string js = core::toSweepJson(out, 1);
  EXPECT_NE(js.find("\"evaluations\": " + std::to_string(gated.evaluations)),
            std::string::npos);
  EXPECT_EQ(core::digestText(gated).find("evaluations"), std::string::npos);
}

TEST(Sweep, FailureCancelsRemainingPoints) {
  const std::vector<std::string> labels = {"a", "b", "c", "d"};
  core::SweepOptions opts;
  opts.jobs = 1;  // inline: points start strictly in order
  const auto out = core::SweepRunner(opts).runJobs(
      labels, [](std::size_t i) -> core::ScenarioResult {
        if (i == 1) throw std::runtime_error("injected failure");
        core::ScenarioResult r;
        r.label = "ok";
        return r;
      });
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.points[0].status, core::PointStatus::Ok);
  EXPECT_EQ(out.points[1].status, core::PointStatus::Failed);
  EXPECT_NE(out.points[1].error.find("injected failure"), std::string::npos);
  EXPECT_EQ(out.points[2].status, core::PointStatus::Skipped);
  EXPECT_EQ(out.points[3].status, core::PointStatus::Skipped);
  ASSERT_NE(out.firstFailure(), nullptr);
  EXPECT_EQ(out.firstFailure()->label, "b");
}

TEST(Sweep, StopOnFailureFalseRunsEveryPoint) {
  const std::vector<std::string> labels = {"a", "b", "c"};
  core::SweepOptions opts;
  opts.jobs = 2;
  opts.stop_on_failure = false;
  const auto out = core::SweepRunner(opts).runJobs(
      labels, [](std::size_t i) -> core::ScenarioResult {
        if (i == 0) throw std::runtime_error("boom");
        core::ScenarioResult r;
        r.label = "ok";
        return r;
      });
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.points[0].status, core::PointStatus::Failed);
  EXPECT_EQ(out.points[1].status, core::PointStatus::Ok);
  EXPECT_EQ(out.points[2].status, core::PointStatus::Ok);
}

TEST(Sweep, ProgressCallbackFiresOncePerPoint) {
  const std::vector<std::string> labels = {"a", "b", "c", "d", "e"};
  std::mutex mu;
  std::vector<std::size_t> completed_counts;
  core::SweepOptions opts;
  opts.jobs = 3;
  opts.on_progress = [&](const core::SweepProgress& p) {
    std::lock_guard<std::mutex> lock(mu);
    completed_counts.push_back(p.completed);
    EXPECT_EQ(p.total, labels.size());
  };
  const auto out = core::SweepRunner(opts).runJobs(
      labels, [](std::size_t) { return core::ScenarioResult{}; });
  EXPECT_TRUE(out.ok);
  ASSERT_EQ(completed_counts.size(), labels.size());
  // Serialized callbacks see a strictly increasing completion count.
  for (std::size_t i = 0; i < completed_counts.size(); ++i) {
    EXPECT_EQ(completed_counts[i], i + 1);
  }
}

TEST(Sweep, ParallelForVisitsEveryIndexAndRethrows) {
  std::vector<std::atomic<int>> visits(64);
  core::parallelFor(visits.size(), 4,
                    [&](std::size_t i) { visits[i].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);

  // No cancellation: later bodies still run; the lowest-index exception wins.
  std::atomic<int> ran{0};
  try {
    core::parallelFor(8, 2, [&](std::size_t i) {
      ran.fetch_add(1);
      if (i == 2 || i == 5) {
        throw std::runtime_error("idx" + std::to_string(i));
      }
    });
    FAIL() << "expected parallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "idx2");
  }
  EXPECT_EQ(ran.load(), 8);
}

TEST(Sweep, DigestTextLocksEveryFigureMetric) {
  core::SweepOptions opts;
  const auto out = core::SweepRunner(opts).run({{"tiny", tinyConfig(1), 0}});
  ASSERT_TRUE(out.ok);
  const std::string text = core::digestText(out.points[0].result);
  for (const char* key :
       {"label=", "exec_ps=", "edges_executed=", "retired=", "bytes_total=",
        "mean_read_latency_ns=", "p95_read_latency_ns=", "bandwidth_mb_s=",
        "fifo.full=", "fifo.mean_occupancy=", "master."}) {
    EXPECT_NE(text.find(key), std::string::npos) << key;
  }
  // The digest is sensitive to a single-cycle deviation.
  core::ScenarioResult mutated = out.points[0].result;
  mutated.exec_ps += 1;
  EXPECT_NE(core::digestValue(mutated), core::digestValue(out.points[0].result));
  EXPECT_EQ(core::digestHex(out.points[0].result).size(), 16u);
}

}  // namespace
