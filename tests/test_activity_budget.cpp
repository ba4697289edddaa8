// Evaluation budget of activity gating.
//
// Each case runs a small reference platform to completion and bounds
// Simulator::evaluations() (component evaluate() calls) at the count pinned
// below plus 5%.  Host time hides a bus that stops sleeping inside the noise
// of a shared machine; the evaluation count is exact and moves at once, so
// a lost sleep fails here as a named test instead of a perf drift.
//
// Pinned counts (the same in every build type: the count follows the
// model, not the host): collapsed AXI + LMI with the CPU and DMA, record
// mix, scale 0.1: 88,810; full AHB + LMI with the CPU, scale 0.1: 59,401.
// When the AXI bus and the AHB layers still counted their beats down and
// polled full FIFOs on every edge, the same runs counted 145,847 and
// 294,835.  A change that lowers a count should re-pin it here.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "platform/config.hpp"
#include "platform/platform.hpp"

namespace {

using namespace mpsoc;

/// Evaluations of `cfg` run to completion, printed for re-pinning.
std::uint64_t evaluations(const platform::PlatformConfig& cfg,
                          const char* label) {
  platform::Platform p(cfg);
  p.run();
  const std::uint64_t n = p.simulator().evaluations();
  std::printf("[ activity ] %s: %llu evaluations\n", label,
              static_cast<unsigned long long>(n));
  return n;
}

/// The pinned count plus 5%.
constexpr std::uint64_t ceiling(std::uint64_t pinned) {
  return pinned + pinned / 20;
}

TEST(ActivityBudget, CollapsedAxiLmi) {
  platform::PlatformConfig cfg;
  cfg.protocol = platform::Protocol::Axi;
  cfg.topology = platform::Topology::Collapsed;
  cfg.memory = platform::MemoryKind::Lmi;
  cfg.use_case = platform::UseCase::Record;
  cfg.include_dma = true;
  cfg.workload_scale = 0.1;
  EXPECT_LE(evaluations(cfg, "collapsed AXI + LMI"), ceiling(88'810));
}

TEST(ActivityBudget, FullAhbLmi) {
  platform::PlatformConfig cfg;
  cfg.protocol = platform::Protocol::Ahb;
  cfg.topology = platform::Topology::Full;
  cfg.memory = platform::MemoryKind::Lmi;
  cfg.workload_scale = 0.1;
  EXPECT_LE(evaluations(cfg, "full AHB + LMI"), ceiling(59'401));
}

}  // namespace
