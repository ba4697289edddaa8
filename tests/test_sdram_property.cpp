// Property-style tests on the SDRAM device timing model, parameterised over
// device configuration (SDR/DDR x bank counts): the invariants that must
// hold for every legal command schedule.

#include <gtest/gtest.h>

#include <tuple>

#include "mem/sdram.hpp"
#include "sim/rng.hpp"

namespace {

using namespace mpsoc;

constexpr sim::Picos kClk = 8000;  // 125 MHz device clock

using DevParam = std::tuple<bool /*ddr*/, unsigned /*banks*/>;

class SdramProperty : public ::testing::TestWithParam<DevParam> {
 protected:
  mem::SdramDevice makeDevice(unsigned refi = 100'000) {
    auto [ddr, banks] = GetParam();
    mem::SdramTiming t;
    t.ddr = ddr;
    t.t_refi = refi;
    mem::SdramGeometry g;
    g.banks = banks;
    return mem::SdramDevice(t, g, kClk);
  }
};

TEST_P(SdramProperty, DataPhasesNeverOverlap) {
  auto dev = makeDevice();
  sim::Rng rng(3, "sdram-prop");
  sim::Picos now = 0;
  sim::Picos prev_end = 0;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t addr = rng.uniformInt(0, (1 << 22) - 1) & ~7ull;
    const auto beats = static_cast<std::uint32_t>(rng.uniformInt(1, 16));
    const bool write = rng.bernoulli(0.4);
    const auto acc = dev.schedule(addr, beats, write, now);
    // The data bus is a single resource: transfers are totally ordered.
    EXPECT_GE(acc.first_beat, prev_end);
    EXPECT_EQ(acc.data_end, acc.first_beat + beats * acc.beat_period);
    prev_end = acc.data_end;
    now += rng.uniformInt(0, 3) * kClk;
  }
}

TEST_P(SdramProperty, SchedulesAreMonotoneInRequestTime) {
  auto dev = makeDevice();
  sim::Picos now = 0;
  sim::Picos prev_first = 0;
  for (int i = 0; i < 200; ++i) {
    const auto acc = dev.schedule(static_cast<std::uint64_t>(i) * 64, 8,
                                  false, now);
    EXPECT_GE(acc.first_beat, now);
    EXPECT_GE(acc.first_beat, prev_first);
    prev_first = acc.first_beat;
    now = acc.data_end;
  }
}

TEST_P(SdramProperty, BeatPeriodMatchesDataRate) {
  auto dev = makeDevice();
  const auto acc = dev.schedule(0, 8, false, 0);
  auto [ddr, banks] = GetParam();
  (void)banks;
  EXPECT_EQ(acc.beat_period, ddr ? kClk / 2 : kClk);
}

TEST_P(SdramProperty, OutcomeCountsAreConsistent) {
  auto dev = makeDevice();
  sim::Rng rng(5, "outcomes");
  sim::Picos now = 0;
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t addr = rng.uniformInt(0, (1 << 20) - 1) & ~7ull;
    const auto acc = dev.schedule(addr, 8, false, now);
    now = acc.data_end;
  }
  EXPECT_EQ(dev.rowHits() + dev.rowMisses() + dev.rowConflicts(),
            static_cast<std::uint64_t>(n));
  EXPECT_GE(dev.rowHitRate(), 0.0);
  EXPECT_LE(dev.rowHitRate(), 1.0);
}

TEST_P(SdramProperty, RefreshesRecurAndCloseRows) {
  auto dev = makeDevice(/*refi=*/200);
  sim::Picos now = 0;
  std::uint64_t refreshes_seen = 0;
  for (int i = 0; i < 50; ++i) {
    dev.schedule(0, 8, false, now);  // keeps bank 0's row open
    now += 100 * kClk;
    if (dev.maybeRefresh(now)) {
      ++refreshes_seen;
      EXPECT_FALSE(dev.wouldHit(0));  // refresh precharged everything
    }
  }
  EXPECT_GT(refreshes_seen, 10u);
  EXPECT_EQ(dev.refreshes(), refreshes_seen);
}

TEST_P(SdramProperty, SameRowSequentialStreamIsMostlyHits) {
  auto dev = makeDevice();
  sim::Picos now = 0;
  // 16 consecutive 64 B bursts inside one 2 KiB row.
  for (int i = 0; i < 16; ++i) {
    const auto acc = dev.schedule(static_cast<std::uint64_t>(i) * 64, 8,
                                  false, now);
    now = acc.data_end;
  }
  EXPECT_EQ(dev.rowMisses(), 1u);  // only the opening access
  EXPECT_EQ(dev.rowHits(), 15u);
  EXPECT_EQ(dev.rowConflicts(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Devices, SdramProperty,
    ::testing::Combine(::testing::Bool(), ::testing::Values(1u, 2u, 4u, 8u)),
    [](const ::testing::TestParamInfo<DevParam>& info) {
      return std::string(std::get<0>(info.param) ? "ddr" : "sdr") + "_b" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
