// Tests for result export (CSV/JSON).

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/export.hpp"

namespace {

using namespace mpsoc;

core::ScenarioResult fakeResult(const std::string& label) {
  core::ScenarioResult r;
  r.label = label;
  r.exec_ps = 1'000'000;
  r.completed = true;
  r.retired = 42;
  r.bytes_total = 4096;
  r.mean_read_latency_ns = 123.5;
  r.bandwidth_mb_s = 512.25;
  r.lmi_row_hit_rate = 0.75;
  r.lmi_merge_ratio = 1.5;
  r.mem_fifo_total = {"total", 0.4, 0.2, 0.4, 0.05, 3.2};
  r.mem_fifo_phases.push_back({"phase1", 0.5, 0.25, 0.25, 0.01, 4.0});
  return r;
}

TEST(Export, CsvHasHeaderAndRows) {
  const std::string csv = core::toCsv({fakeResult("a"), fakeResult("b")});
  std::istringstream is(csv);
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_NE(line.find("label,exec_ps"), std::string::npos);
  int rows = 0;
  while (std::getline(is, line)) ++rows;
  EXPECT_EQ(rows, 2);
  EXPECT_NE(csv.find("a,1000000,1,42,4096"), std::string::npos);
}

TEST(Export, JsonIsWellFormedEnough) {
  const std::string js = core::toJson(fakeResult("scenario \"x\""));
  EXPECT_NE(js.find("\"label\": \"scenario \\\"x\\\"\""), std::string::npos);
  EXPECT_NE(js.find("\"exec_ps\": 1000000"), std::string::npos);
  EXPECT_NE(js.find("\"phases\": ["), std::string::npos);
  // Balanced braces/brackets (crude structural check).
  EXPECT_EQ(std::count(js.begin(), js.end(), '{'),
            std::count(js.begin(), js.end(), '}'));
  EXPECT_EQ(std::count(js.begin(), js.end(), '['),
            std::count(js.begin(), js.end(), ']'));
}

}  // namespace
