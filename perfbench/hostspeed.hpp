#pragma once
// Host-speed reference for the timed loop.  On a shared host, other tenants
// change how fast one core runs by up to 2x over seconds to minutes (cache,
// memory bandwidth and sibling-thread contention, which no clock excludes).
// The timed loop therefore runs a fixed reference pass between repetitions
// and expresses each repetition's host time at the reference pass's nominal
// speed:  scaled = measured * kNominalMs / (reference pass beside it).
//
// The pass is shaped like the simulator's own host work: hashing, small heap
// allocations and walks through a node-based hash map.  Its code belongs to
// the benchmark, not to the simulator, so a change to the simulator cannot
// make it faster.

#include <cstdint>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "trace.hpp"

namespace perfbench {

class HostSpeed {
 public:
  /// Duration of one reference pass that the scaled times are expressed at.
  static constexpr double kNominalMs = 5.0;

  /// Run one pass on this thread; its host time in ms.
  double passMs() {
    const auto t0 = Clock::now();
    sink_ += pass();
    return msBetween(t0, Clock::now());
  }

  /// Run one pass on each of `threads` threads at once; host time in ms
  /// from the first start to the last finish.
  double parallelPassMs(unsigned threads) {
    std::vector<std::uint64_t> sinks(threads);
    std::vector<std::thread> pool;
    const auto t0 = Clock::now();
    for (unsigned i = 0; i < threads; ++i) {
      pool.emplace_back([&sinks, i] { sinks[i] = pass(); });
    }
    for (auto& t : pool) t.join();
    const double ms = msBetween(t0, Clock::now());
    for (const auto s : sinks) sink_ += s;
    return ms;
  }

  /// `raw[i]` ran between reference passes `ref_ms[i]` and `ref_ms[i + 1]`;
  /// each is scaled by the mean of the two.
  static std::vector<double> scale(const std::vector<double>& raw,
                                   const std::vector<double>& ref_ms) {
    std::vector<double> out;
    for (std::size_t i = 0; i < raw.size() && i + 1 < ref_ms.size(); ++i) {
      out.push_back(raw[i] * kNominalMs / (0.5 * (ref_ms[i] + ref_ms[i + 1])));
    }
    return out;
  }

 private:
  static std::uint64_t pass() {
    std::unordered_map<std::uint64_t, std::string> table;
    std::uint64_t x = 3, acc = 0;
    for (int k = 0; k < 40000; ++k) {
      x = mix(x);
      table[x % 20000] = std::to_string(x);
      const auto it = table.find(mix(x) % 20000);
      if (it != table.end()) acc += it->second.size();
    }
    return acc;
  }

  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  std::uint64_t sink_ = 0;  ///< folds each pass's result into the object
};

}  // namespace perfbench
