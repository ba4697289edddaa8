#pragma once
// Deterministic random number generation.  Every stochastic component derives
// its stream from (global seed, component name), so platform results are
// reproducible regardless of construction order and stable when unrelated
// components are added.

#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <tuple>

namespace mpsoc::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed ? seed : 0x9e3779b97f4a7c15ULL) {}

  Rng(std::uint64_t global_seed, std::string_view name)
      : Rng(mix(global_seed, fnv1a(name))) {}

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }

  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Geometric number of idle cycles for a given per-cycle start probability.
  std::uint64_t geometric(double p) {
    if (p >= 1.0) return 0;
    if (p <= 0.0) return UINT64_MAX;
    return std::geometric_distribution<std::uint64_t>(p)(engine_);
  }

  std::mt19937_64& engine() { return engine_; }

  /// State-manifest hook (src/sim/state.hpp): the engine is the whole state.
  auto simStateMembers() { return std::tie(engine_); }

  static std::uint64_t fnv1a(std::string_view s) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : s) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 0x100000001b3ULL;
    }
    return h;
  }

  static std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
    std::uint64_t x = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return x ? x : 1;
  }

 private:
  std::mt19937_64 engine_;
};

}  // namespace mpsoc::sim
