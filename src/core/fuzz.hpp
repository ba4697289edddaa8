#pragma once
// Scenario fuzzer: seeded random platform-instance generator, monitored
// mega-sweep driver and auto-shrinking reproducer harness (the mpsoc_fuzz
// tool is a thin CLI over this).
//
// The generator samples every dimension the scenario grammar can express —
// protocol x topology (including NoC mesh dims) x bridge policies x integer
// and non-integer clock ratios x LMI/SDRAM timing sets x workload shaping —
// *constructively*, so every generated config passes
// platform::validateConfig() by construction (an assertion enforces it).
// Generation is a pure function of (seed, index) built on SplitMix64, so the
// same seed reproduces the same scenario set byte-for-byte on every host and
// standard library: no std::uniform_*_distribution, whose sequences are not
// portable.
//
// Each case is run twice through core::SweepRunner, with kernel activity
// gating on and off, under the checkers requested by FuzzOptions (protocol
// monitors, optionally the checkpoint-equivalence oracle).  A case
// fails when either run throws (InvariantViolation, ProtocolViolation, ...),
// when the canonical result digests of the two runs diverge — the signature
// of a component that went to sleep with work pending — or, for a
// run-to-completion case (duration_ps == 0), when the gated run stops at the
// time bound without completing: the completion oracle, which catches
// deadlocks and livelocks.  Failures are greedily delta-debugged over config
// dimensions (collapse topology, drop masters via master_limit, reset
// timings, halve the workload, ...) to a local fixpoint, and the
// minimal reproducer is written to the corpus directory with the exact
// command that replays it.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "platform/scenario_parser.hpp"

namespace mpsoc::core {

/// SplitMix64 (Steele et al.): tiny, splittable, and — unlike the standard
/// library distributions — byte-identical on every platform.  This is the
/// only randomness source the fuzzer uses.
struct SplitMix64 {
  std::uint64_t state = 0;

  explicit SplitMix64(std::uint64_t seed) : state(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n).  Modulo bias is irrelevant at fuzzing sample sizes
  /// and keeps the mapping trivially portable.
  std::uint64_t below(std::uint64_t n) { return next() % n; }

  /// Bernoulli(p) with p expressed in percent (integer, portable).
  bool percent(unsigned p) { return below(100) < p; }

  /// Pick one element of a braced list: pick({1u, 2u, 4u}).
  template <typename T>
  T pick(std::initializer_list<T> options) {
    return options.begin()[below(options.size())];
  }
};

/// The pure generator: scenario `index` of the stream named by `seed`.
/// Always returns a config that platform::validateConfig() accepts.
platform::NamedScenario generateScenario(std::uint64_t seed,
                                         std::uint64_t index);

struct FuzzVerdict {
  bool failed = false;
  std::string error;  ///< failure description (empty when !failed)
};

/// Replaces the real monitored execution in tests: lets a test plant a "bug"
/// (fail on some config predicate) and assert the fuzzer finds and shrinks
/// it, without simulating anything.
using FuzzRunner = std::function<FuzzVerdict(const platform::NamedScenario&)>;

struct FuzzOptions {
  std::uint64_t seed = 1;
  std::uint64_t count = 20;
  bool verify = true;      ///< protocol monitors
  bool statecheck = false; ///< checkpoint-equivalence oracle (slower)
  bool shrink = true;      ///< delta-debug failures to a minimal reproducer
  /// SweepRunner pool width for the per-case gated/ungated pair.
  unsigned jobs = 1;
  /// Upper bound on shrink probes (each probe = one full check()).
  std::size_t max_shrink_runs = 200;
  /// Where minimal reproducers land ("" = don't write files).
  std::string corpus_dir = "tests/fuzz_corpus";
  /// Progress stream (one line per case; nullptr = silent).
  std::ostream* log = nullptr;
  /// Test hook; empty = real monitored execution through SweepRunner.
  FuzzRunner runner;
};

struct FuzzFailure {
  platform::NamedScenario original;
  std::string original_error;
  platform::NamedScenario minimal;  ///< == original when shrinking is off
  std::string error;                ///< verdict of the minimal reproducer
  std::size_t shrink_probes = 0;
  std::string repro_path;     ///< corpus file written ("" when disabled)
  std::string repro_command;  ///< exact command that replays the failure
};

struct FuzzReport {
  std::uint64_t cases = 0;      ///< scenarios generated and checked
  std::size_t simulations = 0;  ///< individual runs (incl. shrink probes)
  std::vector<FuzzFailure> failures;
  bool ok() const { return failures.empty(); }
};

class Fuzzer {
 public:
  explicit Fuzzer(FuzzOptions opts);

  /// Generate `count` cases from `seed`, check each, shrink the first
  /// failure (the campaign stops there — one actionable reproducer beats a
  /// pile of correlated ones).
  FuzzReport run();

  /// Verdict for one scenario under the configured checkers: failed on any
  /// throw, on a gated/ungated digest divergence, or when a run-to-completion
  /// case does not complete.
  FuzzVerdict check(const platform::NamedScenario& sc);

  /// Greedy delta-debug to a local fixpoint: repeatedly apply dimension
  /// simplifications (topology collapse, master_limit halving, timing
  /// resets, workload halving, ...), keeping each candidate only if it still
  /// fails.  `probes` returns the number of check() calls spent.
  platform::NamedScenario shrink(const platform::NamedScenario& failing,
                                 std::size_t* probes);

  const FuzzOptions& options() const { return opts_; }
  std::size_t simulations() const { return simulations_; }

 private:
  FuzzOptions opts_;
  std::size_t simulations_ = 0;
};

}  // namespace mpsoc::core
