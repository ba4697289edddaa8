#pragma once
// SweepRunner: fan independent simulation runs across a worker thread pool.
//
// Every guideline in the paper comes from a sweep — platform instances
// (Fig. 3/5), memory-speed grids (Fig. 4), offered-load sweeps (S4.1.1) — and
// each point is an isolated simulation: it owns its Simulator, clock domains,
// components, RNG streams (seeded from the config, never from global state),
// stats probes and verify context.  Nothing mutable is shared between points,
// so points may run concurrently: src/ holds no process-wide mutable state,
// and transaction ids come from each point's own Simulator.  The result of a
// sweep is therefore byte-identical at -j1 and -jN, which tools/check.sh and
// the determinism tests enforce via the canonical digests of core/digest.hpp.
//
// Semantics:
//   * results land at the index of their point — ordering is deterministic
//     and independent of worker scheduling;
//   * a point that throws (InvariantViolation, ProtocolViolation, ...)
//     records Failed with the exception text; with stop_on_failure (default),
//     points not yet started are cancelled and record Skipped;
//   * progress callbacks are serialized under a mutex, one per finished
//     point, in completion (wall-clock) order.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "platform/config.hpp"

namespace mpsoc::core {

/// One grid point: a platform instance, run to completion (duration_ps == 0)
/// or for a fixed simulated duration (two-phase workloads).
struct SweepPoint {
  std::string label;
  platform::PlatformConfig config;
  sim::Picos duration_ps = 0;
};

enum class PointStatus : std::uint8_t { Ok, Failed, Skipped };

inline const char* toString(PointStatus s) {
  switch (s) {
    case PointStatus::Ok: return "ok";
    case PointStatus::Failed: return "FAILED";
    case PointStatus::Skipped: return "skipped";
  }
  return "?";
}

struct PointResult {
  std::string label;
  PointStatus status = PointStatus::Skipped;
  ScenarioResult result;  ///< valid only when status == Ok
  std::string error;      ///< exception text when status == Failed
  double wall_ms = 0.0;   ///< host time spent simulating this point
  /// Kernel edge instants per wall-clock second — the simulation-speed
  /// figure of the mpsoc-sweep-v1 JSON.
  double sim_edges_per_s = 0.0;
};

struct SweepProgress {
  std::size_t completed = 0;  ///< points finished so far (including this one)
  std::size_t total = 0;
  std::string label;  ///< point that just finished
  PointStatus status = PointStatus::Ok;
  double wall_ms = 0.0;
};

struct SweepOptions {
  /// Worker threads.  0 = one per hardware thread; 1 = run inline on the
  /// calling thread (no pool).
  unsigned jobs = 1;
  /// Cancel not-yet-started points after the first failure.
  bool stop_on_failure = true;
  /// Invoked (serialized) after each point finishes.
  std::function<void(const SweepProgress&)> on_progress;
};

struct SweepOutcome {
  std::vector<PointResult> points;  ///< one per input point, same order
  bool ok = true;                   ///< every point ran and succeeded
  double wall_ms = 0.0;             ///< whole-sweep wall time

  /// First failed point, or nullptr.
  const PointResult* firstFailure() const {
    for (const auto& p : points) {
      if (p.status == PointStatus::Failed) return &p;
    }
    return nullptr;
  }
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions opts = {}) : opts_(std::move(opts)) {}

  const SweepOptions& options() const { return opts_; }

  /// Run every point (each in its own Platform/Simulator) across the pool.
  SweepOutcome run(const std::vector<SweepPoint>& points) const;

  /// Generic fan-out with the same pool, ordering, cancellation and timing:
  /// `job(i)` produces the ScenarioResult for point i.  `labels[i]` names it.
  /// Used by harnesses whose points are not PlatformConfig instances
  /// (single-layer rigs, custom rigs).
  SweepOutcome runJobs(
      const std::vector<std::string>& labels,
      const std::function<ScenarioResult(std::size_t)>& job) const;

 private:
  SweepOptions opts_;
};

/// Minimal deterministic parallel-for for harness code that fills its own
/// result slots: invokes body(i) for i in [0, count) across `jobs` threads.
/// The first exception (lowest index) is rethrown on the caller's thread
/// after all workers join; later bodies still run (no cancellation).
void parallelFor(std::size_t count, unsigned jobs,
                 const std::function<void(std::size_t)>& body);

}  // namespace mpsoc::core
