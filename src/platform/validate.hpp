#pragma once
// Whole-config legality rules for PlatformConfig, shared by every front end:
// the scenario parser applies them after the last key (so a file that parses
// is also buildable), and the scenario fuzzer's generator and shrinker treat
// them as the definition of "legal-but-adversarial" — a candidate that fails
// validateConfig() is never emitted, so every fuzz case exercises the
// platform, not the constructor's error paths.
//
// The rules are deliberately *structural* (what cannot be built or cannot
// terminate), not *advisory*: unusual-but-buildable combinations are exactly
// the corners the fuzzer exists to reach.

#include <string>

#include "platform/config.hpp"

namespace mpsoc::platform {

/// Empty string when `cfg` describes a buildable, runnable platform;
/// otherwise a one-line human-readable reason (no "error:" prefix).
///
/// `duration_ps` is the scenario's bounded run length (runFor duration), or 0
/// for a run-to-completion workload with no fixed horizon.  The
/// statecheck_at_ps instant is checked against it: an instant of 0 or one
/// at/past the horizon silently no-ops — the oracle the user asked for never
/// executes — so both are rejected here instead.
std::string validateConfig(const PlatformConfig& cfg,
                           sim::Picos duration_ps = 0);

}  // namespace mpsoc::platform
