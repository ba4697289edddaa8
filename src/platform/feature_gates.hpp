#pragma once
// Unified "requested but compiled out" diagnostics for the compile-gated
// checkers (MPSOC_VERIFY protocol monitors, MPSOC_STATECHECK
// checkpoint-equivalence oracle).
//
// Each checker is a two-level opt-in: a CMake option compiles the hooks in
// or out, and a PlatformConfig flag attaches them at runtime.  A run that
// requests a checker this build removed would otherwise pass silently
// *unchecked* — the one outcome worse than failing.  Every front end
// (mpsoc_run flags, scenario-file keys, test rigs) therefore funnels the
// final per-scenario config through this helper and prints the warning.

#include <string>
#include <vector>

#include "platform/config.hpp"

namespace mpsoc::platform {

/// Names of checkers `cfg` requests that this build compiled out.  Callers
/// apply CLI-flag overrides to the config first, so both the flag path and
/// the scenario-key path are covered by the same call.
std::vector<std::string> compiledOutCheckers(const PlatformConfig& cfg);

/// One-line warning naming every compiled-out checker `cfg` requests
/// ("warning: --verify, --statecheck requested but compiled out
/// (MPSOC_VERIFY=OFF, MPSOC_STATECHECK=OFF); running unchecked"), or an
/// empty string when everything requested is available.
std::string compiledOutWarning(const PlatformConfig& cfg);

}  // namespace mpsoc::platform
