#include "platform/feature_gates.hpp"

#ifndef MPSOC_VERIFY
#define MPSOC_VERIFY 0
#endif
#ifndef MPSOC_STATECHECK
#define MPSOC_STATECHECK 0
#endif

namespace mpsoc::platform {

std::vector<std::string> compiledOutCheckers(const PlatformConfig& cfg) {
  std::vector<std::string> out;
  if (cfg.verify && !MPSOC_VERIFY) out.emplace_back("verify");
  if (cfg.statecheck && !MPSOC_STATECHECK) out.emplace_back("statecheck");
  return out;
}

std::string compiledOutWarning(const PlatformConfig& cfg) {
  const std::vector<std::string> missing = compiledOutCheckers(cfg);
  if (missing.empty()) return {};
  std::string flags;
  std::string macros;
  for (const std::string& m : missing) {
    if (!flags.empty()) {
      flags += ", ";
      macros += ", ";
    }
    flags += "--" + m;
    std::string macro = "MPSOC_";
    for (char c : m) macro += static_cast<char>(c - 'a' + 'A');
    macros += macro + "=OFF";
  }
  return "warning: " + flags + " requested but compiled out (" + macros +
         "); running unchecked";
}

}  // namespace mpsoc::platform
