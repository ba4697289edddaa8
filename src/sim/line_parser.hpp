#pragma once
// Helpers shared by the line-oriented `key = value` configuration grammars
// (IPTG agent configs, scenario files).  Each grammar keeps its own message
// prefix: errors throw std::runtime_error("<what>, line N: <message>").

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace mpsoc::sim {

/// `s` without leading and trailing whitespace.
inline std::string trim(const std::string& s) {
  constexpr const char* kSpace = " \t\n\v\f\r";
  const std::size_t first = s.find_first_not_of(kSpace);
  if (first == std::string::npos) return "";
  return s.substr(first, s.find_last_not_of(kSpace) - first + 1);
}

struct LineParser {
  const char* what;  ///< message prefix naming the grammar

  [[noreturn]] void fail(std::size_t line, const std::string& msg) const {
    throw std::runtime_error(std::string(what) + ", line " +
                             std::to_string(line) + ": " + msg);
  }

  /// Unsigned integer; `0x` prefixes are accepted.
  std::uint64_t u64(const std::string& s, std::size_t line) const {
    std::size_t pos = 0;
    std::uint64_t v = 0;
    try {
      v = std::stoull(s, &pos, 0);
    } catch (const std::out_of_range&) {
      fail(line, "number out of range: '" + s + "'");
    } catch (const std::exception&) {
      fail(line, "expected a number, got '" + s + "'");
    }
    // Outside the try: fail() throws, and the catch above must not swallow
    // it.
    if (pos != s.size()) fail(line, "trailing characters in '" + s + "'");
    return v;
  }

  double real(const std::string& s, std::size_t line) const {
    std::size_t pos = 0;
    double v = 0.0;
    try {
      v = std::stod(s, &pos);
    } catch (const std::exception&) {
      fail(line, "expected a real number, got '" + s + "'");
    }
    if (pos != s.size()) fail(line, "trailing characters in '" + s + "'");
    return v;
  }

  bool boolean(const std::string& s, std::size_t line) const {
    if (s == "true" || s == "1" || s == "yes") return true;
    if (s == "false" || s == "0" || s == "no") return false;
    fail(line, "expected a boolean, got '" + s + "'");
  }
};

}  // namespace mpsoc::sim
