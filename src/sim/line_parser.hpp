#pragma once
// Text number readers: LineParser for the line-oriented text formats (IPTG
// agent configs, scenario files, transaction traces) and parseNumber() for
// command-line arguments.  Each grammar keeps its own message prefix: errors
// throw std::runtime_error("<what>, line N: <message>").  Every integer is
// read at its destination's width, so no text input wraps silently.

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace mpsoc::sim {

/// `s` without leading and trailing whitespace.
inline std::string trim(const std::string& s) {
  constexpr const char* kSpace = " \t\n\v\f\r";
  const std::size_t first = s.find_first_not_of(kSpace);
  if (first == std::string::npos) return "";
  return s.substr(first, s.find_last_not_of(kSpace) - first + 1);
}

/// Reads a whole decimal command-line argument into `out`.  False on a
/// malformed value or one that does not fit T; the caller reports a usage
/// error.
template <typename T>
bool parseNumber(std::string_view arg, T& out) {
  const char* last = arg.data() + arg.size();
  const auto [ptr, ec] = std::from_chars(arg.data(), last, out);
  return ec == std::errc() && ptr == last;
}

struct LineParser {
  const char* what;  ///< message prefix naming the grammar

  [[noreturn]] void fail(std::size_t line, const std::string& msg) const {
    throw std::runtime_error(std::string(what) + ", line " +
                             std::to_string(line) + ": " + msg);
  }

  /// Unsigned integer read at its destination's width: decimal, or hex after
  /// a `0x` prefix.  A value that does not fit T, a negative one included,
  /// is "number out of range".
  template <typename T = std::uint64_t>
  T integer(const std::string& s, std::size_t line) const {
    const bool hex =
        s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X');
    const char* first = s.data() + (hex ? 2 : 0);
    const char* last = s.data() + s.size();
    T v{};
    const auto [ptr, ec] = std::from_chars(first, last, v, hex ? 16 : 10);
    const bool negative = s.size() > 1 && s[0] == '-' && s[1] >= '0' &&
                          s[1] <= '9';
    if (ec == std::errc::result_out_of_range || negative) {
      fail(line, "number out of range: '" + s + "'");
    }
    if (ec != std::errc()) fail(line, "expected a number, got '" + s + "'");
    if (ptr != last) fail(line, "trailing characters in '" + s + "'");
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
