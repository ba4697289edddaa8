#pragma once
// Set-associative write-back, write-allocate cache model with true LRU, used
// for the ST220's instruction and data caches.  Purely functional (no
// timing): the core model turns misses into bus transactions and stall
// cycles.

#include <cstdint>
#include <optional>
#include <tuple>
#include <vector>

namespace mpsoc::cpu {

struct CacheConfig {
  std::uint32_t size_bytes = 32 * 1024;
  std::uint32_t line_bytes = 32;
  std::uint32_t ways = 4;
};

struct CacheAccessResult {
  bool hit = false;
  /// Line to fetch on a miss.
  std::optional<std::uint64_t> fill_addr;
  /// Dirty victim that must be written back.
  std::optional<std::uint64_t> writeback_addr;
};

class Cache {
 public:
  explicit Cache(CacheConfig cfg);

  CacheAccessResult access(std::uint64_t addr, bool is_write);

  /// Drop everything (e.g. on a synthetic context switch).
  void invalidateAll();

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  double missRate() const {
    const std::uint64_t n = hits_ + misses_;
    return n ? static_cast<double>(misses_) / static_cast<double>(n) : 0.0;
  }
  std::uint32_t lineBytes() const { return cfg_.line_bytes; }

  /// State-manifest hook (src/sim/state.hpp); cfg_/sets_ are configuration.
  auto simStateMembers() { return std::tie(lines_, tick_, hits_, misses_); }

 private:
  struct Line {
    bool valid = false;
    bool dirty = false;
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  ///< larger = more recently used

    auto simStateMembers() { return std::tie(valid, dirty, tag, lru); }
  };

  std::uint64_t setOf(std::uint64_t addr) const {
    return (addr / cfg_.line_bytes) % sets_;
  }
  std::uint64_t tagOf(std::uint64_t addr) const {
    return addr / cfg_.line_bytes / sets_;
  }
  std::uint64_t lineAddr(std::uint64_t tag, std::uint64_t set) const {
    return (tag * sets_ + set) * cfg_.line_bytes;
  }

  CacheConfig cfg_;
  std::uint64_t sets_;
  std::vector<Line> lines_;  ///< sets_ x ways, row-major
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace mpsoc::cpu
