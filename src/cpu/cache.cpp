#include "cpu/cache.hpp"

#include "sim/check.hpp"

namespace mpsoc::cpu {

Cache::Cache(CacheConfig cfg) : cfg_(cfg) {
  SIM_CHECK(cfg_.line_bytes > 0 && cfg_.ways > 0,
            "cache requires line_bytes > 0 and ways > 0 (got line_bytes="
                << cfg_.line_bytes << ", ways=" << cfg_.ways << ")");
  sets_ = cfg_.size_bytes / cfg_.line_bytes / cfg_.ways;
  if (sets_ == 0) sets_ = 1;
  lines_.assign(sets_ * cfg_.ways, Line{});
}

void Cache::invalidateAll() {
  for (auto& l : lines_) l = Line{};
}

CacheAccessResult Cache::access(std::uint64_t addr, bool is_write) {
  ++tick_;
  const std::uint64_t set = setOf(addr);
  const std::uint64_t tag = tagOf(addr);
  Line* base = &lines_[set * cfg_.ways];

  CacheAccessResult res;

  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    Line& l = base[w];
    if (l.valid && l.tag == tag) {
      ++hits_;
      l.lru = tick_;
      res.hit = true;
      if (is_write) l.dirty = true;
      return res;
    }
  }

  ++misses_;

  // Allocate: evict the LRU way.
  Line* victim = base;
  for (std::uint32_t w = 1; w < cfg_.ways; ++w) {
    if (!base[w].valid) {
      victim = &base[w];
      break;
    }
    if (base[w].lru < victim->lru) victim = &base[w];
  }
  if (victim->valid && victim->dirty) {
    res.writeback_addr = lineAddr(victim->tag, set);
  }
  res.fill_addr = (addr / cfg_.line_bytes) * cfg_.line_bytes;
  victim->valid = true;
  victim->dirty = is_write;
  victim->tag = tag;
  victim->lru = tick_;
  return res;
}

}  // namespace mpsoc::cpu
