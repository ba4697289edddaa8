#pragma once
// Port bundles: the registered FIFO pairs that connect masters, interconnect
// engines, memories and bridges.  A port always lives in the clock domain of
// the bus it belongs to; clock-domain crossings happen only inside bridges.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "sim/fifo.hpp"
#include "txn/transaction.hpp"

namespace mpsoc::txn {

/// Bus-side view of a master: the master pushes requests, the bus pushes
/// completed responses.
struct InitiatorPort {
  InitiatorPort(sim::ClockDomain& clk, const std::string& name,
                std::size_t req_depth = 4, std::size_t rsp_depth = 8)
      : req(PortKey{}, clk, name + ".req", req_depth),
        rsp(PortKey{}, clk, name + ".rsp", rsp_depth) {}

  sim::SyncFifo<RequestPtr> req;
  sim::SyncFifo<ResponsePtr> rsp;
};

/// Bus-side view of a slave: the bus pushes requests (the depth of `req` is
/// the slave's input buffering — the "prefetch FIFO" of an STBus target or
/// the input FIFO of the LMI controller), the slave pushes scheduled
/// responses.
struct TargetPort {
  TargetPort(sim::ClockDomain& clk, const std::string& name,
             std::size_t req_depth = 1, std::size_t rsp_depth = 4)
      : req(PortKey{}, clk, name + ".req", req_depth),
        rsp(PortKey{}, clk, name + ".rsp", rsp_depth) {}

  sim::SyncFifo<RequestPtr> req;
  sim::SyncFifo<ResponsePtr> rsp;
};

/// Flat address decoding: first matching region wins.
class AddressMap {
 public:
  struct Region {
    std::uint64_t base;
    std::uint64_t size;
    std::size_t target;
  };

  void add(std::uint64_t base, std::uint64_t size, std::size_t target) {
    regions_.push_back({base, size, target});
  }

  std::optional<std::size_t> lookup(std::uint64_t addr) const {
    for (const auto& r : regions_) {
      if (addr >= r.base && addr < r.base + r.size) return r.target;
    }
    return std::nullopt;
  }

 private:
  std::vector<Region> regions_;
};

}  // namespace mpsoc::txn
