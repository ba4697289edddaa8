#pragma once
// On-chip shared memory with a fixed number of wait states — the "cheap
// access cost" memory core of the paper's architectural variants (Sections 4.1
// and 4.2, Figs. 3 and 4).
//
// Timing model (W = wait_states, P = clock period):
//   read  — first data beat (1+W) cycles after the request is consumed, one
//           beat every (1+W) cycles: with W=1 the response channel runs at
//           exactly 50% efficiency (1 transfer, 1 idle), as in Section 4.1.2;
//   write — data is absorbed at W wait states per beat plus one handshake
//           cycle; non-posted writes are acknowledged when absorption ends.
//
// The device is single-ported with single-access occupancy: the next request
// is consumed only when the current access has produced its last beat.  Its
// input buffering is the depth of the TargetPort request FIFO it is attached
// to (depth 1 reproduces the paper's "single-slot buffering" target).

#include <cstdint>

#include "sim/component.hpp"
#include "txn/ports.hpp"

namespace mpsoc::verify {
class VerifyContext;
}  // namespace mpsoc::verify

namespace mpsoc::mem {

struct SimpleMemoryConfig {
  unsigned wait_states = 1;
};

class SimpleMemory final : public sim::Component {
 public:
  SimpleMemory(sim::ClockDomain& clk, std::string name, txn::TargetPort& port,
               SimpleMemoryConfig cfg);

  void evaluate() override;
  bool idle() const override;

  std::uint64_t accessesServed() const { return accesses_; }
  std::uint64_t beatsServed() const { return beats_; }

  /// Attach a TargetMonitor to the memory's port (single service, no
  /// responses for posted writes, causal beat schedules).
  void attachMonitors(verify::VerifyContext& ctx);

 private:
  txn::TargetPort& port_;
  SimpleMemoryConfig cfg_;
  sim::Picos busy_until_ = 0;
  std::uint64_t accesses_ = 0;
  std::uint64_t beats_ = 0;

  SIM_STATE_MEMBERS(busy_until_, accesses_, beats_);
  SIM_STATE_EXEMPT(cfg_, "immutable configuration");
};

}  // namespace mpsoc::mem
