#include "verify/context.hpp"

namespace mpsoc::verify {

VerifyContext::VerifyContext(sim::Simulator& sim) : sim_(sim) {}

VerifyContext::~VerifyContext() = default;

std::uint64_t VerifyContext::eventsObserved() const {
  std::uint64_t total = 0;
  for (const auto& m : monitors_) total += m->eventsObserved();
  return total;
}

void VerifyContext::finish(bool expect_drained) const {
  for (const auto& m : monitors_) m->finish(expect_drained);
}

}  // namespace mpsoc::verify
