#include "sim/component.hpp"

#include "sim/check.hpp"
#include "sim/simulator.hpp"

namespace mpsoc::sim {

Component::Component(ClockDomain& clk, std::string name)
    : clk_(clk), name_(std::move(name)) {
  clk_.addComponent(this);
}

Component::~Component() {
  // Wake first so the kernel's asleep counter stays balanced when a sleeping
  // component is destroyed.
  wake();
  clk_.removeComponent(this);
}

void Component::sleep() {
  if (asleep_) return;
  SIM_CHECK_CTX(idle(), name_, &clk_,
                "sleep() while not idle: a component may only declare itself "
                "quiescent when it has no pending work");
  asleep_ = true;
  clk_.simulator().noteSleep();
}

void Component::restoreStateBase() {
  // Mirror sleep()/wake() without their contracts: a restore may legally put
  // the component back into either activity state, and only the simulator's
  // asleep counter must stay balanced.
  if (asleep_ == state_base_asleep_) return;
  asleep_ = state_base_asleep_;
  if (state_base_asleep_) {
    clk_.simulator().noteSleep();
  } else {
    clk_.simulator().noteWake();
  }
}

void Component::wake() {
  if (!asleep_) return;
  asleep_ = false;
  clk_.simulator().noteWake();
}

}  // namespace mpsoc::sim
