#include "sim/component.hpp"

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
  parked_ = !idle();
  wake_at_ = 0;
  if (asleep_) return;
  asleep_ = true;
  clk_.simulator().noteSleep();
}

void Component::sleepUntil(Cycle c) {
  if (c <= clk_.now()) return;
  // Re-deriving the same wait (an ungated run evaluates sleepers) must leave
  // the state and the domain's wake list unchanged.
  if (parked_ && wake_at_ == c) return;
  parked_ = true;
  wake_at_ = c;
  clk_.addTimedWake(this, c);
  if (asleep_) return;
  asleep_ = true;
  clk_.simulator().noteSleep();
}

void Component::restoreStateBase() {
  // Mirror sleep()/wake() without deriving anything: a restore may legally
  // put the component back into any activity state, and only the
  // simulator's asleep counter must stay balanced.
  parked_ = saved_activity_.parked;
  wake_at_ = saved_activity_.wake_at;
  if (asleep_ == saved_activity_.asleep) return;
  sleep_checked_ = false;
  asleep_ = saved_activity_.asleep;
  if (asleep_) {
    clk_.simulator().noteSleep();
  } else {
    clk_.simulator().noteWake();
  }
}

void Component::wake() {
  if (!asleep_) return;
  asleep_ = false;
  parked_ = false;
  wake_at_ = 0;
  sleep_checked_ = false;
  clk_.simulator().noteWake();
}

}  // namespace mpsoc::sim
