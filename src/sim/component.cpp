#include "sim/component.hpp"

namespace mpsoc::sim {

Component::Component(ClockDomain& clk, std::string name)
    : clk_(clk), name_(std::move(name)) {
  clk_.addComponent(this);
}

Component::~Component() { clk_.removeComponent(this); }

void Component::sleep() {
  asleep_ = true;
  wake_at_ = 0;
}

void Component::sleepUntil(Cycle c) {
  if (c <= clk_.now()) return;
  asleep_ = true;
  wake_at_ = c;
}

void Component::wake() {
  if (!asleep_) return;
  asleep_ = false;
  wake_at_ = 0;
  sleep_checked_ = false;
}

}  // namespace mpsoc::sim
