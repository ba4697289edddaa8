#include "sim/clock.hpp"

#include <algorithm>

#include "sim/component.hpp"
#include "sim/simulator.hpp"

namespace mpsoc::sim {

namespace {
/// A timed wake (Component::sleepUntil) is due once its domain reaches the
/// wake cycle.
bool timedWakeDue(const Component* c, Cycle cycle) {
  return c->wakeAt() != 0 && c->wakeAt() <= cycle;
}
}  // namespace

ClockDomain::ClockDomain(Simulator& sim, std::string name, Picos period_ps)
    : sim_(sim), name_(std::move(name)), period_ps_(period_ps),
      next_edge_ps_(period_ps) {}

void ClockDomain::addComponent(Component* c) {
  components_.push_back(c);
}

void ClockDomain::removeComponent(Component* c) {
  components_.erase(std::remove(components_.begin(), components_.end(), c),
                    components_.end());
}

void ClockDomain::wakeDue() {
  for (Component* c : components_) {
    if (timedWakeDue(c, cycle_ + 1)) c->wake();
  }
}

void ClockDomain::addUpdatable(Updatable* u) { updatables_.push_back(u); }

void ClockDomain::removeUpdatable(Updatable* u) {
  updatables_.erase(std::remove(updatables_.begin(), updatables_.end(), u),
                    updatables_.end());
  commit_queue_.erase(
      std::remove(commit_queue_.begin(), commit_queue_.end(), u),
      commit_queue_.end());
}

void ClockDomain::evaluateEdge() {
  ++cycle_;
  const bool gate = sim_.activityGating();
  std::uint64_t evaluated = 0;
  // Index loop: a component constructed during evaluate() (mid-run
  // registration) is appended to components_ and joins this very edge, in
  // deterministic registration order.
  for (std::size_t i = 0; i < components_.size(); ++i) {
    Component* c = components_[i];
    if (c->asleep()) {
      if (timedWakeDue(c, cycle_)) {
        c->wake();
      } else if (gate) {
        continue;
      }
    }
    c->evaluate();
    ++evaluated;
  }
  sim_.noteEvaluations(evaluated);
}

void ClockDomain::commitEdge() {
  for (Updatable* u : commit_queue_) {
    u->commit_queued_ = false;
    u->commit();
  }
  commit_queue_.clear();
  next_edge_ps_ += period_ps_;
}

}  // namespace mpsoc::sim
