#include "sim/clock.hpp"

#include <algorithm>

#include "sim/component.hpp"
#include "sim/simulator.hpp"

namespace mpsoc::sim {

ClockDomain::ClockDomain(Simulator& sim, std::string name, Picos period_ps)
    : sim_(sim), name_(std::move(name)), period_ps_(period_ps),
      next_edge_ps_(period_ps) {}

void ClockDomain::addComponent(Component* c) {
  components_.push_back(c);
  sim_.noteComponentAdded(c);
}

void ClockDomain::removeComponent(Component* c) {
  components_.erase(std::remove(components_.begin(), components_.end(), c),
                    components_.end());
  sim_.noteComponentRemoved(c);
}

void ClockDomain::addUpdatable(Updatable* u) { updatables_.push_back(u); }

void ClockDomain::markAlwaysCommit(Updatable* u) {
  if (u->always_commit_) return;
  u->always_commit_ = true;
  always_commit_.push_back(u);
}

void ClockDomain::removeUpdatable(Updatable* u) {
  updatables_.erase(std::remove(updatables_.begin(), updatables_.end(), u),
                    updatables_.end());
  commit_queue_.erase(
      std::remove(commit_queue_.begin(), commit_queue_.end(), u),
      commit_queue_.end());
  always_commit_.erase(
      std::remove(always_commit_.begin(), always_commit_.end(), u),
      always_commit_.end());
}

void ClockDomain::evaluateEdge() {
  ++cycle_;
  evaluateComponents(false);
}

void ClockDomain::evaluateComponents(bool reverse) {
  if (reverse) {
    // Deep-check replay runs *every* component, including quiescent ones: a
    // component that went to sleep while it still had work to stage diverges
    // from the forward (gated) pass here and trips the staged-digest check.
    for (auto it = components_.rbegin(); it != components_.rend(); ++it) {
      (*it)->evaluate();
    }
    return;
  }
  const bool gate = sim_.activityGating();
  // Index loop: a component constructed during evaluate() (mid-run
  // registration) is appended to components_ and joins this very edge, in
  // deterministic registration order.
  for (std::size_t i = 0; i < components_.size(); ++i) {
    Component* c = components_[i];
    if (gate && c->asleep()) continue;
    c->evaluate();
  }
}

void ClockDomain::commitEdge() {
  for (Updatable* u : always_commit_) {
    u->commit();
  }
  for (Updatable* u : commit_queue_) {
    u->commit_queued_ = false;
    if (!u->always_commit_) u->commit();
  }
  commit_queue_.clear();
  next_edge_ps_ += period_ps_;
}

}  // namespace mpsoc::sim
