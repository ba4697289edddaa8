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
}

void ClockDomain::removeComponent(Component* c) {
  components_.erase(std::remove(components_.begin(), components_.end(), c),
                    components_.end());
  timed_wakes_.erase(
      std::remove_if(timed_wakes_.begin(), timed_wakes_.end(),
                     [c](const TimedWake& w) { return w.c == c; }),
      timed_wakes_.end());
}

void ClockDomain::fireWakes() {
  const Cycle due = cycle_ + 1;
  Cycle next = kNoWake;
  std::size_t keep = 0;
  for (const TimedWake& w : timed_wakes_) {
    if (w.at <= due) {
      if (w.c->wakeAt() == w.at) w.c->wake();
    } else {
      timed_wakes_[keep++] = w;
      next = std::min(next, w.at);
    }
  }
  timed_wakes_.resize(keep);
  next_wake_ = next;
}

void ClockDomain::rebuildTimedWakes() {
  timed_wakes_.clear();
  next_wake_ = kNoWake;
  for (Component* c : components_) {
    if (c->wakeAt() != 0) addTimedWake(c, c->wakeAt());
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
    if (gate && c->asleep()) continue;
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
