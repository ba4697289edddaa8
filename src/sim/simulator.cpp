#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>

#include "sim/check.hpp"
#include "sim/component.hpp"
#include "sim/state.hpp"

namespace mpsoc::sim {

namespace {
constexpr Picos kNever = std::numeric_limits<Picos>::max();

/// Snapshot one component's manifest; `user` names the kernel feature that
/// needs it in the report for an unmanifested component.
void saveManifest(Component* c, const ClockDomain* d, const char* user) {
  SIM_CHECK_CTX(c->saveState(), c->name(), d,
                "component has no state manifest (SIM_STATE) — "
                    << user
                    << " needs every component to snapshot; the "
                       "unmanifested-state lint rule flags the class");
}

// The one save/restore path over a list of domains (owned or borrowed
// pointers): checkpoint() applies it to every domain between edges,
// deep-check to the domains of the current edge before any evaluate.
template <typename Domains>
void saveDomains(const Domains& domains, const char* user) {
  for (const auto& d : domains) {
    for (Component* c : d->components()) saveManifest(c, &*d, user);
    for (Updatable* u : d->updatables()) u->saveCheckpoint();
  }
}

template <typename Domains>
void restoreDomains(const Domains& domains) {
  for (const auto& d : domains) {
    for (Component* c : d->components()) c->restoreState();
    for (Updatable* u : d->updatables()) u->restoreCheckpoint();
  }
}
}  // namespace

Simulator::Simulator() = default;
Simulator::~Simulator() = default;

ClockDomain& Simulator::addClockDomain(const std::string& name, double mhz) {
  domains_.push_back(
      std::make_unique<ClockDomain>(*this, name, periodFromMhz(mhz)));
  ClockDomain* d = domains_.back().get();
  if (now_ps_ > 0) d->alignFirstEdge(now_ps_);
  return *d;
}

Picos Simulator::nextEdgeTime() const {
  Picos t = kNever;
  for (const auto& d : domains_) t = std::min(t, d->nextEdge());
  return t;
}

bool Simulator::step() {
  if (domains_.empty()) return false;
  ++edges_executed_;

  // The edge is the soonest next edge; every domain due at it joins, in
  // registration order, so coincident edges evaluate together.
  now_ps_ = nextEdgeTime();
  edge_scratch_.clear();
  for (const auto& d : domains_) {
    if (d->nextEdge() == now_ps_) edge_scratch_.push_back(d.get());
  }

  // Phase 1: evaluate every domain whose edge coincides with t.
  phase_ = Phase::Evaluate;
  if (deep_check_) {
    evaluateDeepChecked(edge_scratch_);
  } else {
    for (ClockDomain* d : edge_scratch_) d->evaluateEdge();
  }

  // Phase 2: commit their staged state.
  phase_ = Phase::Commit;
  for (ClockDomain* d : edge_scratch_) d->commitEdge();
  phase_ = Phase::Outside;
  return true;
}

void Simulator::evaluateDeepChecked(
    const std::vector<ClockDomain*>& edge_domains) {
  // Timed wakes due at this edge fire before the save, so the replay sees
  // their components awake, as the forward pass's scan will.
  for (ClockDomain* d : edge_domains) d->wakeDue();
  // Replay first, in reverse order: a well-behaved edge stages the same work
  // regardless of component registration order.
  saveDomains(edge_domains, "deep-check");
  const std::uint64_t txn_id = next_txn_id_;
  // The replay sees every edge domain at its new cycle; the forward pass
  // bumps each counter itself (evaluateEdge), as a plain run does.
  for (ClockDomain* d : edge_domains) ++d->cycle_;
  in_replay_ = true;
  replaySleepers(edge_domains);
  for (auto it = edge_domains.rbegin(); it != edge_domains.rend(); ++it) {
    const auto& comps = (*it)->components();
    for (auto c = comps.rbegin(); c != comps.rend(); ++c) {
      if (!(*c)->asleep()) (*c)->evaluate();
    }
  }
  in_replay_ = false;
  std::vector<std::uint64_t> digests;
  for (ClockDomain* d : edge_domains) {
    --d->cycle_;
    for (Updatable* u : d->updatables()) digests.push_back(u->stagedDigest());
  }

  // Rewind, then run the forward pass exactly as a plain run would: its
  // staged work is what the edge commits, under the same transaction ids.
  restoreDomains(edge_domains);
  next_txn_id_ = txn_id;
  for (ClockDomain* d : edge_domains) d->evaluateEdge();

  std::size_t i = 0;
  for (ClockDomain* d : edge_domains) {
    for (Updatable* u : d->updatables()) {
      SIM_CHECK_CTX(u->stagedDigest() == digests[i], "deep-check", d,
                    "order-dependent evaluate: staged state of '"
                        << u->updatableName()
                        << "' diverged between forward and reverse "
                           "evaluation passes");
      ++i;
    }
  }

  for (ClockDomain* d : edge_domains) {
    for (Updatable* u : d->updatables()) u->checkInvariants();
  }
}

void Simulator::replaySleepers(const std::vector<ClockDomain*>& edge_domains) {
  // Every component asleep at the start of the edge is evaluated first, each
  // against the activity contract: its evaluate() stages nothing (checked on
  // every edge) and leaves its own state digest unchanged (checked on the
  // first edge of each sleep: a counter bumped per cycle shows there, and
  // digesting every sleeper on every edge would cost more than the rest of
  // deep-check).  A component that slept while it still had work to do is
  // named here on the first edge it would act.
  dc_staged_.clear();
  for (ClockDomain* d : edge_domains) {
    for (Updatable* u : d->updatables()) {
      dc_staged_.push_back(u->stagedDigest());
    }
  }
  for (auto it = edge_domains.rbegin(); it != edge_domains.rend(); ++it) {
    const auto& comps = (*it)->components();
    for (auto c = comps.rbegin(); c != comps.rend(); ++c) {
      Component* sleeper = *c;
      if (!sleeper->asleep()) continue;
      const bool check_state = !sleeper->sleep_checked_;
      const std::uint64_t before = check_state ? sleeper->stateDigest() : 0;
      sleeper->evaluate();
      std::size_t i = 0;
      for (ClockDomain* d : edge_domains) {
        for (Updatable* u : d->updatables()) {
          SIM_CHECK_CTX(u->stagedDigest() == dc_staged_[i], sleeper->name(),
                        *it,
                        "asleep but its evaluate() staged work on '"
                            << u->updatableName()
                            << "': a component may only sleep while its "
                               "evaluate() is a no-op until woken");
          ++i;
        }
      }
      if (!check_state) continue;
      SIM_CHECK_CTX(sleeper->stateDigest() == before, sleeper->name(), *it,
                    "asleep but its evaluate() changed its state: a "
                    "component may only sleep while its evaluate() is a "
                    "no-op until woken");
      // Unchanged, so the rewind after the replay leaves the flag standing.
      sleeper->sleep_checked_ = true;
    }
  }
}

void Simulator::addCheckpointable(Checkpointable* c) {
  checkpointables_.push_back(c);
}

void Simulator::checkpoint() {
  SIM_CHECK(phase_ == Phase::Outside,
            "checkpoint() is only legal between edges (Phase::Outside)");
  SIM_CHECK(!deep_check_,
            "checkpoint() with deep-check on: deep-check reuses the "
            "snapshot slots on every edge");
  saveDomains(domains_, "checkpoint()");
  for (Checkpointable* c : checkpointables_) c->saveState();
  ckpt_.now_ps = now_ps_;
  ckpt_.edges = edges_executed_;
  ckpt_.next_txn_id = next_txn_id_;
  ckpt_.domain_state.clear();
  for (const auto& d : domains_) {
    ckpt_.domain_state.emplace_back(d->cycle_, d->next_edge_ps_);
  }
  ckpt_.valid = true;
}

void Simulator::restoreCheckpoint() {
  SIM_CHECK(ckpt_.valid, "restoreCheckpoint() without a prior checkpoint()");
  SIM_CHECK(phase_ == Phase::Outside,
            "restoreCheckpoint() is only legal between edges");
  SIM_CHECK(domains_.size() == ckpt_.domain_state.size(),
            "clock-domain population changed since the checkpoint was taken");
  restoreDomains(domains_);
  for (const auto& d : domains_) {
    for (Component* c : d->components()) c->sleep_checked_ = false;
  }
  for (Checkpointable* c : checkpointables_) c->restoreState();
  now_ps_ = ckpt_.now_ps;
  edges_executed_ = ckpt_.edges;
  next_txn_id_ = ckpt_.next_txn_id;
  for (std::size_t i = 0; i < domains_.size(); ++i) {
    domains_[i]->cycle_ = ckpt_.domain_state[i].first;
    domains_[i]->next_edge_ps_ = ckpt_.domain_state[i].second;
  }
}

std::uint64_t Simulator::stateDigest() const {
  std::vector<std::pair<std::string, std::uint64_t>> items;
  stateDigestItems(items);
  state::Digest d;
  for (const auto& [label, v] : items) {
    d.add(label);
    d.add(v);
  }
  return d.value();
}

void Simulator::stateDigestItems(
    std::vector<std::pair<std::string, std::uint64_t>>& out) const {
  SIM_CHECK(phase_ == Phase::Outside,
            "stateDigest() is only meaningful between edges");
  for (const auto& d : domains_) {
    for (const Component* c : d->components()) {
      out.emplace_back(d->name() + ":" + c->name(), c->stateDigest());
    }
    std::size_t i = 0;
    for (const Updatable* u : d->updatables()) {
      out.emplace_back(d->name() + ":updatable#" + std::to_string(i),
                       u->checkpointDigest());
      ++i;
    }
  }
  {
    state::Digest kd;
    kd.add(static_cast<std::uint64_t>(now_ps_));
    kd.add(edges_executed_);
    kd.add(next_txn_id_);
    for (const auto& d : domains_) {
      kd.add(d->cycle_);
      kd.add(static_cast<std::uint64_t>(d->next_edge_ps_));
    }
    out.emplace_back("kernel:time", kd.value());
  }
  std::size_t i = 0;
  for (const Checkpointable* c : checkpointables_) {
    out.emplace_back("aux#" + std::to_string(i) + ":" + c->checkpointName(),
                     c->stateDigest());
    ++i;
  }
}

std::optional<ReplayDivergence> Simulator::replayCheck(std::uint64_t edges) {
  using DigestItems = std::vector<std::pair<std::string, std::uint64_t>>;
  checkpoint();
  for (std::uint64_t i = 0; i < edges && step(); ++i) {
  }
  DigestItems first;
  stateDigestItems(first);
  const Picos first_end = now_ps_;

  restoreCheckpoint();
  for (std::uint64_t i = 0; i < edges && step(); ++i) {
  }
  DigestItems replay;
  stateDigestItems(replay);

  SIM_CHECK(first_end == now_ps_,
            "replay check: replayed window ended at t="
                << now_ps_ << " ps, first pass ended at t=" << first_end
                << " ps (kernel time state not restored)");
  SIM_CHECK(first.size() == replay.size(),
            "replay check: digest item count changed across the rewind ("
                << first.size() << " vs " << replay.size()
                << " — state holders registered mid-window?)");
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (first[i].second != replay[i].second) {
      return ReplayDivergence{first[i].first, first[i].second,
                              replay[i].second};
    }
  }
  return std::nullopt;
}

Picos Simulator::run(Picos max_time_ps) {
  while (now_ps_ < max_time_ps) {
    // Peek the upcoming instant so no edge past the bound ever executes; an
    // edge landing exactly on the bound still runs.
    const Picos t = nextEdgeTime();
    if (t == kNever || t > max_time_ps) break;
    if (!step()) break;
  }
  return now_ps_;
}

Picos Simulator::runUntilIdle(Picos max_time_ps) {
  // A component may become non-idle again one edge after its neighbours push
  // state to it, so require a few consecutive all-idle instants before
  // declaring convergence.
  constexpr int kQuiesceEdges = 8;
  int idle_streak = 0;
  Picos last_active = now_ps_;
  // Already quiescent on entry: report the current time as the last-active
  // instant and execute nothing (previously the loop burned the full quiesce
  // streak of edges, advancing time and stats on an idle platform).
  if (allIdle()) return last_active;
  while (now_ps_ < max_time_ps) {
    if (!step()) break;
    if (allIdle()) {
      if (++idle_streak >= kQuiesceEdges) break;
    } else {
      idle_streak = 0;
      last_active = now_ps_;
    }
  }
  return last_active;
}

bool Simulator::allIdle() const {
  for (const auto& d : domains_) {
    for (Component* c : d->components()) {
      if (!c->idle()) return false;
    }
  }
  return true;
}

std::size_t Simulator::asleepComponents() const {
  std::size_t n = 0;
  for (const auto& d : domains_) {
    for (const Component* c : d->components()) n += c->asleep() ? 1 : 0;
  }
  return n;
}

void Simulator::finish() {
  if (finished_) return;
  finished_ = true;
  for (const auto& d : domains_) {
    for (Component* c : d->components()) c->endOfSimulation();
  }
}

}  // namespace mpsoc::sim
