#pragma once
// Bus arbitration policies.
//
// STBus nodes in the reference platform use priority-based arbitration with
// optional message-granularity grant holding; AHB layers use fixed priority
// or round-robin; AXI channel multiplexers use round-robin per channel.  The
// additional policies cover the resource-sharing mechanisms surveyed in the
// paper's related work: least-recently-used, time-division multiplexing
// (Sonics-style) and lottery (LOTTERYBUS-style) arbitration, so their impact
// on the memory-centric platform can be compared (bench_abl_arbitration).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <tuple>
#include <vector>

#include "sim/time.hpp"

namespace mpsoc::txn {

enum class ArbPolicy : std::uint8_t {
  FixedPriority,      ///< highest priority label wins, ties to lowest index
  RoundRobin,         ///< cyclic order from the previous winner
  LeastRecentlyUsed,  ///< longest-ungranted requester wins
  Tdma,               ///< fixed slot owner per time window, RR reclaiming
  Lottery,            ///< weighted random: priority+1 tickets per requester
};

inline const char* toString(ArbPolicy p) {
  switch (p) {
    case ArbPolicy::FixedPriority: return "fixed-priority";
    case ArbPolicy::RoundRobin: return "round-robin";
    case ArbPolicy::LeastRecentlyUsed: return "LRU";
    case ArbPolicy::Tdma: return "TDMA";
    case ArbPolicy::Lottery: return "lottery";
  }
  return "?";
}

class Arbiter {
 public:
  struct Candidate {
    std::size_t index;      ///< requester (initiator port) index
    std::uint8_t priority;  ///< higher wins under FixedPriority / more tickets
  };

  explicit Arbiter(ArbPolicy policy = ArbPolicy::FixedPriority,
                   std::uint64_t seed = 0x5eedULL)
      : policy_(policy), rng_(seed) {}

  ArbPolicy policy() const { return policy_; }

  /// TDMA slot width, in cycles of the arbitrating clock.
  void setTdmaSlot(sim::Cycle cycles) { tdma_slot_ = cycles ? cycles : 1; }

  /// Select a winner among `cands` (non-empty indices < num_requesters).
  /// `now` is the local cycle of the arbitrating component (used by TDMA and
  /// LRU bookkeeping).
  std::optional<std::size_t> pick(const std::vector<Candidate>& cands,
                                  std::size_t num_requesters,
                                  sim::Cycle now = 0) {
    if (cands.empty()) return std::nullopt;
    std::size_t winner = cands.front().index;
    switch (policy_) {
      case ArbPolicy::FixedPriority: {
        Candidate best = cands.front();
        for (const auto& c : cands) {
          if (c.priority > best.priority ||
              (c.priority == best.priority && c.index < best.index)) {
            best = c;
          }
        }
        winner = best.index;
        break;
      }
      case ArbPolicy::RoundRobin: {
        winner = roundRobin(cands, num_requesters);
        break;
      }
      case ArbPolicy::LeastRecentlyUsed: {
        ensureSize(num_requesters);
        std::size_t best_idx = cands.front().index;
        sim::Cycle best_time = last_granted_at_[best_idx];
        for (const auto& c : cands) {
          if (last_granted_at_[c.index] < best_time ||
              (last_granted_at_[c.index] == best_time &&
               c.index < best_idx)) {
            best_idx = c.index;
            best_time = last_granted_at_[c.index];
          }
        }
        winner = best_idx;
        break;
      }
      case ArbPolicy::Tdma: {
        const std::size_t owner =
            static_cast<std::size_t>(now / tdma_slot_) % num_requesters;
        bool owner_requesting = false;
        for (const auto& c : cands) {
          if (c.index == owner) {
            owner_requesting = true;
            break;
          }
        }
        // Unused slots are reclaimed round-robin (work-conserving TDMA).
        winner = owner_requesting ? owner : roundRobin(cands, num_requesters);
        break;
      }
      case ArbPolicy::Lottery: {
        std::uint64_t total = 0;
        for (const auto& c : cands) total += c.priority + 1u;
        std::uint64_t draw =
            std::uniform_int_distribution<std::uint64_t>(0, total - 1)(rng_);
        for (const auto& c : cands) {
          const std::uint64_t tickets = c.priority + 1u;
          if (draw < tickets) {
            winner = c.index;
            break;
          }
          draw -= tickets;
        }
        break;
      }
    }
    last_grant_ = winner;
    ensureSize(num_requesters);
    if (winner < last_granted_at_.size()) last_granted_at_[winner] = now + 1;
    return winner;
  }

  /// State-manifest hook (src/sim/state.hpp): everything pick() mutates —
  /// grant history, LRU timestamps and the lottery engine (policy_ and the
  /// TDMA slot width are configuration).
  auto simStateMembers() {
    return std::tie(last_grant_, last_granted_at_, rng_);
  }

 private:
  std::size_t roundRobin(const std::vector<Candidate>& cands,
                         std::size_t num_requesters) {
    for (std::size_t off = 1; off <= num_requesters; ++off) {
      std::size_t idx = (last_grant_ + off) % num_requesters;
      for (const auto& c : cands) {
        if (c.index == idx) return idx;
      }
    }
    return cands.front().index;
  }

  void ensureSize(std::size_t n) {
    if (last_granted_at_.size() < n) last_granted_at_.resize(n, 0);
  }

  ArbPolicy policy_;
  std::size_t last_grant_ = 0;
  sim::Cycle tdma_slot_ = 16;
  std::vector<sim::Cycle> last_granted_at_;
  std::mt19937_64 rng_;
};

}  // namespace mpsoc::txn
