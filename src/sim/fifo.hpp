#pragma once
// Registered FIFOs — the only sanctioned inter-component communication
// mechanism.
//
// SyncFifo<T> models a synchronous hardware FIFO with registered occupancy:
//   * a push staged at edge N becomes poppable at edge N+1;
//   * a slot freed by a pop at edge N becomes pushable at edge N+1;
//   * consequently full-rate (1 item/cycle) streaming needs depth >= 2, and a
//     depth-1 FIFO models the paper's "single-slot buffering, each transaction
//     blocking" target interface.
//
// AsyncFifo<T> adds a clock-domain crossing: an item committed by the producer
// domain becomes visible to the consumer only after `sync_stages` consumer
// clock periods (a brute-force two-flop synchroniser), as in the paper's
// hybrid bridges (Fig. 2).
//
// Phase discipline:
//   * push/pop/popAt are legal only during the kernel's Evaluate phase —
//     mutating a FIFO from commit() or from outside the simulation loop
//     corrupts the registered-occupancy timeline (SIM_CHECK, in every build
//     type);
//   * commit() is private: only the kernel (ClockDomain::commitEdge) can call
//     it, so a commit from component code does not compile.
// Read-only accessors (size, front, at, registeredSize) stay unrestricted so
// probes and tests can inspect state at any time.
//
// Kernel integration: every mutation enqueues the FIFO on its domain's commit
// queue (ClockDomain::queueCommit), so a FIFO commits exactly on the edges
// that pushed or popped and untouched FIFOs cost nothing in the commit phase.
// Commit is where the per-edge observer runs (so it sees touched edges only;
// a cycle-classifying observer such as stats::FifoStateProbe settles the
// quiet cycles in between itself) and where wake hooks fire: components
// registered via wakeOnPush()/wakeOnPop() are woken whenever the edge
// actually pushed/popped, driving the kernel's activity-gating protocol.
//
// Transaction FIFOs are keyed (FifoKey below): only the port bundles can
// build a SyncFifo of RequestPtr/ResponsePtr (txn/transaction.hpp).

#include <cstddef>
#include <deque>
#include <functional>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "sim/check.hpp"
#include "sim/clock.hpp"
#include "sim/component.hpp"
#include "sim/simulator.hpp"
#include "sim/state.hpp"
#include "sim/time.hpp"

namespace mpsoc::sim {

/// End-of-edge snapshot handed to FIFO observers on every edge that pushed or
/// popped (stats probes classify cycles as full / storing / no-request from
/// it, per Fig. 6).
struct FifoEdgeInfo {
  std::size_t occupancy_before = 0;  ///< items visible at the start of the edge
  std::size_t occupancy_after = 0;   ///< items visible at the start of the next
  std::size_t pushed = 0;            ///< items staged this edge
  std::size_t popped = 0;            ///< items consumed this edge
  std::size_t capacity = 0;
};

/// Checkpoints (and deep-check's per-edge rewind) snapshot the ring, so every
/// FIFO payload must be copyable and snapshot-capable.
template <typename T>
inline constexpr bool kFifoPayload =
    std::is_copy_constructible_v<T> && state::StateSupported<T>::value;

/// Key type a SyncFifo<T> constructor demands.  Unkeyed payloads (the
/// default) need none; a specialisation naming a key type with a private
/// constructor restricts who can build FIFOs of that payload.
struct Unkeyed {};
template <typename T>
struct FifoKey {
  using type = Unkeyed;
};

template <typename T>
class SyncFifo final : public Updatable {
  static_assert(kFifoPayload<T>,
                "SyncFifo payloads must be copyable and have StateOps "
                "support (src/sim/state.hpp)");

 public:
  /// Per-edge observer: a plain function pointer + context, not a
  /// std::function — it runs inside commit() on every edge that touched the
  /// FIFO and must not pay type-erasure dispatch.
  using ObserverFn = void (*)(void* ctx, const FifoEdgeInfo& info);
  using Key = typename FifoKey<T>::type;

  SyncFifo(ClockDomain& clk, std::string name, std::size_t capacity)
    requires std::is_same_v<Key, Unkeyed>
      : SyncFifo(clk, std::move(name), capacity, Unkeyed{}) {}
  /// A FIFO of a keyed payload (transactions: txn::PortKey) takes the key.
  SyncFifo(Key, ClockDomain& clk, std::string name, std::size_t capacity)
    requires(!std::is_same_v<Key, Unkeyed>)
      : SyncFifo(clk, std::move(name), capacity, Unkeyed{}) {}
  ~SyncFifo() override { clk_.removeUpdatable(this); }

  SyncFifo(const SyncFifo&) = delete;
  SyncFifo& operator=(const SyncFifo&) = delete;

  const std::string& name() const { return name_; }
  std::size_t capacity() const { return capacity_; }
  ClockDomain& clk() { return clk_; }

  /// Space check against *registered* occupancy: pops staged this edge do not
  /// free space until the next edge.
  bool canPush(std::size_t n = 1) const {
    return committed_n_ + staged_n_ + n <= capacity_;
  }

  void push(T v) {
    checkPhase("push");
    SIM_CHECK_CTX(canPush(), name_, &clk_,
                  "push() on full FIFO (capacity " << capacity_ << ")");
    notifyTaps(push_taps_, v);
    clk_.queueCommit(this);
    ring_[rix(committed_n_ + staged_n_)] = std::move(v);
    ++staged_n_;
  }

  /// Items currently poppable (committed minus already-popped-this-edge).
  std::size_t size() const { return committed_n_ - pop_count_; }
  bool empty() const { return size() == 0; }

  /// Occupancy as seen at the start of this edge (what a probe samples).
  std::size_t registeredSize() const { return committed_n_; }

  const T& front() const {
    SIM_CHECK_CTX(!empty(), name_, &clk_, "front() on empty FIFO");
    return ring_[rix(pop_count_)];
  }

  /// Random access beyond the front — used by the LMI lookahead engine to
  /// inspect (without consuming) the first `size()` queued requests.
  const T& at(std::size_t i) const {
    SIM_CHECK_CTX(i < size(), name_, &clk_,
                  "at(" << i << ") beyond visible occupancy " << size());
    return ring_[rix(pop_count_ + i)];
  }

  T pop() {
    checkPhase("pop");
    SIM_CHECK_CTX(!empty(), name_, &clk_, "pop() on empty FIFO");
    clk_.queueCommit(this);
    T v = std::move(ring_[rix(pop_count_)]);
    ++pop_count_;
    notifyTaps(pop_taps_, v);
    return v;
  }

  /// Remove the i-th visible element (0 = front) out of order.  Used by
  /// controllers that service queued requests out of order (LMI lookahead).
  /// Only elements not yet popped this edge may be removed.
  T popAt(std::size_t i) {
    checkPhase("popAt");
    SIM_CHECK_CTX(i < size(), name_, &clk_,
                  "popAt(" << i << ") beyond visible occupancy " << size());
    if (i == 0) return pop();
    clk_.queueCommit(this);
    const std::size_t idx = pop_count_ + i;
    T v = std::move(ring_[rix(idx)]);
    ooo_hash_.add(idx);
    // Close the gap: shift every later element (committed and staged, which
    // sit contiguously after the committed run) one logical slot down.
    const std::size_t live = committed_n_ + staged_n_;
    for (std::size_t j = idx; j + 1 < live; ++j) {
      ring_[rix(j)] = std::move(ring_[rix(j + 1)]);
    }
    --committed_n_;
    ++ooo_pops_;
    // The removal frees its slot within this edge, so a producer parked on
    // the full FIFO may act in this very edge: wake it now rather than at
    // commit, exactly as an ungated run would see the space.
    for (Component* c : pop_wakers_) c->wake();
    notifyTaps(pop_taps_, v);
    return v;
  }

  /// Attach the per-edge observer (one per FIFO; a second call replaces the
  /// first).  It runs inside commit(), so it fires once per edge that pushed
  /// or popped and never on a quiet edge: between two calls the occupancy
  /// stays at the earlier call's occupancy_after.
  void setObserver(ObserverFn fn, void* ctx) {
    observer_ = fn;
    observer_ctx_ = ctx;
  }

  /// Wake `c` at the end of any edge that pushed into / popped from this
  /// FIFO.  The hooks fire during the commit phase, after occupancy updated,
  /// so the woken component sees the new state at its next evaluate.  An
  /// out-of-order popAt() frees its slot at once, so it also fires the pop
  /// hooks at once.
  void wakeOnPush(Component* c) { push_wakers_.push_back(c); }
  void wakeOnPop(Component* c) { pop_wakers_.push_back(c); }

  /// Payload observation taps for the src/verify protocol monitors: invoked
  /// synchronously for every staged push / pop (in-order and out-of-order),
  /// in program order, skipping the deep-check replay pass.  With no tap
  /// attached the cost is one empty() test per push/pop.
  using Tap = std::function<void(const T&)>;
  void addPushTap(Tap t) { push_taps_.push_back(std::move(t)); }
  void addPopTap(Tap t) { pop_taps_.push_back(std::move(t)); }

  // --- deep-check hooks -----------------------------------------------------

  const std::string& updatableName() const override { return name_; }

  std::uint64_t stagedDigest() const override {
    state::Digest d;
    d.add(staged_n_);
    d.add(pop_count_);
    d.add(ooo_pops_);
    d.add(ooo_hash_.value());
    return d.value();
  }

  void checkInvariants() const override {
    SIM_CHECK_CTX(pop_count_ <= committed_n_, name_, &clk_,
                  "pop count " << pop_count_ << " exceeds committed occupancy "
                               << committed_n_);
    SIM_CHECK_CTX(committed_n_ + staged_n_ <= capacity_,
                  name_, &clk_,
                  "occupancy " << committed_n_ + staged_n_
                               << " exceeds capacity " << capacity_);
    SIM_CHECK_CTX(head_ < capacity_, name_, &clk_,
                  "ring head " << head_ << " outside capacity " << capacity_);
  }

  // --- checkpoint hooks ---------------------------------------------------
  //
  // Between edges (and at the start of an edge) nothing is staged, so the
  // ring and its registered occupancy are the whole state; they snapshot
  // through the same state::SnapshotSlot a SIM_STATE manifest uses.  The
  // restore also brings back values that pops moved out of the ring.

  void saveCheckpoint() override {
    SIM_CHECK_CTX(staged_n_ == 0 && pop_count_ == 0 && ooo_pops_ == 0,
                  name_, &clk_,
                  "saveCheckpoint() with staged state: snapshots are only "
                  "legal before an edge stages anything");
    ckpt_.save(ring_, head_, committed_n_);
  }

  void restoreCheckpoint() override {
    ckpt_.restore(ring_, head_, committed_n_);
    staged_n_ = 0;
    pop_count_ = 0;
    ooo_pops_ = 0;
    ooo_hash_ = {};
  }

  std::uint64_t checkpointDigest() const override {
    state::Digest d;
    d.add(committed_n_ - pop_count_);
    for (std::size_t i = pop_count_; i < committed_n_; ++i) {
      state::StateOps<T>::digest(d, ring_[rix(i)]);
    }
    return d.value();
  }

 private:
  SyncFifo(ClockDomain& clk, std::string name, std::size_t capacity, Unkeyed)
      : clk_(clk), name_(std::move(name)), capacity_(capacity) {
    SIM_CHECK_CTX(capacity_ > 0, name_, &clk_, "FIFO capacity must be > 0");
    ring_.resize(capacity_);
    clk_.addUpdatable(this);
  }

  void commit() override {
    FifoEdgeInfo info;
    info.occupancy_before = committed_n_ + ooo_pops_;
    info.pushed = staged_n_;
    info.popped = pop_count_ + ooo_pops_;
    info.capacity = capacity_;

    head_ = rix(pop_count_);
    committed_n_ = committed_n_ - pop_count_ + staged_n_;
    staged_n_ = 0;
    pop_count_ = 0;
    ooo_pops_ = 0;
    ooo_hash_ = {};

    info.occupancy_after = committed_n_;
    SIM_CHECK_CTX(
        info.occupancy_after ==
            info.occupancy_before + info.pushed - info.popped,
        name_, &clk_,
        "commit() accounting mismatch: before=" << info.occupancy_before
            << " +pushed=" << info.pushed << " -popped=" << info.popped
            << " != after=" << info.occupancy_after);
    if (info.pushed != 0) {
      for (Component* c : push_wakers_) c->wake();
    }
    if (info.popped != 0) {
      for (Component* c : pop_wakers_) c->wake();
    }
    if (observer_) observer_(observer_ctx_, info);
  }

  void checkPhase(const char* op) const {
    SIM_CHECK_CTX(clk_.simulator().phase() == Phase::Evaluate, name_, &clk_,
                  op << "() outside the evaluate phase: FIFOs may only be "
                        "mutated from Component::evaluate()");
  }

  /// Ring index of logical position `logical` (0 = oldest committed item).
  /// head_ < capacity_ and logical <= capacity_, so one conditional subtract
  /// replaces a modulo — this is on the per-push/pop hot path.
  std::size_t rix(std::size_t logical) const {
    std::size_t i = head_ + logical;
    if (i >= capacity_) i -= capacity_;
    return i;
  }

  void notifyTaps(const std::vector<Tap>& taps, const T& v) const {
    if (taps.empty() || clk_.simulator().inReplay()) return;
    for (const auto& t : taps) t(v);
  }

  ClockDomain& clk_;
  std::string name_;
  std::size_t capacity_;
  // Fixed-capacity ring: committed items occupy logical slots
  // [0, committed_n_), staged pushes [committed_n_, committed_n_ + staged_n_),
  // both relative to head_.  Registered occupancy can never exceed capacity,
  // so committed + staged always fit.
  std::vector<T> ring_;
  std::size_t head_ = 0;
  std::size_t committed_n_ = 0;
  std::size_t staged_n_ = 0;
  std::size_t pop_count_ = 0;  ///< in-order pops staged this edge
  std::size_t ooo_pops_ = 0;   ///< out-of-order removals staged this edge
  /// Running hash of this edge's popAt positions (stagedDigest input).
  state::Digest ooo_hash_;
  state::SnapshotSlot ckpt_;  ///< checkpoint of the committed ring
  ObserverFn observer_ = nullptr;
  void* observer_ctx_ = nullptr;
  std::vector<Component*> push_wakers_;
  std::vector<Component*> pop_wakers_;
  std::vector<Tap> push_taps_;
  std::vector<Tap> pop_taps_;
};

/// Clock-domain-crossing FIFO.  Pushes are staged by the producer domain and
/// commit at its edge; each committed item carries a visibility deadline of
/// `sync_stages` consumer periods.  Pops happen from the consumer domain.
/// The full flag seen by the producer is optimistic (no reverse-direction
/// synchroniser latency); the paper's bridges size these FIFOs shallow, so the
/// approximation only shaves a couple of stall cycles uniformly.
///
/// Wake caveat: wakeOnPush fires when the *producer* commits, which is
/// `sync_stages` consumer periods before the item becomes readable.  A
/// consumer that sleeps on this FIFO must therefore gate its sleep on
/// sizeIgnoringSync() == 0 (nothing committed at all), not on canPop() —
/// otherwise it could re-sleep after the wake and never see the item.
template <typename T>
class AsyncFifo final : public Updatable {
  static_assert(kFifoPayload<T>,
                "AsyncFifo payloads must be copyable and have StateOps "
                "support (src/sim/state.hpp)");

 public:
  AsyncFifo(ClockDomain& producer, ClockDomain& consumer, std::string name,
            std::size_t capacity, unsigned sync_stages = 2)
      : prod_(producer), cons_(consumer), name_(std::move(name)),
        capacity_(capacity), sync_stages_(sync_stages) {
    SIM_CHECK_CTX(capacity_ > 0, name_, &prod_, "FIFO capacity must be > 0");
    // readable() computes "now" from the producer domain's simulator; a
    // crossing spanning two Simulator instances has no coherent timeline.
    SIM_CHECK_CTX(&prod_.simulator() == &cons_.simulator(), name_, &prod_,
                  "producer domain '" << prod_.name() << "' and consumer "
                  "domain '" << cons_.name()
                  << "' belong to different simulators");
    prod_.addUpdatable(this);
    // Also listed (never commit-queued) on the consumer side: pops staged at
    // a consumer-only edge commit at the producer's next edge, so deep-check
    // must save and rewind this FIFO when it replays a consumer edge or the
    // re-popped items would be dropped twice at that commit.
    if (&cons_ != &prod_) cons_.addUpdatable(this);
  }
  ~AsyncFifo() override {
    prod_.removeUpdatable(this);
    if (&cons_ != &prod_) cons_.removeUpdatable(this);
  }

  AsyncFifo(const AsyncFifo&) = delete;
  AsyncFifo& operator=(const AsyncFifo&) = delete;

  const std::string& name() const { return name_; }
  std::size_t capacity() const { return capacity_; }

  bool canPush(std::size_t n = 1) const {
    return committed_.size() + staged_.size() + n <= capacity_;
  }

  void push(T v) {
    checkPhase("push");
    SIM_CHECK_CTX(canPush(), name_, &prod_,
                  "push() on full FIFO (capacity " << capacity_ << ")");
    prod_.queueCommit(this);
    staged_.push_back(std::move(v));
  }

  /// Number of items whose synchronisation delay has elapsed.
  std::size_t readable() const {
    Picos now = prod_.simulator().now();
    std::size_t n = 0;
    for (std::size_t i = pop_count_; i < committed_.size(); ++i) {
      if (committed_[i].visible_at <= now) ++n;
      else break;
    }
    return n;
  }

  bool canPop() const { return readable() > 0; }

  const T& front() const {
    SIM_CHECK_CTX(canPop(), name_, &cons_, "front() with no readable item");
    return committed_[pop_count_].value;
  }

  T pop() {
    checkPhase("pop");
    SIM_CHECK_CTX(canPop(), name_, &cons_, "pop() with no readable item");
    prod_.queueCommit(this);
    T v = std::move(committed_[pop_count_].value);
    ++pop_count_;
    return v;
  }

  std::size_t sizeIgnoringSync() const { return committed_.size() - pop_count_; }

  /// Instant at which the oldest committed, unpopped item becomes readable
  /// (a consumer waiting out the synchroniser passes it to sleepUntil).
  Picos frontVisibleAt() const {
    SIM_CHECK_CTX(sizeIgnoringSync() > 0, name_, &cons_,
                  "frontVisibleAt() with nothing committed");
    return committed_[pop_count_].visible_at;
  }

  /// Wake `c` when the producer domain commits staged pushes (see the wake
  /// caveat in the class comment: this precedes readability by the sync
  /// delay).
  void wakeOnPush(Component* c) { push_wakers_.push_back(c); }

  // --- deep-check hooks -----------------------------------------------------

  const std::string& updatableName() const override { return name_; }

  std::uint64_t stagedDigest() const override {
    state::Digest d;
    d.add(staged_.size());
    d.add(pop_count_);
    return d.value();
  }

  void checkInvariants() const override {
    SIM_CHECK_CTX(pop_count_ <= committed_.size(), name_, &prod_,
                  "pop count " << pop_count_ << " exceeds committed occupancy "
                               << committed_.size());
    SIM_CHECK_CTX(committed_.size() + staged_.size() <= capacity_,
                  name_, &prod_,
                  "occupancy " << committed_.size() + staged_.size()
                               << " exceeds capacity " << capacity_);
  }

  // --- checkpoint hooks -----------------------------------------------------
  //
  // Between edges staged_ is always drained (a push commits at the producer
  // edge that staged it), but pop_count_ may be non-zero: consumer pops only
  // clear at the *producer* domain's next commit of this FIFO.  The snapshot
  // therefore covers the committed entries, their visibility deadlines and
  // the pending pop count; deep-check's rewind of a consumer-only edge keeps
  // the count carried into that edge this way.

  void saveCheckpoint() override {
    SIM_CHECK_CTX(staged_.empty(), name_, &prod_,
                  "saveCheckpoint() with staged pushes: snapshots are "
                  "only legal before an edge stages anything");
    ckpt_.save(committed_, pop_count_);
  }

  void restoreCheckpoint() override {
    ckpt_.restore(committed_, pop_count_);
    staged_.clear();
  }

  std::uint64_t checkpointDigest() const override {
    state::Digest d;
    d.add(committed_.size() - pop_count_);
    for (std::size_t i = pop_count_; i < committed_.size(); ++i) {
      state::StateOps<T>::digest(d, committed_[i].value);
      d.add(committed_[i].visible_at);
    }
    return d.value();
  }

 private:
  void commit() override {
    committed_.erase(committed_.begin(),
                     committed_.begin() + static_cast<std::ptrdiff_t>(pop_count_));
    pop_count_ = 0;
    const bool pushed = !staged_.empty();
    Picos visible = prod_.simulator().now() +
                    static_cast<Picos>(sync_stages_) * cons_.period();
    for (auto& v : staged_) {
      committed_.push_back(Entry{std::move(v), visible});
    }
    staged_.clear();
    if (pushed) {
      for (Component* c : push_wakers_) c->wake();
    }
  }

  void checkPhase(const char* op) const {
    SIM_CHECK_CTX(prod_.simulator().phase() == Phase::Evaluate, name_, &prod_,
                  op << "() outside the evaluate phase: FIFOs may only be "
                        "mutated from Component::evaluate()");
  }

  struct Entry {
    T value;
    Picos visible_at;

    auto simStateMembers() { return std::tie(value, visible_at); }
  };

  ClockDomain& prod_;
  ClockDomain& cons_;
  std::string name_;
  std::size_t capacity_;
  unsigned sync_stages_;
  std::deque<Entry> committed_;
  std::vector<T> staged_;
  std::size_t pop_count_ = 0;
  state::SnapshotSlot ckpt_;  ///< checkpoint of the committed entries
  std::vector<Component*> push_wakers_;
};

}  // namespace mpsoc::sim
