#include "bridge/bridge.hpp"

#include "sim/check.hpp"
#include "verify/bridge_monitor.hpp"
#include "verify/context.hpp"
#include <memory>

namespace mpsoc::bridge {

using txn::Opcode;
using txn::RequestPtr;
using txn::ResponsePtr;

BridgeConfig lightweightBridgeConfig(std::uint32_t width_a,
                                     std::uint32_t width_b) {
  BridgeConfig cfg;
  // Basic bridging functionality only: blocking target side on reads, a
  // multi-cycle conversion pipeline on each traversal (the paper's hybrid
  // bridges "do not exploit advanced features of the communication
  // protocols" and "penalize across-layer communications").
  cfg.split_reads = false;
  cfg.early_write_ack = true;
  cfg.latency_a_cycles = 6;
  cfg.latency_b_cycles = 6;
  cfg.width_a_bytes = width_a;
  cfg.width_b_bytes = width_b;
  return cfg;
}

BridgeConfig genConvConfig(std::uint32_t width_a, std::uint32_t width_b,
                           unsigned outstanding) {
  BridgeConfig cfg;
  cfg.split_reads = true;
  cfg.max_outstanding_reads = outstanding;
  cfg.early_write_ack = true;
  cfg.latency_a_cycles = 1;  // conversions combined in one optimised stage
  cfg.latency_b_cycles = 1;
  cfg.width_a_bytes = width_a;
  cfg.width_b_bytes = width_b;
  cfg.fwd_depth = 8;
  cfg.bwd_depth = 8;
  cfg.a_req_depth = 4;
  return cfg;
}

// ---------------------------------------------------------------------------

class Bridge::SlaveSide final : public sim::Component {
 public:
  SlaveSide(sim::ClockDomain& clk, Bridge& b)
      : sim::Component(clk, b.name() + ".A"), b_(b) {}
  void evaluate() override {
    b_.slaveEvaluate();
    // Side A drained (bwd_ structurally empty — see the AsyncFifo wake
    // caveat): quiesce until a_port_.req or bwd_ push wakes us (wired in
    // the Bridge constructor).  Deliberately side-local: work still in
    // flight towards side B keeps the *master* awake and non-idle instead.
    if (b_.slaveIdle()) sleep();
  }
  bool idle() const override { return b_.slaveIdle(); }

 private:
  Bridge& b_;

  // The Bridge itself is not a Component; each side manifests the bridge
  // state its own evaluate() mutates (the CDC FIFOs are registered
  // Updatables, checkpointed by the kernel).
  SIM_STATE_MEMBERS(b_.staged_a_, b_.pending_, b_.acks_, b_.reads_in_flight_,
                    b_.busy_, b_.busy_until_);
};

class Bridge::MasterSide final : public txn::MasterBase {
 public:
  MasterSide(sim::ClockDomain& clk, Bridge& b)
      : txn::MasterBase(clk, b.name() + ".B", b.b_port_,
                        b.cfg_.max_outstanding_reads + 8),
        b_(b) {}

  void evaluate() override {
    collectResponses();

    // Drain locally buffered completions into the backward CDC FIFO.
    while (!done_.empty() && b_.bwd_.canPush()) {
      b_.bwd_.push(done_.front());
      done_.pop_front();
    }

    // Move arrivals from the forward CDC FIFO into the latency line.
    const sim::Picos lat =
        static_cast<sim::Picos>(b_.cfg_.latency_b_cycles) * clk_.period();
    while (b_.fwd_.canPop()) {
      staged_.push_back({b_.fwd_.pop(), clk_.simulator().now() + lat});
    }

    // Issue at most one side-B transaction per cycle.
    if (staged_.empty()) {
      // Nothing staged, buffered or outstanding, and the forward CDC FIFO is
      // structurally empty (the fwd_ term inside idle() uses
      // sizeIgnoringSync, not canPop: the push wake fires a sync delay
      // before readability, so a committed-but-invisible item must keep us
      // awake).  Quiesce until fwd_ or b_port_.rsp push.
      if (idle()) sleep();
      return;
    }
    if (clk_.simulator().now() < staged_.front().ready_at) return;
    const RequestPtr& orig = staged_.front().req;

    auto clone = std::make_shared<txn::Request>(*orig);
    clone->id = clk_.simulator().nextTransactionId();
    clone->root_id = orig->root_id;
    clone->beats = txn::repackBeats(orig->beats, orig->bytes_per_beat,
                                    b_.cfg_.width_b_bytes);
    clone->bytes_per_beat = b_.cfg_.width_b_bytes;
    if (clone->op == Opcode::Write) clone->posted = b_.cfg_.posted_writes_b;

    const bool posted = clone->posted && clone->op == Opcode::Write;
    if (posted ? !canIssuePosted() : !canIssue()) return;
    origin_[clone->id] = orig;
    issue(clone);
    if (clone->op == Opcode::Read) ++b_.reads_fwd_;
    else ++b_.writes_fwd_;
    if (posted) {
      // No side-B response will arrive; a write forwarded as posted is
      // complete for the bridge once issued.
      if (!b_.cfg_.early_write_ack) done_.push_back(orig);
      origin_.erase(clone->id);
    }
    staged_.pop_front();
  }

  bool idle() const override {
    // fwd_'s structural occupancy is master-side state for idleness
    // purposes: the master is fwd_'s consumer, and counting in-flight
    // crossings here keeps runUntilIdle from declaring the platform
    // quiescent while an item sits in the synchroniser — coverage the
    // bridge-wide predicate used to provide before it was split side-local.
    return staged_.empty() && done_.empty() && outstanding() == 0 &&
           b_.fwd_.sizeIgnoringSync() == 0;
  }

 protected:
  void onResponse(const ResponsePtr& rsp) override {
    auto it = origin_.find(rsp->req->id);
    SIM_CHECK_CTX(it != origin_.end(), name_, &clk_,
                  "side-B response for unknown clone id " << rsp->req->id);
    RequestPtr orig = it->second;
    origin_.erase(it);
    if (orig->op == Opcode::Read || !b_.cfg_.early_write_ack) {
      done_.push_back(orig);  // read data / late write ack travels back
    }
    // Early-acked writes: the side-B acknowledge is consumed silently.
  }

 private:
  Bridge& b_;
  std::deque<Staged> staged_;
  std::deque<RequestPtr> done_;
  std::unordered_map<std::uint64_t, RequestPtr> origin_;

  // origin_ is keyed by volatile clone ids: the kernel digests its values
  // commutatively, so the digest stays stable across id renumbering.
  SIM_STATE_MEMBERS_WITH_BASE(txn::MasterBase, staged_, done_, origin_,
                              b_.reads_fwd_, b_.writes_fwd_);
};

// ---------------------------------------------------------------------------

Bridge::Bridge(sim::ClockDomain& clk_a, sim::ClockDomain& clk_b,
               std::string name, BridgeConfig cfg)
    : name_(std::move(name)), cfg_(cfg), clk_a_(clk_a), clk_b_(clk_b),
      a_port_(clk_a, name_ + ".a", cfg_.a_req_depth, 4),
      b_port_(clk_b, name_ + ".b", 2, 8),
      fwd_(clk_a, clk_b, name_ + ".fwd", cfg_.fwd_depth, cfg_.sync_stages),
      bwd_(clk_b, clk_a, name_ + ".bwd", cfg_.bwd_depth, cfg_.sync_stages) {
  slave_side_ = std::make_unique<SlaveSide>(clk_a, *this);
  master_side_ = std::make_unique<MasterSide>(clk_b, *this);
  // Activity protocol wake wiring: side A sleeps on bridge-wide idle and is
  // woken by new requests or returning completions; side B sleeps when its
  // queues drain and is woken by forwarded requests or side-B responses.
  a_port_.req.wakeOnPush(slave_side_.get());
  bwd_.wakeOnPush(slave_side_.get());
  fwd_.wakeOnPush(master_side_.get());
  b_port_.rsp.wakeOnPush(master_side_.get());
}

Bridge::~Bridge() = default;

void Bridge::attachMonitors(verify::VerifyContext& ctx) {
#if MPSOC_VERIFY
  ctx.add<verify::BridgeMonitor>(name_ + ".mon", &clk_a_, a_port_, b_port_,
                                 cfg_.width_b_bytes);
#else
  (void)ctx;
#endif
}

void Bridge::setAuditor(txn::TxnAuditor* auditor) {
  master_side_->setAuditor(auditor);
}

void Bridge::slaveEvaluate() {
  const sim::Picos now = clk_a_.simulator().now();
  const sim::Picos pa = clk_a_.period();

  // 1. Absorb side-B completions.
  while (bwd_.canPop()) {
    RequestPtr orig = bwd_.pop();
    if (orig->op == Opcode::Read) {
      bool matched = false;
      for (auto& p : pending_) {
        if (p.original == orig && !p.data_ready) {
          p.data_ready = true;
          matched = true;
          break;
        }
      }
      SIM_CHECK_CTX(matched, name_ + ".A", &clk_a_,
                    "read completion without a pending entry (id "
                        << orig->id << ")");
    } else {
      acks_.push_back(orig);  // late write ack path
    }
  }

  // 2. Deliver at most one response on side A per cycle, reads strictly in
  //    acceptance order (safe for in-order protocols on bus A).
  if (a_port_.rsp.canPush()) {
    const sim::Picos lat =
        static_cast<sim::Picos>(cfg_.latency_a_cycles) * pa;
    if (!pending_.empty() && pending_.front().data_ready) {
      RequestPtr orig = pending_.front().original;
      pending_.pop_front();
      auto rsp = std::make_shared<txn::Response>();
      rsp->req = orig;
      rsp->beats = orig->beats;  // repacked back to the side-A width
      rsp->sched.first_beat = now + lat;
      rsp->sched.beat_period = pa;  // buffered data streams at full rate
      a_port_.rsp.push(rsp);
      SIM_CHECK_CTX(reads_in_flight_ > 0, name_ + ".A", &clk_a_,
                    "read response delivered with no read in flight");
      --reads_in_flight_;
      // The blocking transaction completes when its last beat streams on A.
      busy_ = false;
      busy_until_ = rsp->sched.lastBeat(rsp->beats);
    } else if (!acks_.empty()) {
      RequestPtr orig = acks_.front();
      acks_.pop_front();
      auto rsp = std::make_shared<txn::Response>();
      rsp->req = orig;
      rsp->beats = 1;
      rsp->sched.first_beat = now + pa;
      rsp->sched.beat_period = pa;
      a_port_.rsp.push(rsp);
    }
  }

  // 3. Accept (absorb) at most one request from bus A per cycle.
  if (!a_port_.req.empty()) {
    const RequestPtr& front = a_port_.req.front();
    const bool is_read = front->op == Opcode::Read;
    bool blocked = false;
    if (!cfg_.split_reads) {
      // Lightweight bridge: one transaction is handled at a time, end to
      // end — the blocking target side of Section 3.2.
      blocked = busy_ || now < busy_until_;
    } else if (is_read) {
      blocked = reads_in_flight_ >= cfg_.max_outstanding_reads;
    }
    if (!blocked) {
      RequestPtr r = a_port_.req.pop();
      if (!cfg_.split_reads) busy_ = true;
      if (is_read) ++reads_in_flight_;
      if (!is_read && cfg_.early_write_ack && !r->posted) {
        acks_.push_back(r);  // store-and-forward: ack once absorbed
      }
      if (is_read) pending_.push_back({r, false});
      staged_a_.push_back(
          {r, now + static_cast<sim::Picos>(cfg_.latency_a_cycles) * pa});
    }
  }

  // 4. Move one matured request into the forward CDC FIFO.
  if (!staged_a_.empty() && staged_a_.front().ready_at <= now &&
      fwd_.canPush()) {
    const RequestPtr& r = staged_a_.front().req;
    // A blocking write releases the bridge once its payload leaves for
    // side B (store-and-forward); reads hold it until data returns.
    if (!cfg_.split_reads && r->op == Opcode::Write) busy_ = false;
    fwd_.push(r);
    staged_a_.pop_front();
  }
}

bool Bridge::slaveIdle() const {
  // Side-A-local: everything read here is mutated only by the slave side's
  // own evaluate (staged_a_/pending_/acks_), by its own pops (a_port_.req,
  // bwd_ consumer counters) or at commit time (bwd_ committed occupancy).
  // An item in flight towards side B is covered by the master side: fwd_'s
  // structural occupancy folds into MasterSide::idle().
  return staged_a_.empty() && pending_.empty() && acks_.empty() &&
         bwd_.sizeIgnoringSync() == 0 && a_port_.req.empty();
}

bool Bridge::idle() const { return slaveIdle() && master_side_->idle(); }

}  // namespace mpsoc::bridge
